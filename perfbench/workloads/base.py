"""What every workload shares: one simulation's configuration and one
unit's outcome.

A run is recorded as a plain dict holding all counters and ledger cells
(:func:`repro.core.results.result_to_dict`, or a hierarchy record on
``reference-path``), so the digest of a unit covers every number the
program reports.
"""

from __future__ import annotations

import resource
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterator, Optional

from repro.core.cache import Cache
from repro.core.clock import hours
from repro.core.protocols import AlexProtocol, TTLProtocol
from repro.core.replacement import make_policy
from repro.core.results import result_to_dict
from repro.core.simulator import SimulatorMode
from repro.fastpath import unsupported_reason
from repro.workload.base import Workload
from repro.workload.worrell import WorrellWorkload

if TYPE_CHECKING:
    from repro.faults import FaultPlan

BASE = SimulatorMode.BASE
OPTIMIZED = SimulatorMode.OPTIMIZED


def percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (1-99) of ``values``."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def cpu_seconds() -> float:
    """User + system CPU time of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


@dataclass
class Outcome:
    """What one unit of work produced.

    Attributes:
        runs: one record per simulation or live replay, in run order.
        latencies: seconds per client-visible operation: an HTTP
            exchange on ``live-replay``, a sweep task on
            ``paper-sweep``, a simulation on ``reference-path``.
        parts: ``(wall, cpu)`` seconds of each part of the unit, in run
            order — a simulation on ``reference-path``, a sweep on
            ``paper-sweep``, a replay on ``live-replay``.  Every unit
            has the same parts, so one part can be compared across
            units.
    """

    runs: list[dict[str, Any]] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    parts: list[tuple[float, float]] = field(default_factory=list)

    @contextmanager
    def part(self) -> Iterator[None]:
        """Time the block as the unit's next part.

        Pool workers are reaped when a sweep's pool shuts down, inside
        the block, so their CPU time lands in the part that used them.
        """
        wall, cpu = time.perf_counter(), cpu_seconds()
        yield
        self.parts.append((time.perf_counter() - wall, cpu_seconds() - cpu))

    def latency(self, q: int) -> float:
        """The ``q``-th percentile of the unit's operation times."""
        return percentile(self.latencies, q)

    @property
    def requests(self) -> int:
        """Simulated or replayed requests across all runs."""
        total = 0
        for run in self.runs:
            if "hierarchy" in run:
                total += sum(
                    node["counters"]["requests"]
                    for node in run["hierarchy"][1:]
                )
            else:
                total += run["counters"]["requests"]
        return total


@dataclass
class RunConfig:
    """One simulation a workload performs.

    ``layer`` names the per-layer metric the run's time is charged to
    on ``reference-path``; ``capacity`` is a bounded LRU cache size in
    bytes.
    """

    workload: Workload
    make_protocol: Callable[[], Any]
    mode: SimulatorMode = OPTIMIZED
    faults: Optional[FaultPlan] = None
    capacity: Optional[int] = None
    layer: str = ""

    def _cache(self) -> Optional[Cache]:
        if self.capacity is None:
            return None
        return Cache(capacity_bytes=self.capacity, policy=make_policy("lru"))

    def fallback_reason(self) -> Optional[str]:
        """Why the fast path refuses this run (None: it accepts it)."""
        return unsupported_reason(
            self.make_protocol(), cache=self._cache(), faults=self.faults
        )

    def simulate(self, simulate_fn: Callable[..., Any]) -> dict[str, Any]:
        """Run through ``simulate_fn`` (engine dispatch or reference)."""
        wl = self.workload
        result = simulate_fn(
            wl.server(), self.make_protocol(), wl.requests, self.mode,
            cache=self._cache(), preload=self.capacity is None,
            end_time=wl.duration, faults=self.faults,
        )
        return result_to_dict(result)


def alex(percent: float) -> Callable[[], Any]:
    return lambda: AlexProtocol.from_percent(percent)


def ttl(hours_value: float) -> Callable[[], Any]:
    return lambda: TTLProtocol(hours(hours_value))


def worrell(scale: float, seed: int) -> Workload:
    return WorrellWorkload(
        files=round(2085 * scale), requests=round(100_000 * scale), seed=seed
    ).build()
