"""``paper-sweep``: Figures 2-8 on the fast engine and the fork pool."""

from __future__ import annotations

import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.analysis import sweep as sweep_module
from repro.analysis.sweep import ALEX_THRESHOLDS_PERCENT, TTL_HOURS
from repro.core.protocols import InvalidationProtocol
from repro.core.results import result_to_dict
from repro.workload.campus import build_campus_workloads

from perfbench.layers import Tracer, patched
from perfbench.workloads.base import (
    BASE,
    OPTIMIZED,
    Outcome,
    RunConfig,
    alex,
    ttl,
    worrell,
)


class PaperSweep:
    """Figures 2-8: Alex and TTL grids plus the invalidation baseline.

    Worrell in base and optimized mode and the three campus traces, on
    the default (fast) engine with two pool workers, calling
    ``sweep_alex`` / ``sweep_ttl`` directly so no experiment memo can
    make one rep cheaper than another.
    """

    name = "paper-sweep"
    live = False
    scale = 0.25
    workers = 2

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir

    def build(self, seed: int, tracer: Tracer) -> dict[str, Any]:
        with tracer.layer("workload.build"):
            base = worrell(self.scale, seed)
            campus = list(
                build_campus_workloads(
                    seed=seed, request_scale=self.scale
                ).values()
            )
        return {"worrell": [base], "campus": campus}

    def _sweeps(self, inputs: dict[str, Any]) -> list[tuple]:
        base, campus = inputs["worrell"], inputs["campus"]
        return [
            ("alex", base, BASE),
            ("ttl", base, BASE),
            ("alex", base, OPTIMIZED),
            ("ttl", base, OPTIMIZED),
            ("alex", campus, OPTIMIZED),
            ("ttl", campus, OPTIMIZED),
        ]

    def configs(self, inputs: dict[str, Any]) -> list[RunConfig]:
        out = []
        for family, workloads, mode in self._sweeps(inputs):
            if family == "alex":
                makers = [alex(p) for p in ALEX_THRESHOLDS_PERCENT]
            else:
                makers = [ttl(h) for h in TTL_HOURS]
            makers.append(InvalidationProtocol)
            out.extend(
                RunConfig(wl, make, mode)
                for make in makers
                for wl in workloads
            )
        return out

    def run(self, inputs: dict[str, Any], tracer: Tracer) -> Outcome:
        outcome = Outcome()
        with _sweep_capture(outcome, tracer):
            for family, workloads, mode in self._sweeps(inputs):
                with outcome.part(), tracer.layer("analysis.sweep"):
                    if family == "alex":
                        sweep_module.sweep_alex(
                            workloads, mode, ALEX_THRESHOLDS_PERCENT,
                            workers=self.workers,
                        )
                    else:
                        sweep_module.sweep_ttl(
                            workloads, mode, TTL_HOURS, workers=self.workers
                        )
        return outcome

    def expected_runs(self, inputs: dict[str, Any]) -> list[dict[str, Any]]:
        """The unit's runs; call under ``set_engine("reference")``."""
        return self.run(inputs, Tracer(False)).runs


@contextmanager
def _sweep_capture(outcome: Outcome, tracer: Tracer) -> Iterator[None]:
    """Record every sweep run's result and every task's latency.

    ``sweep_protocol`` looks up ``map_ordered`` and ``run_protocol``
    looks up ``verify_run`` in ``repro.analysis.sweep`` at call time.
    The ``verify_run`` wrapper keeps each result in a list the task
    wrapper drains; because workers are forked, each gets its own copy
    of that list, and the records travel back with the task's value.
    """
    captured: list[Any] = []
    original_verify = sweep_module.verify_run
    original_map = sweep_module.map_ordered

    def verify_run(*args: Any, **kwargs: Any) -> Any:
        result = original_verify(*args, **kwargs)
        captured.append(result)
        return result

    def map_ordered(fn: Callable[[Any], Any], items: Any, **kwargs: Any):
        def task(item: Any) -> tuple[Any, list[dict[str, Any]], float]:
            mark = len(captured)
            started = time.perf_counter()
            value = fn(item)
            elapsed = time.perf_counter() - started
            records = [result_to_dict(r) for r in captured[mark:]]
            del captured[mark:]
            return value, records, elapsed

        with tracer.layer("runtime.map"):
            outs = original_map(task, items, **kwargs)
        for _, records, elapsed in outs:
            outcome.runs.extend(records)
            outcome.latencies.append(elapsed)
        tracer.add("runtime.task", sum(e for _, _, e in outs), len(outs))
        return [value for value, _, _ in outs]

    with patched(sweep_module, "verify_run", verify_run), \
            patched(sweep_module, "map_ordered", map_ordered):
        yield
