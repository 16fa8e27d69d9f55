"""Per-layer timing for the traced run, taken from outside the program.

The benchmark edits nothing under ``src/``.  It times a layer by
replacing a public function at the module attribute its caller looks
up (for example ``repro.fastpath.dispatch.encode_requests``, which
``fast_simulate`` resolves at call time) with a wrapper that reads the
clock around the original, and by bracketing its own calls into a layer
with :meth:`Tracer.layer`.  Every wrapper is removed when the traced pass
ends, so untraced passes run the unmodified program.

Time accumulates in :mod:`repro.obs.profile` as ``(calls, seconds)``
hook totals.  Forked sweep workers inherit the wrappers and profiling
flag at fork time, and the pool already ships each worker's profile
delta back to the parent, so worker-side layer time lands in the same
totals as parent-side time without any channel of the benchmark's own.
Profiling also turns on the pool's own fork / dispatch / harvest /
reassembly phase timers.
"""

from __future__ import annotations

import inspect
import time
from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator, Optional

from repro.obs import profile as obs_profile
from repro.obs.timeline import role_trace_paths
from repro.obs.trace import read_jsonl


@contextmanager
def patched(owner: Any, attr: str, replacement: Any) -> Iterator[None]:
    """Replace ``owner.attr`` for the duration of the block."""
    original = getattr(owner, attr)
    setattr(owner, attr, replacement)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def timed(
    fn: Callable[..., Any],
    on_done: Callable[[float], None],
    on_start: Callable[[], None] = lambda: None,
) -> Callable[..., Any]:
    """``fn`` with its wall time per call passed to ``on_done``.

    Coroutine functions get a coroutine wrapper, so the time covers the
    awaited work and not just coroutine creation.
    """
    if inspect.iscoroutinefunction(fn):
        async def timed_async(*args: Any, **kwargs: Any) -> Any:
            on_start()
            started = time.perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                on_done(time.perf_counter() - started)

        return timed_async

    def timed_sync(*args: Any, **kwargs: Any) -> Any:
        on_start()
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            on_done(time.perf_counter() - started)

    return timed_sync


#: Live span names (as written to the per-role files) -> layer names.
_SPANS = {
    "live.trace.decision": "live.proxy.decision",
    "live.trace.commit": "live.proxy.commit",
    "live.trace.origin": "live.origin.service",
}


class Tracer:
    """Collects layer time for one pass; inert unless ``enabled``.

    Workloads call :meth:`layer` around their own calls into a layer and
    :meth:`wrap` for layers reached deep inside the program.  Both are
    no-ops on an untraced pass, which is what keeps the untraced
    measurement free of tracing cost.
    """

    def __init__(self, enabled: bool, trace_dir: Optional[Path] = None):
        self.enabled = enabled
        #: Where the live stack writes its per-role span files.
        self.trace_dir = trace_dir
        #: Per-call durations kept for percentiles (parent process only).
        self.samples: dict[str, list[float]] = {}
        #: Flags raised by wrappers with ``sets=`` while their call runs.
        self.flags: set[str] = set()
        #: Live span files written during the pass, read by :meth:`totals`.
        self.live_traces: list[Path] = []
        self._stack = ExitStack()

    def __enter__(self) -> "Tracer":
        if self.enabled:
            obs_profile.reset()
            obs_profile.enable()
        return self

    def __exit__(self, *exc: object) -> None:
        self._stack.close()
        if self.enabled:
            obs_profile.disable()

    @contextmanager
    def layer(self, name: str) -> Iterator[None]:
        """Time the block as one call of layer ``name``."""
        if not self.enabled:
            yield
            return
        started = time.perf_counter()
        try:
            yield
        finally:
            obs_profile.add_hook(name, time.perf_counter() - started)

    def add(self, name: str, seconds: float, calls: int = 1) -> None:
        """Record layer time measured elsewhere (e.g. from span files)."""
        if self.enabled:
            obs_profile.merge({
                "phases": {},
                "hook_calls": {name: calls},
                "hook_seconds": {name: seconds},
            })

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        *,
        sample: bool = False,
        unless: Optional[str] = None,
        sets: Optional[str] = None,
    ) -> None:
        """Time every call of ``owner.attr`` as layer ``name``.

        ``sample`` also keeps each duration for percentiles.  ``sets``
        names a flag raised while the call runs; ``unless`` skips calls
        made while that flag is up (upstream fetches made by the proxy's
        warmup are charged to the warmup, not to the upstream hop).  The
        wrapper stays until the tracer exits.
        """
        if not self.enabled:
            return
        samples = self.samples.setdefault(name, []) if sample else None

        def on_start() -> None:
            if sets is not None:
                self.flags.add(sets)

        def on_done(seconds: float) -> None:
            if sets is not None:
                self.flags.discard(sets)
            if unless is not None and unless in self.flags:
                return
            obs_profile.add_hook(name, seconds)
            if samples is not None:
                samples.append(seconds)

        original = getattr(owner, attr)
        self._stack.enter_context(
            patched(owner, attr, timed(original, on_done, on_start))
        )

    def _absorb_live_trace(self, path: Path) -> None:
        """Charge a traced replay's proxy and origin spans, then delete
        its per-role files.

        The proxy's ``live.trace.parse`` span is not used: it includes
        keep-alive idle time between requests, not parse work.
        """
        for role_path in role_trace_paths(path).values():
            for record in read_jsonl(role_path):
                if record["type"] == "span" and record["name"] in _SPANS:
                    self.add(_SPANS[record["name"]], record["wall"])
                elif (
                    record["type"] == "mark"
                    and record["kind"] == "live.trace.retry"
                ):
                    self.add("live.retries", 0.0)
            role_path.unlink()

    def totals(self) -> dict[str, tuple[int, float]]:
        """``{layer: (calls, seconds)}`` including the pool's phases.

        Called after the pass's wall time is taken, so reading the live
        span files is not charged to the pass.
        """
        for path in self.live_traces:
            self._absorb_live_trace(path)
        self.live_traces.clear()
        out = {
            name: (calls, seconds)
            for name, calls, seconds in obs_profile.hook_table()
        }
        for phase, seconds in obs_profile.phase_breakdown():
            out[f"phase.{phase}"] = (1, seconds)
        return out
