"""Timed runs, correctness checks and the metrics they produce.

An untraced run (``--trace 0``) builds the inputs once and repeats one
unit of work until ``--seconds`` have passed; every end-to-end metric
but memory is the best seen over those reps (for time, the sum of each
part's least time; for latency, the percentile of each operation's
least time; for set-up time, the least of fresh processes started
between the reps).  A traced run (``--trace 1``) alternates an untraced
and a traced *pass* (build plus one unit) for ``--seconds``; per-layer
metrics are means over the traced passes, and ``trace_overhead``
compares the two kinds of pass.
"""

from __future__ import annotations

import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from repro.core.results import result_from_dict
from repro.core.simulator import simulate
from repro.fastpath import diff_results
from repro.fastpath import dispatch as fastpath_dispatch
from repro.live import proxy as live_proxy
from repro.live.differential import diff_live_vs_sim

from perfbench import digests
from perfbench.layers import Tracer
from perfbench.workloads import ROOT, workdir, workload_named
from perfbench.workloads.base import Outcome, percentile

RUN = Path(__file__).with_name("run.py")

#: Fresh processes timed from spawn to ready inputs; setup_s is the
#: least of them.
SETUP_PROBES = 15
#: Runs re-simulated on the reference engine for a seed with no digest.
REFERENCE_SAMPLE = 3


def setup_probe(name: str, seed: int) -> float:
    """Time from spawning a fresh process until its inputs are ready.

    Covers interpreter start, imports, the workload build and (on
    ``live-replay``) the CLF write and parse.
    """
    started = time.monotonic()
    probe = subprocess.run(
        [sys.executable, str(RUN), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(probe.stdout.split()[-1]) - started


def peak_rss_mb() -> float:
    """The larger of this process's and its children's peak RSS."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def instrument(tracer: Tracer) -> None:
    """Wrap the layers reached inside the program.

    Installed on every workload, so a layer a workload skips reports
    zero — which is how the benchmark shows the workloads separate the
    layers.
    """
    tracer.wrap(fastpath_dispatch, "compile_server", "fastpath.compile")
    tracer.wrap(fastpath_dispatch, "encode_requests", "fastpath.encode")
    tracer.wrap(fastpath_dispatch, "run_kernel", "fastpath.kernel")
    tracer.wrap(live_proxy.LiveProxy, "warm", "live.warm", sets="warming")
    tracer.wrap(live_proxy, "exchange", "live.upstream", sample=True,
                unless="warming")


# -- correctness --------------------------------------------------------------


@dataclass
class Checker:
    """Checks every unit's runs; counts attempted and failed runs.

    Every unit must match the first unit of the run.  A seed with a
    committed digest must match it; a seed without one has a sample of
    its runs re-simulated on the reference engine.  Every live replay
    must equal the reference simulation of the same trace.  A run that
    fails more than one of these checks is counted once.
    """

    workload: Any
    inputs: Any
    seed: int
    expected: Optional[str]
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    _first: Optional[str] = None
    _reference: Optional[list[dict[str, Any]]] = None

    def check(self, outcome: Optional[Outcome]) -> None:
        configs = self.workload.configs(self.inputs)
        self.attempted += len(configs)
        every = set(range(len(configs)))
        if outcome is None or len(outcome.runs) != len(configs):
            self.failed += len(
                self._problem(every, "unit did not complete every run")
            )
            return
        bad: set[int] = set()
        found = digests.digest(outcome.runs)
        if self._first is None:
            self._first = found
            if self.expected is None and not self.workload.live:
                bad |= self._sample(configs, outcome)
        if self.expected is not None and found != self.expected:
            bad |= self._problem(every, f"digest {found} != committed "
                                        f"{self.expected}")
        elif found != self._first:
            bad |= self._problem(every, "digest differs from the first unit")
        if self.workload.live:
            if self._reference is None:
                self._reference = self.workload.expected_runs(self.inputs)
            for index, (live, sim) in enumerate(
                zip(outcome.runs, self._reference)
            ):
                lines = diff_live_vs_sim(
                    result_from_dict(live), result_from_dict(sim)
                )
                if lines:
                    bad |= self._problem({index}, "; ".join(lines))
        self.failed += len(bad)

    def _sample(self, configs: list, outcome: Outcome) -> set[int]:
        picks = random.Random(self.seed).sample(
            range(len(configs)), min(REFERENCE_SAMPLE, len(configs))
        )
        bad: set[int] = set()
        for index in sorted(picks):
            reference = configs[index].simulate(simulate)
            observed = outcome.runs[index]
            if "hierarchy" in observed:
                lines = [] if observed == reference else [
                    f"hierarchy run {index} differs from a rerun"
                ]
            else:
                lines = diff_results(
                    result_from_dict(observed), result_from_dict(reference),
                    label=f"run{index}",
                )
            if lines:
                bad |= self._problem({index}, "; ".join(lines))
        return bad

    def _problem(self, runs: set[int], problem: str) -> set[int]:
        self.problems.append(problem)
        return runs


def _run_unit(workload: Any, inputs: Any, tracer: Tracer) -> Optional[Outcome]:
    try:
        return workload.run(inputs, tracer)
    except Exception:  # a failing unit is counted, not fatal
        traceback.print_exc()
        return None


# -- untraced -----------------------------------------------------------------


def end_to_end(
    workload: Any, inputs: Any, checker: Checker, seconds: float
) -> dict[str, float]:
    """Repeat the unit for ``seconds``; the end-to-end metrics.

    Each metric is the best the run saw, because on a shared machine a
    unit can only be slowed by other work, never sped up: time and CPU
    time are the sums, over the unit's parts, of each part's least time
    across the units; latency percentiles are taken over each
    operation's least time (the least of each unit's percentile on
    ``live-replay``); ``setup_s`` is the least of fresh set-up
    processes.  The set-up probes run between units, spread evenly over
    the run, so they see the machine over the same stretch of time as
    the units do; probe time is not counted towards ``seconds``.
    """
    outcomes: list[Outcome] = []
    setup: list[float] = []
    probing = 0.0
    started = time.perf_counter()
    while True:
        outcome = _run_unit(workload, inputs, Tracer(False))
        checker.check(outcome)
        if outcome is not None:
            outcomes.append(outcome)
        elapsed = time.perf_counter() - started - probing
        while (len(setup) < SETUP_PROBES
               and elapsed >= len(setup) * seconds / SETUP_PROBES):
            probe_started = time.perf_counter()
            setup.append(setup_probe(workload.name, checker.seed))
            probing += time.perf_counter() - probe_started
        if elapsed >= seconds:
            break
    if not outcomes:
        raise RuntimeError("no unit of work completed")

    def latency(q: int) -> float:
        if workload.live:
            # Exchanges on two connections finish in an order that
            # changes from unit to unit: the least of each unit's
            # percentile.
            return min(o.latency(q) for o in outcomes)
        # A simulation or sweep task is the same operation at the same
        # place in every unit: the percentile of each one's least time.
        return percentile(
            [min(times) for times in zip(*(o.latencies for o in outcomes))],
            q,
        )

    # For each part of the unit, its (wall, cpu) in every unit.
    parts = list(zip(*(o.parts for o in outcomes)))
    wall = sum(min(w for w, _ in part) for part in parts)
    cpu = sum(min(c for _, c in part) for part in parts)
    return {
        "req_per_s": outcomes[0].requests / wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_rss_mb(),
        "exchange_p50_ms": 1e3 * latency(50),
        "exchange_p99_ms": 1e3 * latency(99),
        "setup_s": min(setup),
    }


# -- traced -------------------------------------------------------------------


@dataclass
class Pass:
    """One traced pass: its wall time and the tracer's totals."""

    wall: float
    totals: dict[str, tuple[int, float]]
    samples: dict[str, list[float]]


def traced(
    workload: Any, seed: int, checker: Checker, seconds: float, path: Path
) -> tuple[list[float], list[Pass]]:
    """Alternate untraced and traced passes for ``seconds``."""
    untraced_walls: list[float] = []
    passes: list[Pass] = []
    started = time.perf_counter()
    while True:
        # Alternate which kind of pass goes first, so neither always
        # pays for the other's leftovers (freed memory, cold caches).
        order = (False, True) if len(passes) % 2 == 0 else (True, False)
        for enabled in order:
            with Tracer(enabled, path) as tracer:
                if enabled:
                    instrument(tracer)
                pass_started = time.perf_counter()
                inputs = workload.build(seed, tracer)
                outcome = _run_unit(workload, inputs, tracer)
                wall = time.perf_counter() - pass_started
                if enabled:
                    passes.append(Pass(wall, tracer.totals(), tracer.samples))
                else:
                    untraced_walls.append(wall)
            checker.check(outcome)
        if time.perf_counter() - started >= seconds:
            break
    return untraced_walls, passes


#: Layers whose self times partition a traced pass's wall time; the
#: rest of the wall is ``unattributed_s``.  Nested layers (fastpath and
#: task time inside the pool's harvest wait, live proxy and origin time
#: inside the replay) are reported beside them, not in the sum.
PARTITION = (
    "workload.build_s",
    "trace.clf_write_s",
    "trace.clf_parse_s",
    "trace.reconstruct_s",
    "analysis.self_s",
    "runtime.fork_s",
    "runtime.dispatch_s",
    "runtime.harvest_s",
    "runtime.reassembly_s",
    "runtime.shutdown_s",
    "core.simulate.faults_s",
    "core.simulate.selftuning_s",
    "core.simulate.bounded_lru_s",
    "core.hierarchy_s",
    "live.warm_s",
    "live.replay_s",
)


def per_layer(
    untraced_walls: list[float],
    passes: list[Pass],
    *,
    workers: int,
    fallbacks: int,
    failed_share: float,
) -> dict[str, float]:
    """The per-layer metrics: means over the traced passes."""
    n = len(passes)

    def seconds(name: str) -> float:
        return sum(p.totals.get(name, (0, 0.0))[1] for p in passes) / n

    def calls(name: str) -> float:
        return sum(p.totals.get(name, (0, 0.0))[0] for p in passes) / n

    compile_s = seconds("fastpath.compile")
    encode_s = seconds("fastpath.encode")
    kernel_s = seconds("fastpath.kernel")
    fast_s = compile_s + encode_s + kernel_s
    map_s = seconds("runtime.map")
    phases = {
        phase: seconds(f"phase.{phase}")
        for phase in ("fork", "dispatch", "harvest", "reassembly")
    }
    core = {
        name: seconds(name)
        for name in ("core.simulate.faults", "core.simulate.selftuning",
                     "core.simulate.bounded_lru", "core.hierarchy")
    }
    upstream = [s for p in passes for s in p.samples.get("live.upstream", [])]
    hits, requests = calls("live.hits"), calls("live.requests")
    wall = sum(p.wall for p in passes) / n
    metrics = {
        "workload.build_s": seconds("workload.build"),
        "trace.clf_write_s": seconds("trace.clf_write"),
        "trace.clf_parse_s": seconds("trace.clf_parse"),
        "trace.reconstruct_s": seconds("trace.reconstruct"),
        "fastpath.compile_s": compile_s,
        "fastpath.encode_s": encode_s,
        "fastpath.kernel_s": kernel_s,
        "fastpath.encode_share": encode_s / fast_s if fast_s else 0.0,
        "fastpath.runs": calls("fastpath.kernel"),
        "fastpath.fallbacks": float(fallbacks),
        **{f"runtime.{phase}_s": value for phase, value in phases.items()},
        "runtime.shutdown_s": map_s - sum(phases.values()) if map_s else 0.0,
        "runtime.tasks": calls("runtime.task"),
        "runtime.task_busy_s": seconds("runtime.task"),
        "runtime.efficiency": (
            seconds("runtime.task") / (workers * map_s) if map_s else 0.0
        ),
        "analysis.sweep_s": seconds("analysis.sweep"),
        "analysis.self_s": seconds("analysis.sweep") - map_s,
        "analysis.sweeps": calls("analysis.sweep"),
        **{f"{name}_s": value for name, value in core.items()},
        "core.runs": sum(calls(name) for name in core),
        "live.upstream.calls": calls("live.upstream"),
        "live.upstream_s": seconds("live.upstream"),
        "live.upstream_p50_ms": (
            1e3 * percentile(upstream, 50) if upstream else 0.0
        ),
        "live.proxy.self_s": (
            seconds("live.exchange") - seconds("live.upstream")
        ),
        "live.proxy.decision_s": seconds("live.proxy.decision"),
        "live.proxy.commit_s": seconds("live.proxy.commit"),
        "live.origin.service_s": seconds("live.origin.service"),
        "live.warm_s": seconds("live.warm"),
        "live.replay_s": seconds("live.run_replay") - seconds("live.warm"),
        "live.hit_ratio": hits / requests if requests else 0.0,
        "live.retries": calls("live.retries"),
        "traced_wall_s": wall,
        "trace_overhead": (
            statistics.median(p.wall for p in passes)
            / statistics.median(untraced_walls)
        ),
        "failed_share": failed_share,
    }
    metrics["unattributed_s"] = wall - sum(metrics[k] for k in PARTITION)
    return metrics


# -- the run ------------------------------------------------------------------


def fallback_count(workload: Any, inputs: Any) -> int:
    """Runs the fast path refuses, asked before any timing starts."""
    return sum(
        1 for config in workload.configs(inputs)
        if config.fallback_reason() is not None
    )


def run(name: str, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    """One benchmark run; the result object the CLI prints."""
    with workdir() as path:
        workload = workload_named(name, path)
        inputs = workload.build(seed, Tracer(False))
        fallbacks = fallback_count(workload, inputs)
        checker = Checker(workload, inputs, seed, digests.expected(name, seed))
        if trace:
            walls, passes = traced(workload, seed, checker, seconds, path)
        else:
            metrics = end_to_end(workload, inputs, checker, seconds)
    for problem in checker.problems:
        print(f"perfbench: FAILED: {problem}", file=sys.stderr)
    failed_share = checker.failed / checker.attempted
    if trace:
        metrics = per_layer(
            walls, passes, workers=getattr(workload, "workers", 1),
            fallbacks=fallbacks, failed_share=failed_share,
        )
    return {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }
