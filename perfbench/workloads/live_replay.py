"""``live-replay``: a CLF trace replayed through the live origin and proxy."""

from __future__ import annotations

import asyncio
from pathlib import Path
from typing import Any

from repro.core.protocols import InvalidationProtocol
from repro.core.results import result_to_dict
from repro.core.simulator import simulate
from repro.live.driver import run_replay
from repro.live.wire import LiveConnection
from repro.trace.reconstruct import workload_from_trace
from repro.trace.synthesis import read_trace, trace_from_workload, write_trace
from repro.workload.base import Workload
from repro.workload.campus import HCS, CampusWorkload

from perfbench.layers import Tracer, patched, timed
from perfbench.workloads.base import OPTIMIZED, Outcome, RunConfig, alex


class LiveReplay:
    """A synthesized HCS trace replayed through the live origin and proxy.

    The trace is written as CLF and parsed back, then replayed over
    loopback by a closed loop of two keep-alive connections, once under
    Alex 10% (the proxy polls with IMS requests) and once under
    invalidation (the origin's modification feed is pulled instead).
    """

    name = "live-replay"
    #: Each replay is also checked against the simulation of its trace.
    live = True
    scale = 0.1
    connections = 2
    protocols = (
        ("alex", alex(10)),
        ("invalidation", InvalidationProtocol),
    )

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir

    def build(self, seed: int, tracer: Tracer) -> Workload:
        with tracer.layer("workload.build"):
            synthetic = CampusWorkload(
                HCS, seed=seed, request_scale=self.scale
            ).build()
        path = self.workdir / f"hcs-{seed}.log"
        with tracer.layer("trace.clf_write"):
            write_trace(trace_from_workload(synthetic), path)
        with tracer.layer("trace.clf_parse"):
            trace = read_trace(path)
        path.unlink()
        with tracer.layer("trace.reconstruct"):
            return workload_from_trace(trace)

    def configs(self, inputs: Workload) -> list[RunConfig]:
        return [RunConfig(inputs, make) for _, make in self.protocols]

    def run(self, inputs: Workload, tracer: Tracer) -> Outcome:
        outcome = Outcome()

        def exchanged(seconds: float) -> None:
            outcome.latencies.append(seconds)
            tracer.add("live.exchange", seconds)

        request = timed(LiveConnection.request, exchanged)
        with patched(LiveConnection, "request", request):
            for label, make in self.protocols:
                trace_path = (
                    tracer.trace_dir / f"{label}.jsonl"
                    if tracer.enabled else None
                )
                with outcome.part(), tracer.layer("live.run_replay"):
                    report = asyncio.run(run_replay(
                        inputs.server(), make(), inputs.requests, OPTIMIZED,
                        end_time=inputs.duration,
                        connections=self.connections, keepalive=True,
                        trace_path=trace_path,
                    ))
                outcome.runs.append(result_to_dict(report.result))
                counters = report.result.counters
                tracer.add("live.hits", 0.0, counters.hits)
                tracer.add("live.requests", 0.0, counters.requests)
                if trace_path is not None:
                    tracer.live_traces.append(trace_path)
        return outcome

    def expected_runs(self, inputs: Workload) -> list[dict[str, Any]]:
        """What each replay must equal: the reference simulation."""
        return [config.simulate(simulate) for config in self.configs(inputs)]
