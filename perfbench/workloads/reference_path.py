"""``reference-path``: serial runs the fast path refuses."""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable, Optional

from repro.core.clock import hours
from repro.core.hierarchy import HierarchySimulation, drive_workload
from repro.core.protocols import (
    InvalidationProtocol,
    LeasedInvalidationProtocol,
)
from repro.core.protocols.adaptive import SelfTuningProtocol
from repro.fastpath import COUNTER_FIELDS
from repro.faults import FaultPlan
from repro.runtime import derive_seed
from repro.verify.oracle import checked_simulate
from repro.workload.campus import build_campus_workloads
from repro.workload.microsoft import MicrosoftProxyWorkload

from perfbench.layers import Tracer
from perfbench.workloads.base import Outcome, RunConfig, alex, worrell

#: Ledger tables a hierarchy node's uplink records.
_LEDGER_TABLES = ("control_bytes", "body_bytes", "exchanges")


def hierarchy_record(sim: HierarchySimulation) -> dict[str, Any]:
    """Every node's counters and uplink ledger, root first."""
    nodes = [sim.root, *sim.leaves.values()]
    return {
        "hierarchy": [
            {
                "name": node.name,
                "counters": {
                    name: getattr(node.counters, name)
                    for name in COUNTER_FIELDS
                },
                "uplink": {
                    table: dict(getattr(node.uplink, table))
                    for table in _LEDGER_TABLES
                },
            }
            for node in nodes
        ],
        "total_bytes": sim.total_bytes(),
        "hop_weighted_bytes": sim.hop_weighted_bytes(),
        "message_count": sim.message_count(),
    }


class HierarchyRun(RunConfig):
    """A two-level :func:`~repro.core.hierarchy.drive_workload` run."""

    def fallback_reason(self) -> Optional[str]:
        return "two-level hierarchy: no fast-path entry point"

    def simulate(self, simulate_fn: Callable[..., Any]) -> dict[str, Any]:
        wl = self.workload
        return hierarchy_record(drive_workload(
            wl.server(), self.make_protocol, wl.requests,
            clients=wl.clients, end_time=wl.duration,
        ))


class ReferencePath:
    """Serial runs of configurations the fast path refuses.

    Worrell under invalidation and leased invalidation with a
    loss+retry fault plan (the ext-faults setup), SelfTuning on the
    campus traces, a bounded LRU cache on a Microsoft proxy weekday
    (the capacity-planning example), and a two-level hierarchy on
    Worrell.  Runs go through ``checked_simulate``, so a later change
    that compiles one of these into the kernel shows up here as an
    engine change.
    """

    name = "reference-path"
    live = False
    scale = 0.25
    microsoft_requests = 15_000
    #: LRU capacity as a share of the cacheable population's bytes.
    lru_share = 0.15

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
            microsoft = MicrosoftProxyWorkload(
                sites=20, files_per_site=80,
                requests=self.microsoft_requests, seed=seed,
            ).build()
        plan = FaultPlan(
            loss_rate=0.5, retries=3, backoff=300.0,
            seed=derive_seed(seed, 0),
        )
        return {
            "worrell": base, "campus": campus, "microsoft": microsoft,
            "plan": plan,
        }

    def configs(self, inputs: dict[str, Any]) -> list[RunConfig]:
        base = inputs["worrell"]
        microsoft = inputs["microsoft"]
        plan = inputs["plan"]
        population = sum(
            h.obj.size for h in microsoft.histories if h.obj.cacheable
        )
        faults = "core.simulate.faults"
        return [
            RunConfig(base, InvalidationProtocol, faults=plan, layer=faults),
            RunConfig(base, lambda: LeasedInvalidationProtocol(hours(24)),
                      faults=plan, layer=faults),
            *(
                RunConfig(wl, SelfTuningProtocol,
                          layer="core.simulate.selftuning")
                for wl in inputs["campus"]
            ),
            RunConfig(microsoft, alex(20),
                      capacity=max(1, int(population * self.lru_share)),
                      layer="core.simulate.bounded_lru"),
            HierarchyRun(base, alex(10), layer="core.hierarchy"),
        ]

    def run(self, inputs: dict[str, Any], tracer: Tracer) -> Outcome:
        outcome = Outcome()
        for config in self.configs(inputs):
            with outcome.part(), tracer.layer(config.layer):
                outcome.runs.append(config.simulate(checked_simulate))
            outcome.latencies.append(outcome.parts[-1][0])
        return outcome

    def expected_runs(self, inputs: dict[str, Any]) -> list[dict[str, Any]]:
        """The unit's runs; call under ``set_engine("reference")``."""
        return self.run(inputs, Tracer(False)).runs
