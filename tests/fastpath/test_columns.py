"""Request columns: encoded once per workload, reused by every run.

``Workload.columns()`` validates and encodes the request stream once —
times, dense object indices, and each request's object version — and
the fast path then runs on the columns without encoding again.  Runs on
columns must equal the reference exactly, raise the reference's errors
before any event, and a pool sweep must encode each workload once, in
the parent, before it forks.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.analysis.sweep import sweep_alex
from repro.core.clock import days, hours
from repro.core.protocols import TTLProtocol
from repro.core.server import UnknownObjectError
from repro.core.simulator import Simulation, SimulatorMode, simulate
from repro.fastpath import (
    RequestColumns,
    compile_server,
    diff_events,
    diff_metrics,
    diff_results,
    encode_requests,
    fast_simulate,
    initial_state,
    set_engine,
)
from repro.fastpath import dispatch as fastpath_dispatch
from repro.obs import registry as obs_registry
from repro.obs import trace as obs_trace
from repro.workload.base import Workload
from repro.workload.worrell import WorrellWorkload

from tests.conftest import make_history
from .test_identity import PROTOCOLS


def _workload(requests, duration=days(5)):
    return Workload(
        histories=[
            make_history("/hot", changes=(days(1), days(2), days(3))),
            make_history("/cold"),
        ],
        requests=requests,
        duration=duration,
    )


def _raised(fn):
    with pytest.raises((ValueError, KeyError)) as info:
        fn()
    return info.value


class TestColumns:
    def test_iterates_as_the_original_pairs(self, workload):
        columns = workload.columns()
        assert isinstance(columns, RequestColumns)
        assert columns.pairs is workload.requests
        assert list(columns) == workload.requests
        assert len(columns) == len(workload.requests)

    def test_encoded_once(self):
        wl = _workload([(days(0.5), "/hot"), (days(1.5), "/cold")])
        assert wl.columns() is wl.columns()

    def test_versions_are_the_object_version_at_request_time(self):
        wl = _workload([
            (days(0.5), "/hot"), (days(1.0), "/hot"), (days(2.5), "/hot"),
            (days(4.0), "/hot"), (days(4.0), "/cold"),
        ])
        columns = wl.columns()
        assert columns.compiled is compile_server(wl.server())
        assert columns.objs == [0, 0, 0, 0, 1]
        # bisect_right: a request at a modification instant sees it.
        assert columns.versions == [0, 1, 2, 3, 0]
        assert all(
            a is b for a, (b, _) in zip(columns.times, wl.requests)
        )


class TestErrorParity:
    """Reference message, raised before the fast path emits any event."""

    def test_out_of_order_stream(self):
        server = _workload([]).server()
        requests = [(days(2.0), "/hot"), (days(1.0), "/cold")]
        ref = _raised(lambda: simulate(server, TTLProtocol(hours(1)),
                                       requests))
        with pytest.raises(ValueError) as encoded:
            encode_requests(compile_server(server), requests, float("-inf"))
        events: list = []
        fast = _raised(lambda: fast_simulate(
            server, TTLProtocol(hours(1)), requests,
            observer=lambda *e: events.append(e),
        ))
        assert str(encoded.value) == str(fast) == str(ref)
        assert type(fast) is type(ref)
        assert events == []

    def test_unknown_object(self):
        wl = _workload([(days(0.5), "/hot"), (days(1.0), "/nope")])
        ref = _raised(lambda: simulate(wl.server(), TTLProtocol(hours(1)),
                                       wl.requests))
        assert isinstance(ref, UnknownObjectError)
        with pytest.raises(UnknownObjectError) as columns:
            wl.columns()
        assert str(columns.value) == str(ref)

    def test_reused_columns_with_later_start_time(self):
        wl = _workload([(days(0.5), "/hot"), (days(1.5), "/cold")])
        columns = wl.columns()
        start = days(1.0)
        ref = _raised(lambda: simulate(
            wl.server(), TTLProtocol(hours(1)), wl.requests,
            start_time=start,
        ))
        events: list = []
        fast = _raised(lambda: fast_simulate(
            wl.server(), TTLProtocol(hours(1)), columns, start_time=start,
            observer=lambda *e: events.append(e),
        ))
        assert type(fast) is type(ref) is ValueError
        assert str(fast) == str(ref)
        assert events == []

    def test_reused_columns_with_start_time_at_first_request(self):
        wl = _workload([(days(1.5), "/hot"), (days(2.5), "/hot")])
        ref = simulate(wl.server(), TTLProtocol(hours(1)), wl.requests,
                       start_time=days(1.5), end_time=wl.duration)
        fast = fast_simulate(wl.server(), TTLProtocol(hours(1)),
                             wl.columns(), start_time=days(1.5),
                             end_time=wl.duration)
        assert diff_results(fast, ref) == []


def _reference(workload, make_protocol, mode, preload, events):
    return Simulation(
        workload.server(), make_protocol(), mode, preload=preload,
        observer=lambda *e: events.append(e),
    ).run(workload.requests, end_time=workload.duration)


def _fast(workload, make_protocol, mode, preload, events):
    return fast_simulate(
        workload.server(), make_protocol(), workload.columns(), mode,
        preload=preload, end_time=workload.duration,
        observer=lambda *e: events.append(e),
    )


class TestIdentityOnColumns:
    @pytest.mark.parametrize(
        "name,make_protocol", PROTOCOLS, ids=[n for n, _ in PROTOCOLS]
    )
    @pytest.mark.parametrize("mode", list(SimulatorMode),
                             ids=[m.value for m in SimulatorMode])
    @pytest.mark.parametrize("preload", [True, False],
                             ids=["preload", "cold"])
    def test_matches_reference(
        self, workload, name, make_protocol, mode, preload
    ):
        ref_events: list = []
        fast_events: list = []
        reference = _reference(workload, make_protocol, mode, preload,
                               ref_events)
        fast = _fast(workload, make_protocol, mode, preload, fast_events)
        assert diff_results(fast, reference) == []
        assert diff_events(fast_events, ref_events) == []

    @pytest.mark.parametrize(
        "name,make_protocol", PROTOCOLS, ids=[n for n, _ in PROTOCOLS]
    )
    def test_metrics_and_trace_match_reference(
        self, workload, name, make_protocol
    ):
        dumps = []
        sinks = []
        for run in (_reference, _fast):
            registry = obs_registry.MetricsRegistry()
            sink = obs_trace.TraceSink()
            with obs_registry.installed(registry), \
                    obs_trace.installed(sink):
                run(workload, make_protocol, SimulatorMode.OPTIMIZED,
                    True, [])
            dumps.append(registry.as_dict())
            sinks.append(sink.events())
        assert diff_metrics(dumps[1], dumps[0]) == []
        assert sinks[1] == sinks[0]
        assert sinks[0]


class TestPreloadedState:
    def test_each_run_gets_an_independent_copy(self, changing_server):
        compiled = compile_server(changing_server)
        first = initial_state(compiled, 0.0, True)
        second = initial_state(compiled, 0.0, True)
        assert first.resident is not second.resident
        assert first.version == second.version
        first.valid[0] = False
        assert initial_state(compiled, 0.0, True).valid[0] is True
        assert 0.0 in compiled.preloaded

    def test_start_time_selects_the_state(self, changing_server):
        compiled = compile_server(changing_server)
        early = initial_state(compiled, 0.0, True)
        late = initial_state(compiled, days(2.5), True)
        assert early.version[0] == 0
        assert late.version[0] == 2


class TestSweepEncodesOncePerWorkload:
    def test_pool_workers_never_encode(self, tmp_path, monkeypatch):
        set_engine("fast")
        log = tmp_path / "calls"
        parent = os.getpid()

        def logged(name, fn):
            def wrapper(*args, **kwargs):
                with Path(log).open("a", encoding="utf-8") as out:
                    out.write(f"{name} {os.getpid()}\n")
                return fn(*args, **kwargs)
            return wrapper

        for name in ("encode_requests", "run_kernel"):
            monkeypatch.setattr(
                fastpath_dispatch, name,
                logged(name, getattr(fastpath_dispatch, name)),
            )
        workloads = [
            WorrellWorkload(files=20, requests=400, seed=seed).build()
            for seed in (1, 2)
        ]
        sweep_alex(workloads, SimulatorMode.OPTIMIZED, (0, 50), workers=2)
        calls = [line.split() for line in log.read_text().splitlines()]
        encodes = [int(pid) for name, pid in calls if name == "encode_requests"]
        kernels = [int(pid) for name, pid in calls if name == "run_kernel"]
        assert encodes == [parent, parent]
        assert len(kernels) == 3 * len(workloads)
        assert parent not in kernels
