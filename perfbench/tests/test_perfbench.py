"""The benchmark's own tests: it must see a regression, attribute a
traced pass's wall time, separate the layers, and reject wrong output.

Run from the repository root (about a minute)::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import compare, measure  # noqa: E402
from perfbench.layers import Tracer  # noqa: E402
from perfbench.workloads import workload_named  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(workload: str, *, trace: int = 0, seconds: float = 0.0,
          env: dict[str, str] | None = None, cwd: Path = ROOT,
          expect_ok: bool = True) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
        env={**os.environ, **(env or {})},
    )
    if expect_ok:
        assert proc.returncode == 0, proc.stderr
    return proc


def result(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.splitlines()[-1])


def test_reference_engine_is_flagged_as_req_per_s_regression():
    """A gate that cannot see a 2x regression does not count as measured:
    the reference engine is several times slower than the fast path on
    paper-sweep, and the comparison must say so."""
    fast = result(bench("paper-sweep", seconds=2))
    slow = result(bench("paper-sweep", seconds=2,
                        env={"REPRO_ENGINE": "reference"}))
    assert fast["correct"] and slow["correct"]
    verdicts = compare.compare([fast], [slow], SPEC)
    assert verdicts["req_per_s"].status == "regressed"
    assert verdicts["req_per_s"].worse_by > 0.5


@pytest.mark.parametrize(
    "workload", ["paper-sweep", "reference-path", "live-replay"]
)
def test_traced_pass_is_attributed_and_layers_separate(workload):
    out = result(bench(workload, trace=1))
    metrics = {name: m["value"] for name, m in out["metrics"].items()}
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    wall = metrics["traced_wall_s"]
    attributed = sum(metrics[name] for name in measure.PARTITION)
    assert attributed + metrics["unattributed_s"] == pytest.approx(wall)
    assert 0.0 <= metrics["unattributed_s"] <= 0.05 * wall
    assert metrics["trace_overhead"] > 0.0
    runs = {
        "paper-sweep": metrics["fastpath.runs"],
        "reference-path": metrics["core.runs"],
        "live-replay": metrics["live.upstream.calls"],
    }
    for name, count in runs.items():
        assert (count > 0) == (name == workload), (name, count)
    if workload == "paper-sweep":
        assert metrics["fastpath.fallbacks"] == 0
        assert metrics["runtime.tasks"] > 0
    else:
        assert metrics["runtime.tasks"] == 0
    if workload == "reference-path":
        assert metrics["fastpath.fallbacks"] == metrics["core.runs"]


def test_a_wrong_result_is_counted_as_failed(tmp_path):
    workload = workload_named("reference-path", tmp_path)
    inputs = workload.build(0, Tracer(False))
    checker = measure.Checker(workload, inputs, 0, expected="0" * 64)
    checker.check(workload.run(inputs, Tracer(False)))
    assert checker.attempted == len(workload.configs(inputs))
    assert checker.failed == checker.attempted
    assert "committed" in checker.problems[0]


def test_a_run_failing_two_checks_is_counted_once(tmp_path):
    workload = workload_named("live-replay", tmp_path)
    inputs = workload.build(0, Tracer(False))
    checker = measure.Checker(workload, inputs, 0, expected="0" * 64)
    outcome = workload.run(inputs, Tracer(False))
    checker._reference = [
        {**run, "counters": {**run["counters"], "hits": -1}}
        for run in outcome.runs
    ]
    checker.check(outcome)
    assert len(checker.problems) == 1 + len(outcome.runs)
    assert checker.failed == checker.attempted == len(outcome.runs)


def test_setup_probe_imports_only_its_workload():
    """paper-sweep's setup_s must not pay for the live stack's or the
    trace parser's imports, nor for the benchmark's own measuring code."""
    script = (
        "import runpy, sys\n"
        "sys.argv = ['run.py', '--workload', 'paper-sweep', "
        "'--setup-only']\n"
        "try:\n"
        "    runpy.run_path('perfbench/run.py', run_name='__main__')\n"
        "except SystemExit:\n"
        "    pass\n"
        "print(sorted(m for m in sys.modules if m.startswith("
        "('repro.live', 'repro.trace', 'perfbench.measure'))))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("reference-path", cwd=tmp_path, expect_ok=False)
    assert proc.returncode != 0
    assert proc.stdout == ""
