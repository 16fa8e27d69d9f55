#!/usr/bin/env python3
"""Compare two sets of benchmark runs against BENCHMARK.json's bounds.

    python3 perfbench/compare.py OLD.jsonl NEW.jsonl

Each file holds the result lines (the last stdout line of ``run.py``)
of several runs of one workload with ``--trace 0``.  For every
end-to-end metric the medians are compared: a metric whose new median
is worse than the old one by more than its bound is a regression.
Where the old runs' own spread (interquartile range over median) is
wider than the bound, the verdict is ``unresolved`` unless every new
run is better than every old run.  Exit status 1 when any metric
regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any

SPEC = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


@dataclass
class Verdict:
    """One metric's comparison."""

    metric: str
    old: float
    new: float
    #: Relative change in the metric's bad direction (>0 is worse).
    worse_by: float
    spread: float
    bound: float
    status: str  # "regressed", "unresolved" or "ok"


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def compare(
    old: list[dict[str, Any]],
    new: list[dict[str, Any]],
    spec: dict[str, Any],
) -> dict[str, Verdict]:
    """Verdicts for every end-to-end metric of ``spec``."""
    verdicts = {}
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        sign = 1.0 if metric["better"] == "lower" else -1.0
        old_values = [run["metrics"][name]["value"] for run in old]
        new_values = [run["metrics"][name]["value"] for run in new]
        old_median = statistics.median(old_values)
        new_median = statistics.median(new_values)
        worse_by = sign * (new_median - old_median) / old_median
        noise = spread(old_values)
        all_better = max(sign * v for v in new_values) < min(
            sign * v for v in old_values
        )
        if worse_by > bound:
            status = "regressed"
        elif noise > bound and not all_better:
            status = "unresolved"
        else:
            status = "ok"
        verdicts[name] = Verdict(
            name, old_median, new_median, worse_by, noise, bound, status
        )
    return verdicts


def _load(path: str) -> list[dict[str, Any]]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return [json.loads(line) for line in lines if line.strip()]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    verdicts = compare(_load(argv[0]), _load(argv[1]), spec)
    for v in verdicts.values():
        print(f"{v.metric:<18} {v.old:>14.6g} -> {v.new:<14.6g} "
              f"worse by {v.worse_by:+.1%} (bound {v.bound:.0%}, "
              f"spread {v.spread:.1%})  {v.status}")
    regressed = any(v.status == "regressed" for v in verdicts.values())
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
