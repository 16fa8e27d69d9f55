#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload paper-sweep --seed 0 \\
        --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json and
``--trace 1`` the per-layer ones, each as ``{"value": ..., "unit": ...}``.
The last line of standard output is ``{"correct", "attempted",
"failed", "metrics"}``; the exit status is non-zero when any output
was wrong.  README.md in this directory describes the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = ROOT / "BENCHMARK.json"
WORKLOADS = ("paper-sweep", "reference-path", "live-replay")


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be non-negative")
    return value


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=_seed, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="build the inputs, print the monotonic clock and exit "
             "(how setup_s is timed from a fresh process)",
    )
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir() or not SPEC.is_file():
        print("perfbench: needs src/repro and BENCHMARK.json beside "
              "perfbench/", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    if args.setup_only:
        # Imports the selected workload's layers and nothing else.
        from perfbench.workloads import ready_time

        print(ready_time(args.workload, args.seed))
        return 0
    from perfbench import measure

    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    result = measure.run(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    result["metrics"] = {
        metric["name"]: {
            "value": result["metrics"][metric["name"]],
            "unit": metric["unit"],
        }
        for metric in wanted
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
