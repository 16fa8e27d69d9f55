#!/usr/bin/env python3
"""Committed expected results: one digest per workload and seed.

A digest is the SHA-256 of every run of one unit of work — all
counters and ledger cells, in run order — so one string pins down
everything the program reports.  The committed digests are computed
under ``set_engine("reference")``, which makes the benchmark check the
fast path against an independent engine on every seed listed here.

Regenerate (from the repository root; takes a few minutes)::

    python3 perfbench/digests.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Any, Optional

DIGESTS = Path(__file__).with_name("digests.json")
#: The seeds with a committed digest; regenerating rewrites all of them.
SEEDS = range(32)


def digest(runs: list[dict[str, Any]]) -> str:
    """The digest of one unit's runs."""
    text = json.dumps(runs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def expected(workload: str, seed: int) -> Optional[str]:
    """The committed digest, or None when the seed has none."""
    table = json.loads(DIGESTS.read_text(encoding="utf-8"))
    return table.get(workload, {}).get(str(seed))


def main() -> int:
    from repro.fastpath import set_engine

    from perfbench.layers import Tracer
    from perfbench.workloads import NAMES, workdir, workload_named

    set_engine("reference")
    table: dict[str, dict[str, str]] = {}
    with workdir() as path:
        for name in NAMES:
            workload = workload_named(name, path)
            table[name] = {}
            for seed in SEEDS:
                inputs = workload.build(seed, Tracer(False))
                found = digest(workload.expected_runs(inputs))
                table[name][str(seed)] = found
                print(f"{name} seed {seed}: {found}", file=sys.stderr)
    DIGESTS.write_text(
        json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    ROOT = Path(__file__).resolve().parents[1]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    sys.exit(main())
