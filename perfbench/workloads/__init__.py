"""The benchmark's three workloads, one module each.

Each workload builds its inputs from the seed (``build``), lists every
simulation it will perform in run order (``configs``, used for engine
accounting and reference re-checks), runs one unit of work (``run``),
and computes the results that unit must reproduce with the reference
engine (``expected_runs``).  The workloads are chosen to separate
layers: ``paper-sweep`` is all fast-path kernel and process pool,
``reference-path`` never touches either, and ``live-replay`` is
sockets, proxy and origin with no kernel at all (README.md).

:func:`workload_named` imports only the chosen workload's module, so
the set-up probe (:func:`ready_time`) pays for that workload's imports
and no other's.
"""

from __future__ import annotations

import importlib
import os
import shutil
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

from perfbench.layers import Tracer

ROOT = Path(__file__).resolve().parents[2]

#: ``--workload`` name -> (module in this package, class).
_CLASSES = {
    "paper-sweep": ("paper_sweep", "PaperSweep"),
    "reference-path": ("reference_path", "ReferencePath"),
    "live-replay": ("live_replay", "LiveReplay"),
}
NAMES = tuple(_CLASSES)


def workload_named(name: str, workdir: Path) -> Any:
    """The workload object for a ``--workload`` name."""
    if name not in _CLASSES:
        raise ValueError(f"unknown workload {name!r}")
    module, cls = _CLASSES[name]
    return getattr(importlib.import_module(f"{__name__}.{module}"), cls)(
        workdir
    )


@contextmanager
def workdir() -> Iterator[Path]:
    """A private scratch directory inside the checkout, removed after."""
    parent = ROOT / ".perfbench-work"
    path = parent / str(os.getpid())
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            parent.rmdir()
        except OSError:
            pass


def ready_time(name: str, seed: int) -> float:
    """Build the inputs in this process; the clock reading when done.

    ``time.monotonic`` is one system-wide clock on Linux, so the parent
    can subtract its own reading taken just before spawning us.
    """
    with workdir() as path:
        workload_named(name, path).build(seed, Tracer(False))
        return time.monotonic()
