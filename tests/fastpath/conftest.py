"""Shared fastpath fixtures: sample workloads.

The engine override each test may set is restored by the suite-wide
``pristine_process_settings`` fixture (tests/conftest.py).
"""

from __future__ import annotations

import pytest

from repro.workload.worrell import WorrellWorkload


@pytest.fixture(scope="module")
def workload():
    """A small deterministic workload shared by the identity tests."""
    return WorrellWorkload(files=40, requests=3000, seed=11).build()
