"""Shared fixtures: small deterministic populations and request streams."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.clock import DAY, days
from repro.core.objects import ModificationSchedule, ObjectHistory, WebObject
from repro.core.server import OriginServer
from repro.fastpath import engine_preserved
from repro.verify import enabled_preserved


@pytest.fixture(autouse=True)
def pristine_process_settings():
    """Undo any engine override or oracle flag a test sets.

    Both are process-global (and mirrored into ``REPRO_ENGINE`` /
    ``REPRO_VERIFY`` for pool workers), so one test's ``--engine`` or
    ``--verify`` must not leak into the next — nor into a suite run
    under a pinned engine (the CI reference-engine leg exports
    ``REPRO_ENGINE=reference``).
    """
    with engine_preserved(), enabled_preserved():
        yield


def make_history(
    object_id: str = "/f",
    size: int = 1000,
    created: float = -30 * DAY,
    changes: tuple[float, ...] = (),
    file_type: str = "html",
    cacheable: bool = True,
    expires_after=None,
) -> ObjectHistory:
    """One object with an explicit modification schedule."""
    obj = WebObject(
        object_id=object_id,
        size=size,
        file_type=file_type,
        created=created,
        cacheable=cacheable,
        expires_after=expires_after,
    )
    return ObjectHistory(obj, ModificationSchedule(created, changes))


@pytest.fixture
def static_server() -> OriginServer:
    """Three objects that never change during the simulation window."""
    return OriginServer(
        [
            make_history("/a", size=1000),
            make_history("/b", size=2000),
            make_history("/c", size=4000, file_type="gif"),
        ]
    )


@pytest.fixture
def changing_server() -> OriginServer:
    """Objects with known in-window modification times.

    /hot changes on days 1, 2, 3; /warm changes once on day 10;
    /cold never changes.
    """
    return OriginServer(
        [
            make_history("/hot", size=1000,
                         changes=(days(1), days(2), days(3))),
            make_history("/warm", size=2000, changes=(days(10),)),
            make_history("/cold", size=4000),
        ]
    )


@pytest.fixture
def rng() -> np.random.Generator:
    """A fixed-seed generator for deterministic randomized tests."""
    return np.random.default_rng(12345)
