"""Fixtures shared by the test modules."""

import pytest

from srtd import t_algebra


@pytest.fixture
def slice_threads(monkeypatch):
    """Set the slice-thread count with the returned function. The test gets a
    task queue and helper threads of its own, stopped when it ends."""
    monkeypatch.setattr(t_algebra, "_tasks", None)
    monkeypatch.setattr(t_algebra, "_helpers", ())

    def set_threads(n):
        monkeypatch.setattr(t_algebra, "_slice_threads", lambda: n)

    yield set_threads
    for _ in t_algebra._helpers:
        t_algebra._tasks.put(None)
    for thread in t_algebra._helpers:
        thread.join(timeout=30)
