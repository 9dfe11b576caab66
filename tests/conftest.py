"""Fixtures shared by the test modules."""

import pytest

from srtd import t_algebra


@pytest.fixture
def slice_threads(monkeypatch):
    """Set the slice-thread count with the returned function. The test gets a
    pool of its own, shut down when it ends."""
    monkeypatch.setattr(t_algebra, "_pool", None)

    def set_threads(n):
        monkeypatch.setattr(t_algebra, "_slice_threads", lambda: n)

    yield set_threads
    if t_algebra._pool is not None:
        t_algebra._pool.shutdown(wait=True)
