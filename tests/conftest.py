"""Fixtures shared by the test modules."""

import pytest

from srtd import t_algebra


@pytest.fixture
def slice_threads(monkeypatch):
    """Set the slice-thread count with the returned function."""

    def set_threads(n):
        monkeypatch.setattr(t_algebra, "_slice_threads", lambda: n)

    return set_threads
