"""Fixtures shared by the test modules, and the warnings that fail them."""

import pytest

from srtd import t_algebra

try:
    from numpy.exceptions import ComplexWarning
except ImportError:  # numpy < 1.25 has it at the top level only
    from numpy import ComplexWarning


def pytest_configure(config):
    # a complex value cast to a real array drops its imaginary part; that
    # fails the test that did it. ComplexWarning is a RuntimeWarning, which
    # pyproject.toml already makes an error; this line keeps it one should
    # that filter be narrowed
    config.addinivalue_line(
        "filterwarnings", f"error::{ComplexWarning.__module__}.{ComplexWarning.__name__}")


@pytest.fixture
def slice_threads(monkeypatch):
    """Set the slice-thread count with the returned function."""

    def set_threads(n):
        monkeypatch.setattr(t_algebra, "_slice_threads", lambda: n)

    return set_threads
