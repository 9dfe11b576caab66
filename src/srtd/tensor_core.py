"""Dense third-order tensor primitives.

A third-order tensor is a real float64 ``numpy.ndarray`` of shape
``(n1, n2, n3)`` in C order, so element (i, j, k) is ``a[i, j, k]``,
frontal slice k is the view ``a[:, :, k]`` and tube (i, j) is
``a[i, j, :]``. Every function here is pure: inputs are never mutated.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, ParameterError

# The universal value type; always real.
Tensor3 = np.ndarray


def astensor3(a, name: str = "tensor") -> Tensor3:
    """Coerce ``a`` to a float64 array of exactly 3 dimensions."""
    out = np.asarray(a, dtype=np.float64)
    if out.ndim != 3:
        raise DimensionError(f"{name} must be a third-order tensor, got shape {out.shape}")
    return out


def check_mask(omega, shape) -> np.ndarray:
    """``omega`` as an array; ParameterError unless boolean, DimensionError unless ``shape``."""
    omega = np.asarray(omega)
    if omega.dtype != np.bool_:
        raise ParameterError(f"omega must be a boolean array, got dtype {omega.dtype}")
    if omega.shape != shape:
        raise DimensionError(f"omega shape {omega.shape} does not match tensor shape {shape}")
    return omega


def fro_norm(a: Tensor3) -> float:
    """sqrt of the sum of squared entries."""
    return float(np.linalg.norm(np.asarray(a, dtype=np.float64).ravel()))
