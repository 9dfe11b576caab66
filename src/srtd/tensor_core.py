"""Dense third-order tensor primitives.

A third-order tensor is a real float64 ``numpy.ndarray`` of shape
``(n1, n2, n3)`` in C order, so element (i, j, k) is ``a[i, j, k]``,
frontal slice k is the view ``a[:, :, k]`` and tube (i, j) is
``a[i, j, :]``. Every function here is pure: inputs are never mutated.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError

# The universal value type; always real.
Tensor3 = np.ndarray


def astensor3(a, name: str = "tensor") -> Tensor3:
    """Coerce ``a`` to a float64 array of exactly 3 dimensions."""
    out = np.asarray(a, dtype=np.float64)
    if out.ndim != 3:
        raise DimensionError(f"{name} must be a third-order tensor, got shape {out.shape}")
    return out


def ttranspose(a: Tensor3) -> Tensor3:
    """Tensor transpose: transpose each frontal slice, reverse slices 2..n3."""
    a = astensor3(a)
    n3 = a.shape[2]
    order = np.concatenate(([0], np.arange(n3 - 1, 0, -1)))
    return a.transpose(1, 0, 2)[:, :, order]


def fro_norm(a: Tensor3) -> float:
    """sqrt of the sum of squared entries."""
    return float(np.linalg.norm(np.asarray(a, dtype=np.float64).ravel()))


def l1_norm(a: Tensor3) -> float:
    """Sum of absolute entries."""
    return float(np.abs(np.asarray(a, dtype=np.float64)).sum())

