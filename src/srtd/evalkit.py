"""Observation masks and PSNR evaluation.

A mask is a boolean tensor with the same shape as the data, True marking an
observed entry. Two PSNR conventions are provided: the conventional one
(mode="standard", squared-error MSE over all entries) and a literal variant
(mode="paper") whose MSE is the unsquared Frobenius norm of the error
restricted to the missing set divided by the total entry count. Both report
10*log10(255^2 / MSE) and return inf when the error vanishes.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import DimensionError, FormatError, ParameterError
from .pnm import load_image
from .tensor_core import Tensor3, astensor3, check_mask

ObservationMask = np.ndarray

PEAK = 255.0


def random_mask(dims, sr: float, seed: int) -> ObservationMask:
    """Uniform random mask with exactly round(sr * total) observed entries."""
    dims = tuple(int(d) for d in dims)
    if len(dims) != 3 or min(dims) < 1:
        raise DimensionError(f"dims must be three positive ints, got {dims}")
    if not 0.0 < sr <= 1.0:
        raise ParameterError(f"sampling rate must lie in (0, 1], got {sr}")
    # numpy's generators raise ValueError on a negative seed, and take a bool
    if isinstance(seed, bool) or not (isinstance(seed, numbers.Integral) and seed >= 0):
        raise ParameterError(f"seed must be an integer >= 0, got {seed!r}")
    total = dims[0] * dims[1] * dims[2]
    count = int(round(sr * total))
    rng = np.random.default_rng(seed)
    flat = np.zeros(total, dtype=bool)
    flat[rng.choice(total, size=count, replace=False)] = True
    return flat.reshape(dims)


def mask_from_image(path, depth: int = 1) -> ObservationMask:
    """Mask from a graymap: nonzero pixels are missing (text), zero pixels
    are observed. The 2-D pattern is replicated across ``depth`` slices."""
    if depth < 1:
        raise ParameterError(f"depth must be >= 1, got {depth}")
    img = load_image(path)
    if img.shape[2] != 1:
        raise FormatError(f"mask file {path} must be a graymap (P5), got a color pixmap")
    observed = img[:, :, 0] == 0
    return np.repeat(observed[:, :, None], depth, axis=2)


def psnr(x_rec: Tensor3, m: Tensor3, omega: ObservationMask | None = None,
         mode: str = "standard") -> float:
    """Peak signal-to-noise ratio against peak 255.

    mode="standard": MSE = ||x_rec - m||_F^2 / T over all T entries.
    mode="paper":    MSE = ||(x_rec - m) restricted to the missing set||_F / T
                     (unsquared norm, missing-set numerator, total-count
                     denominator); requires ``omega``, a boolean mask.
    Returns math.inf when the measured error is exactly zero.
    """
    x_rec = astensor3(x_rec, "x_rec")
    m = astensor3(m, "m")
    if x_rec.shape != m.shape:
        raise DimensionError(f"shape mismatch: {x_rec.shape} vs {m.shape}")
    total = m.size
    if mode == "standard":
        mse = float(np.sum((x_rec - m) ** 2)) / total
    elif mode == "paper":
        if omega is None:
            raise ParameterError("mode='paper' needs the observation mask")
        omega = check_mask(omega, m.shape)
        mse = float(np.linalg.norm((x_rec - m)[~omega])) / total
    else:
        raise ParameterError(f"mode must be 'standard' or 'paper', got {mode!r}")
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(PEAK * PEAK / mse)
