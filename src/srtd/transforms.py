"""The orthonormal 3-D DCT pair, the solver's sparsifying transform.

The DCT is the separable orthonormal DCT-II over all three modes with the
DCT-III inverse; it is unitary, which the solver relies on to move
least-squares terms between the pixel and coefficient domains. (The
t-product's mode-3 DFT lives in :mod:`srtd.t_algebra`.)

The DCT needs numpy only and runs one mode at a time. A mode of at most
``MATRIX_MAX_N`` entries is multiplied by a cached orthonormal DCT matrix.
A longer mode takes Makhoul's route (J. Makhoul, "A fast cosine transform in
one and two dimensions", IEEE TASSP 28(1), 1980): reorder the tube to its
even entries followed by its odd entries reversed, take a real FFT, and
rotate coefficient k by exp(-i pi k / 2n). Coefficient k is then the real
part and coefficient n - k minus the imaginary part of the same rotated
value. The inverse runs that route backwards through ``irfft``. Each mode
is transformed slab by slab into the result array, so the work buffers stay
in cache; ``dct3`` and ``idct3`` can write into a given array instead of a
new one, including their input. The slab buffers are not free on small
tensors: each slab's buffer is released before the next one is made, but
one slab of ``SLAB_ENTRIES`` entries is half of a 64x64x16 tensor, so a
call's own temporaries measured 0.25 tensor sizes on 64x64x32, 0.50 on
64x64x16 and 0.71 on 48x40x24.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import ParameterError
from .tensor_core import Tensor3, astensor3

# Longest mode that takes the DCT-matrix kernel; longer modes take the FFT
# route. Timed on one core with one OpenBLAS thread, on ~110k-entry tensors
# with the mode in each of the three positions, the matrix kernel was 12-48%
# faster at 112-128, within 12% at 144-176 and 39-67% slower at 256.
MATRIX_MAX_N = 128

# Entries per slab. Modes are transformed in place in the result, slab by
# slab, so the work buffers stay in cache (256 KiB at 2^15 entries) and no
# second full-size array is allocated; 2^13 and 2^16 were slower on
# 256x256x3.
SLAB_ENTRIES = 1 << 15


@functools.lru_cache(maxsize=64)
def _dct_matrix(n: int) -> np.ndarray:
    """Read-only orthonormal DCT-II matrix, C[k, j] = s_k cos(pi k (2j+1) / 2n).

    The angle is reduced exactly, k(2j+1) mod 4n, before the cosine: the
    cosine of the raw argument, up to about pi n / 2, is off by ~1e-13."""
    k = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    c = np.cos(np.pi * ((k * (2 * j + 1)) % (4 * n)) / (2 * n))
    c[0] *= np.sqrt(1.0 / n)
    c[1:] *= np.sqrt(2.0 / n)
    c.flags.writeable = False
    return c


@functools.lru_cache(maxsize=64)
def _twiddles(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only rotations s_k exp(-i pi k / 2n), k = 0..n//2, with the
    orthonormal scale s_k folded in, and their reciprocals."""
    t = np.sqrt(2.0 / n) * np.exp(-0.5j * np.pi * np.arange(n // 2 + 1) / n)
    t[0] = np.sqrt(1.0 / n)
    inv = 1.0 / t
    t.flags.writeable = inv.flags.writeable = False
    return t, inv


def slabs(shape, cut: int = 0, least: int = 1) -> list:
    """Slices that cut axis ``cut`` of an array of ``shape`` into slabs of
    about ``SLAB_ENTRIES`` entries, and of at least ``least`` indices each
    where the axis is that long: a shorter last slab joins the one before."""
    n = shape[cut]
    row = math.prod(shape[:cut] + shape[cut + 1:])
    step = max(least, SLAB_ENTRIES // max(1, row))
    lows = list(range(0, n, step))
    if len(lows) > 1 and n - lows[-1] < least:
        del lows[-1]
    return [slice(lo, hi) for lo, hi in zip(lows, lows[1:] + [n])]


def _matmul_along(c, s, out, axis: int) -> None:
    """out = c applied along ``axis`` of s, as one matrix product where the
    mode is the first or last axis."""
    n = s.shape[axis]
    if axis == 0:
        np.matmul(c, s.reshape(n, -1), out=out.reshape(n, -1))
    elif axis == 1:
        np.matmul(c, s, out=out)
    else:
        np.matmul(s.reshape(-1, n), c.T, out=out.reshape(-1, n))


def _matrix_mode(src, dst, c, axis: int) -> None:
    """dst = c applied along ``axis`` of src; when dst is src, slab by slab
    through a slab-sized buffer."""
    if src is not dst:
        _matmul_along(c, src, dst, axis)
        return
    for sl in slabs(src.shape, 1 if axis == 0 else 0):
        s = src[:, sl] if axis == 0 else src[sl]
        tmp = np.empty(s.shape)
        _matmul_along(c, s, tmp, axis)
        s[...] = tmp
        del tmp  # not held while the next slab's is made


def _fft_mode(src, dst, axis: int, inverse: bool) -> None:
    """dst = orthonormal DCT-II (DCT-III if ``inverse``) of src along
    ``axis`` by Makhoul's route, slab by slab; dst may be src.

    Within a slab the reordered tubes are stored along the first axis for
    mode 1 and along the last axis for modes 2 and 3, where the FFT then
    runs over contiguous memory."""
    n = src.shape[axis]
    h, m = (n + 1) // 2, n // 2
    last = axis != 0
    t = _twiddles(n)[inverse]
    t = t if last else t.reshape(-1, 1, 1)
    # tubes of ``axis`` along the first axis of these views, slabs along the second
    sv_all, dv_all = np.moveaxis(src, axis, 0), np.moveaxis(dst, axis, 0)
    rest = sv_all.shape[2]
    for sl in slabs(src.shape, 1 if axis == 0 else 0):
        sv, dv = sv_all[:, sl], dv_all[:, sl]
        b = sv.shape[1]
        if inverse:
            w = np.empty((b, rest, m + 1) if last else (m + 1, b, rest), np.complex128)
            wv = w.transpose(2, 0, 1) if last else w
            wv.real = sv[:m + 1]
            wv.imag[0] = 0.0
            np.negative(sv[n - 1:n - m - 1:-1], out=wv.imag[1:])
            w *= t
            tmp = np.fft.irfft(w, n=n, axis=-1 if last else 0)
            tv = tmp.transpose(2, 0, 1) if last else tmp
            dv[0::2] = tv[:h]
            dv[1::2] = tv[h:][::-1]
        else:
            tmp = np.empty((b, rest, n) if last else (n, b, rest))
            tv = tmp.transpose(2, 0, 1) if last else tmp
            tv[:h] = sv[0::2]
            tv[h:] = sv[1::2][::-1]
            w = np.fft.rfft(tmp, axis=-1 if last else 0)
            w *= t
            wv = w.transpose(2, 0, 1) if last else w
            dv[:m + 1] = wv.real
            np.negative(wv.imag[h - 1:0:-1], out=dv[m + 1:])
        del w, wv, tmp, tv  # not held while the next slab's are made


def _check_out(a: Tensor3, out: Tensor3) -> None:
    # the kernels write whole modes through reshaped views of out, which a
    # non-contiguous out would turn into copies; the in-place route
    # recognizes out by identity, so any other overlap is refused
    if (out.shape != a.shape or out.dtype != np.float64 or not out.flags.c_contiguous
            or (out is not a and np.may_share_memory(a, out))):
        raise ParameterError("out must be a C-contiguous float64 array of the input's shape "
                             "that is the input itself or does not overlap it")


def _dct3(a, inverse: bool, out=None) -> Tensor3:
    a = astensor3(a)
    if out is None:
        out = np.empty(a.shape)
    else:
        _check_out(a, out)
    if out.size == 0:
        return out
    src = a
    for axis in (2, 1, 0):
        n = a.shape[axis]
        if n <= MATRIX_MAX_N:
            c = _dct_matrix(n)
            _matrix_mode(src, out, c.T if inverse else c, axis)
        else:
            _fft_mode(src, out, axis, inverse)
        src = out
    return out


def dct3(a: Tensor3, out: Tensor3 | None = None) -> Tensor3:
    """Orthonormal DCT-II along modes 1, 2, 3 (the sparsifying transform).

    With ``out``, a C-contiguous float64 array of ``a``'s shape that is
    either ``a`` itself or does not overlap it, the result is written there
    instead of into a new array; with ``out=a`` the transform runs in place
    and gives the same bits as the allocating call."""
    return _dct3(a, inverse=False, out=out)


def idct3(e: Tensor3, out: Tensor3 | None = None) -> Tensor3:
    """Inverse of :func:`dct3`; ``out`` as for :func:`dct3`."""
    return _dct3(e, inverse=True, out=out)
