"""t-product algebra: the tensor singular value thresholding operator, with
a partial form that leaves each frequency slice's leading singular values
unshrunk, and the mode-3 DFT pair it runs on.

Everything is computed in the mode-3 Fourier domain, where the SVT is an
SVT per frequency slice (complex, except on the slices that are exactly
real). It shrinks a slice through the eigendecomposition of its smaller
Gram matrix when that is exact to rounding (``GRAM_COND``), and through
the slice's SVD otherwise. Real input has a conjugate-symmetric spectrum,
so only the first ``n3 // 2 + 1`` slices are ever touched: ``_spectrum``
and ``_from_spectrum`` (rfft/irfft) are the library's only mode-3 DFT
pair. They hold the spectrum as one (n1, n2) array per frequency, real
for the zero-frequency and Nyquist slices, and build and invert it block
by block of rows, so that no full-size complex array is made; tubes up to
``DFT_MATRIX_MAX_N`` long as products with a real DFT matrix, which beats
numpy's FFT on them, longer ones by the FFT. ``svt`` writes each block of
rows' rfft over the rows it read, in the layout of ``_row_slices``: row i
of the buffer holds row i of every frequency slice, complex slices first,
so each slice is a strided view and no separate spectrum is held. It
shrinks each slice there, with at most two slice-sized matrices beside
it. The buffer is a copy of its argument, or, given an array to write the
result over, such as the previous iterate, the argument itself, which the
solver no longer needs; the call then returns how far that array moved.

``svt`` shrinks its slices independently, on the calling thread and on
helper threads that each call starts and joins (``_each_slice``), with
the CPUs that BLAS leaves free (``_slice_threads``); with no BLAS thread
count set, on the calling thread alone. Results do not depend on the
number of slice threads.
"""

from __future__ import annotations

import functools
import math
import os
import threading

import numpy as np

from .errors import DimensionError, ParameterError
from .tensor_core import Tensor3, astensor3
from .transforms import slabs

# Largest ||A||_F / tau for which svt shrinks slice A from its Gram matrix.
# Squaring A squares its condition: the shrunk singular values carry an
# error of about eps * sigma_1 / tau, so past this ratio the SVD is used.
GRAM_COND = 1e4

# Longest tube whose mode-3 rfft and irfft are products with a real DFT
# matrix; longer ones take numpy's FFT, tube by tube. On 256x256x3 the pair
# took 0.3 and 0.8 ms against the FFT's 1.6 and 2.3 (one OpenBLAS thread).
# The product is faster up to about 48, but from 16 on OpenBLAS sums some
# tubes in an order that depends on the block's number of rows.
DFT_MATRIX_MAX_N = 15

# BLAS thread counts, in the order the first positive one is taken.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                     "BLIS_NUM_THREADS")


def _slice_threads() -> int:
    """Threads that shrink ``svt``'s slices at once: the CPUs this process
    may run on, divided by the BLAS threads of each call. BLAS threads come
    from the first of ``_BLAS_THREAD_VARS`` that holds a positive integer;
    with none set, BLAS is taken to use every CPU, and the slices run on
    one thread."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    for name in _BLAS_THREAD_VARS:
        try:
            blas = int(os.environ.get(name, ""))
        except ValueError:
            continue
        if blas > 0:
            return max(1, cpus // blas)
    return 1


def _each_slice(fn, n: int) -> None:
    """Run ``fn(i)`` for i in range(n), on the calling thread and on up to
    ``_slice_threads() - 1`` helper threads at once.

    The helpers are started by this call and joined before it returns, so
    no ``fn`` runs, and no helper is alive, once it has returned. The caller
    and the helpers take slices from one shared iterator. If ``fn`` raises,
    on any thread, no further slice is started and the first of its
    exceptions is raised here.
    """
    threads = min(_slice_threads(), n)
    if threads <= 1:
        for i in range(n):
            fn(i)
        return
    slices = iter(range(n))
    lock = threading.Lock()
    errors = []

    def drain():
        while True:
            with lock:
                # after a failure no further slice is started
                i = None if errors else next(slices, None)
            if i is None:
                return
            try:
                fn(i)
            except BaseException as err:  # raised on the calling thread below
                errors.append(err)

    helpers = [threading.Thread(target=drain, name="srtd-slice", daemon=True)
               for _ in range(threads - 1)]
    for thread in helpers:
        thread.start()
    drain()
    for thread in helpers:
        thread.join()
    if errors:
        raise errors[0]


@functools.lru_cache(maxsize=64)
def _dft_matrices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only real matrices of the rfft of n-long tubes, tubes @ f, with
    real and imaginary parts interleaved, and of the irfft of such spectra,
    @ g, which ignores the imaginary parts of the zero-frequency and
    Nyquist terms as numpy's does. Angles are reduced exactly first."""
    k = np.arange(n // 2 + 1)
    angle = 2.0 * np.pi * (np.arange(n)[:, None] * k % n) / n
    real = k == 0 if n % 2 else (k == 0) | (2 * k == n)
    f = np.stack([np.cos(angle), np.where(real, 0.0, -np.sin(angle))], axis=2)
    g = f.transpose(1, 2, 0) * np.where(real, 1.0 / n, 2.0 / n)[:, None, None]
    f, g = f.reshape(n, -1), g.reshape(-1, n)
    f.flags.writeable = g.flags.writeable = False
    return f, g


def _spectrum(a: Tensor3, out: list | None = None) -> list:
    """The rfft of ``a`` along mode 3 as its ``n3 // 2 + 1`` frequency
    slices, each a contiguous (n1, n2) array of its own. The zero-frequency
    slice, and the Nyquist slice when n3 is even, are exactly real and are
    held as real arrays: real factorizations are about twice as fast and
    attach no unit phases to the factors. The rfft runs block by block of
    two rows or more, so no full-size complex array is made; a tube's rfft
    does not depend on its block. With ``out``, a list of (n1, n2) arrays
    or views, the slices are written there, block by block into the rows
    that block read: ``out`` may be ``_row_slices(a)``."""
    n1, n2, n3 = a.shape
    nf = n3 // 2 + 1
    if out is None:
        out = [np.empty((n1, n2), np.float64 if f == 0 or 2 * f == n3 else np.complex128)
               for f in range(nf)]
    for s in slabs((n1, n2, 2 * nf), least=2):  # a block's tube holds 2 * nf floats
        block = (np.fft.rfft(a[s], axis=2) if n3 > DFT_MATRIX_MAX_N else
                 (a[s].reshape(-1, n3) @ _dft_matrices(n3)[0]).view(np.complex128))
        block = block.reshape(*a[s].shape[:2], nf)
        for f, fs in enumerate(out):
            fs[s] = block[:, :, f].real if np.isrealobj(fs) else block[:, :, f]
        del block  # not held while the next one is made
    return out


def _row_slices(buffer: np.ndarray) -> list:
    """Views of the C-contiguous float64 (n1, n2, n3) array ``buffer`` that
    ``_spectrum`` can fill over it, in order of frequency. Row i of the
    buffer, n2 * n3 floats, holds row i of every frequency slice: the
    complex ones first, in order of frequency, so that each complex row
    starts on a 16-byte multiple when n2 * n3 is even, then the real ones
    (zero frequency, then Nyquist when n3 is even). Each slice is an
    (n1, n2) view with a row stride of n2 * n3 floats."""
    n1, n2, n3 = buffer.shape
    nr = 2 if n3 % 2 == 0 else 1
    nc = n3 // 2 + 1 - nr
    rows = buffer.reshape(n1, n2 * n3)
    cplx = rows[:, :2 * nc * n2].view(np.complex128).reshape(n1, nc, n2)
    real = rows[:, 2 * nc * n2:].reshape(n1, nr, n2)
    return [real[:, 0], *(cplx[:, f] for f in range(nc)), *(real[:, f] for f in range(1, nr))]


def row_blocks(shape) -> list:
    """The blocks of rows ``_from_spectrum`` inverts for a tensor of
    ``shape``; two rows or more each where it has them, as numpy hands a
    one-row product to gemv, which sums in another order than gemm."""
    n1, n2, n3 = shape
    return slabs((n1, n2, 2 * (n3 // 2 + 1) + n3), least=2)


def _from_spectrum(spectrum: list, n3: int, out: Tensor3 | None = None):
    """irfft along mode 3 of the frequency slices ``spectrum`` (as made by
    ``_spectrum``), block by block of ``row_blocks``, so that no full-size
    complex array is made: into a new array, which is returned, or into
    ``out``, returning ||new out - old out||_F summed by blocks. A block's
    irfft is the same in any block."""
    change = out is not None
    if out is None:
        out = np.empty((*spectrum[0].shape, n3))
    nf = n3 // 2 + 1
    squares = 0.0
    for s in row_blocks(out.shape):
        block = np.empty((len(range(out.shape[0])[s]), out.shape[1], nf), np.complex128)
        for f, fs in enumerate(spectrum):
            block[:, :, f] = fs[s]
        rows = (np.fft.irfft(block, n=n3, axis=2) if n3 > DFT_MATRIX_MAX_N else
                (block.view(np.float64).reshape(-1, 2 * nf) @ _dft_matrices(n3)[1]))
        rows = rows.reshape(block.shape[:2] + (n3,))
        del block
        if change:
            old = out[s]
            old -= rows  # old - new: the change's negation, in out's own rows
            squares += float(np.vdot(old, old))
        out[s] = rows
        del rows  # not held while the next block is made
    return math.sqrt(squares) if change else out


def _slice_svd(m: np.ndarray, full_matrices: bool = False):
    """SVD of the frequency slice ``m``. If LAPACK's gesdd (numpy's driver)
    does not converge, the slice is retried with gesvd, which is slower but
    converges on slices where gesdd gives up. A view whose strides are not
    whole items, such as a complex slice of ``_row_slices`` when n2 * n3 is
    odd, is factored from a contiguous copy: numpy 2.4's SVD misreads it."""
    if any(stride % m.itemsize for stride in m.strides):
        m = np.ascontiguousarray(m)
    try:
        return np.linalg.svd(m, full_matrices=full_matrices)
    except np.linalg.LinAlgError:
        import scipy.linalg  # only here: importing it adds to every start-up

        return scipy.linalg.svd(m, full_matrices=full_matrices, lapack_driver="gesvd")


def _gram_svt(m: np.ndarray, tau: float, keep: int = 0) -> bool:
    """Singular value thresholding of the matrix ``m`` by ``tau``, its
    ``keep`` leading singular values (fewer than min(m.shape)) passing
    unshrunk, in place, from the eigendecomposition of its smaller Gram
    matrix; False, with m unchanged, if eigh fails.

    An eigenpair (lam, v) of G = m^H m with lam > tau^2 is a right singular
    pair of m with sigma = sqrt(lam), and m v = sigma u, so the shrunk slice
    sum (sigma - tau) u v^H is (m V_k) (diag(1 - tau/sigma) V_k^H), a kept
    pair's weight being 1 in place of 1 - tau/sigma. A wide m
    uses m m^H and its left singular vectors instead: (V_k diag(...))
    (V_k^H m). No U is formed. The scaled V_k^H (or V_k) is formed in V's
    own buffer, so besides m at most two slice-sized matrices are alive at
    once: the conjugate and G, then G and V, then V and the inner product
    (and numpy's buffer of ``np.getbufsize()`` entries for the broadcast
    product by the weights).
    """
    wide = m.shape[0] < m.shape[1]
    mh = m.conj().T if np.iscomplexobj(m) else m.T
    g = m @ mh if wide else mh @ m
    del mh  # a copy of a complex m
    try:
        lam, v = np.linalg.eigh(g)
    except np.linalg.LinAlgError:
        return False
    del g
    top = len(lam) - keep  # lam is ascending: the pairs from top on pass unshrunk
    first = min(top, int(np.searchsorted(lam, tau * tau, side="right")))
    # the surviving columns' weights, in v's dtype and over all of v: a
    # ufunc on a strided view of v, or one that casts, would copy it
    w = np.zeros(len(lam), v.dtype)
    w[first:top] = 1.0 - tau / np.sqrt(lam[first:top])
    w[top:] = 1.0
    if wide:
        np.conjugate(v, out=v)  # exact, and undone below: v[:, first:].T is V_k^H
        p = v[:, first:].T @ m
        np.conjugate(v, out=v)
        v *= w
        np.matmul(v[:, first:], p, out=m)
    else:
        p = m @ v[:, first:]
        np.conjugate(v, out=v)  # v[:, first:].T is now V_k^H
        v *= w
        np.matmul(p, v[:, first:].T, out=m)
    return True


def _squared_norm(m: np.ndarray) -> float:
    """||m||_F^2, summed row by row: a strided slice of ``_row_slices`` is
    not copied, as ``np.vdot`` would copy it, twice. The value does not
    depend on m's strides."""
    f = m.view(np.float64) if np.iscomplexobj(m) else m
    return float(np.einsum("ij,ij->i", f, f).sum())


def _shrink(m: np.ndarray, tau: float, keep: int = 0) -> None:
    """Shrink the singular values of the frequency slice ``m`` by ``tau``
    (floored at zero), in place, all but the ``keep`` leading ones, which
    pass unshrunk; with keep >= min(m.shape), m is left as it is. When
    tau > 0 and ||m||_F <= GRAM_COND * tau this goes through ``_gram_svt``;
    otherwise, and whenever ``eigh`` fails, through the slice's SVD, whose
    k surviving triplets are scaled in U's own buffer. Besides m, at most
    two slice-sized matrices are alive."""
    if keep >= min(m.shape):
        return
    if tau > 0 and _squared_norm(m) <= (GRAM_COND * tau) ** 2 and _gram_svt(m, tau, keep):
        return
    u, sv, vh = _slice_svd(m)
    k = max(keep, int(np.count_nonzero(sv > tau)))
    # only the k kept or above-threshold triplets survive; u is scaled
    # whole, in its own dtype, so that the ufunc neither copies nor casts it
    d = sv - tau
    d[:keep] = sv[:keep]
    u *= d.astype(u.dtype)
    np.matmul(u[:, :k], vh[:k], out=m)


def svt(x: Tensor3, tau: float, out: Tensor3 | None = None, keep: int = 0):
    """Tensor singular value thresholding: shrink every spectral singular
    value by ``tau`` (floored at zero), except the ``keep`` leading ones of
    each frequency slice, which pass unshrunk, and reassemble.

    This is the proximal operator of (tau/n3) * sum_f sum_{i>keep}
    sigma_i(X_f), the sum running over all n3 slices X_f of the mode-3 DFT
    of x: with keep = 0 the tensor nuclear norm's, and otherwise the
    partial SVT of Oh, Tai, Bazin, Kim & Kweon (TPAMI 2016), slice by slice.

    Each rfft slice is factored once and shrunk where it lies by
    ``_shrink``, through ``eigh`` of its smaller Gram matrix where that is
    exact to about eps * sigma_1 / tau (``GRAM_COND``) and through its SVD
    otherwise. The slices are shrunk by ``_each_slice``; the result does
    not depend on its thread count.

    The slices are shrunk in the layout of ``_row_slices``: each block of
    rows' rfft is written over the rows it read, so that no separate
    spectrum is held. Without ``out``, that is done in a copy of x, and the
    result is returned in a new array, allocated only once every slice is
    shrunk, so that it is not held alongside the slices' temporaries; x is
    never written. With ``out``, an array of x's shape, x itself is the
    workspace, as for the solver, whose argument is dead once read: x must
    then be a writeable C-contiguous float64 array that does not overlap
    ``out``, and is left holding the shrunk spectrum. The result overwrites
    ``out`` one block of rows at a time, and the call returns
    ||result - old out||_F, summed block by block: the iterate change, when
    out holds the previous iterate. The values are the same either way.
    """
    if out is not None and not (isinstance(x, np.ndarray) and x.dtype == np.float64
                                and x.flags.c_contiguous and x.flags.writeable
                                and not np.may_share_memory(x, out)):
        raise ParameterError("with out, x must be a writeable C-contiguous float64 "
                             "array that does not overlap out")
    x = astensor3(x)
    if not tau >= 0:  # NaN fails every comparison
        raise ParameterError(f"tau must be >= 0, got {tau}")
    if not (isinstance(keep, (int, np.integer)) and keep >= 0):
        raise ParameterError(f"keep must be an integer >= 0, got {keep!r}")
    if out is None:
        x = x.copy()  # C-ordered, the workspace
    elif out.shape != x.shape:
        raise DimensionError(f"out must have shape {x.shape}, got {out.shape}")
    fx = _spectrum(x, out=_row_slices(x))
    _each_slice(lambda i: _shrink(fx[i], tau, keep), len(fx))
    return _from_spectrum(fx, x.shape[2], out)
