"""t-product algebra: tensor-tensor product, the leading T-SVD factors, the
nuclear norm and trace terms of the objective, and the tensor singular
value thresholding operator.

Everything is computed in the mode-3 Fourier domain: a t-product is a
matrix product per frequency slice, and the T-SVD is an SVD per frequency
slice (complex, except on the slices that are exactly real). The SVT
shrinks a slice through the eigendecomposition of its smaller Gram matrix
when that is exact to rounding (``GRAM_COND``), and through the slice's
SVD otherwise. Real input has a conjugate-symmetric spectrum, so only the
first ``n3 // 2 + 1`` slices are ever touched: ``_spectrum`` and
``_irfft_rows`` (rfft/irfft) are the library's only mode-3 DFT pair, and
results are identical to the full-spectrum route up to rounding. The pair
holds the spectrum as one contiguous (n1, n2) array per frequency, real for
the zero-frequency slice and, when n3 is even, the Nyquist slice, and
builds and inverts it block by block of rows, so that no full-size complex
array is made. ``svt`` shrinks each slice in its own array, with at most
two slice-sized matrices beside it. A t-product (``spectral_product``, on
spectra that ``stacked_spectrum`` holds as one real and one complex stack)
forms each block of rows of every frequency's product in one batched
product over the complex slices and one over the real ones, and inverts
that block at once, so the product's spectrum is never held whole.

``svt`` and ``tsvd_leading`` factor their slices independently, on the
calling thread and on helper threads that each call starts and joins
(``_each_slice``); the module keeps no thread or other state between
calls. The slices get the CPUs that BLAS leaves free (``_slice_threads``):
with no BLAS thread count set in the environment, they run one after
another on the calling thread and no helper is started. A slice's
arithmetic is the same on any thread, so results do not depend on the
number of slice threads.
"""

from __future__ import annotations

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

# BLAS thread counts, in the order the first positive one is taken.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                     "BLIS_NUM_THREADS")


def _slice_threads() -> int:
    """Threads that factor slices at once: the CPUs this process may run on,
    divided by the BLAS threads of each call. BLAS threads come from the
    first of ``_BLAS_THREAD_VARS`` that holds a positive integer; with none
    set, BLAS is taken to use every CPU, and the slices run on one thread."""
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


def _spectrum(a: Tensor3, out: list | None = None) -> list:
    """The rfft of ``a`` along mode 3 as its ``n3 // 2 + 1`` frequency
    slices, each a contiguous (n1, n2) array of its own. The zero-frequency
    slice, and the Nyquist slice when n3 is even, are exactly real and are
    held as real arrays: real factorizations are about twice as fast and
    attach no unit phases to the factors. The rfft runs block by block of
    rows, so no full-size complex array is made; each tube's rfft is the
    same as in the whole-array call. With ``out``, a list of such arrays,
    the slices are written there."""
    n1, n2, n3 = a.shape
    nf = n3 // 2 + 1
    if out is None:
        out = [np.empty((n1, n2), np.float64 if f == 0 or 2 * f == n3 else np.complex128)
               for f in range(nf)]
    for s in slabs((n1, n2, 2 * nf)):  # a block's tube holds 2 * nf floats
        block = np.fft.rfft(a[s], axis=2)
        for f, fs in enumerate(out):
            fs[s] = block[:, :, f].real if np.isrealobj(fs) else block[:, :, f]
        del block  # not held while the next one is made
    return out


def _irfft_rows(out: Tensor3, fill) -> Tensor3:
    """irfft along mode 3 into ``out``, block by block of rows, so that no
    full-size complex array is made: ``fill(block, s)`` writes the
    ``n3 // 2 + 1`` frequencies of rows ``s`` along the last axis of the
    complex ``block``. Each tube's irfft is the same as in the whole-array
    call. A block holds two rows or more where out has them: numpy hands
    ``spectral_product``'s product of one row to gemv, which sums in
    another order than gemm, so its bits would depend on the cut."""
    n1, n2, n3 = out.shape
    nf = n3 // 2 + 1
    # a block's tube holds 2 * nf floats, and its irfft n3 more
    for s in slabs((n1, n2, 2 * nf + n3), least=2):
        block = np.empty((*out[s].shape[:2], nf), np.complex128)
        fill(block, s)
        out[s] = np.fft.irfft(block, n=n3, axis=2)
        del block
    return out


def _from_spectrum(spectrum: list, n3: int) -> Tensor3:
    """irfft along mode 3 of the frequency slices ``spectrum`` (as made by
    ``_spectrum``), into a new array, by ``_irfft_rows``."""

    def fill(block, s):
        for f, fs in enumerate(spectrum):
            block[:, :, f] = fs[s]

    return _irfft_rows(np.empty((*spectrum[0].shape, n3)), fill)


def stacked_spectrum(a: Tensor3) -> tuple[np.ndarray, np.ndarray]:
    """``_spectrum`` of ``a`` as two stacks for ``spectral_product``: the
    real slices (zero frequency, then Nyquist when n3 is even) as one real
    (nr, n1, n2) array, and the others, in order of frequency, as one
    complex (n3 // 2 + 1 - nr, n1, n2) array."""
    n1, n2, n3 = a.shape
    nr = 2 if n3 % 2 == 0 else 1
    real = np.empty((nr, n1, n2))
    cplx = np.empty((n3 // 2 + 1 - nr, n1, n2), np.complex128)
    _spectrum(a, out=[real[0], *cplx, *real[1:]])
    return real, cplx


def spectral_product(fa: tuple, fb: tuple, n3: int, out: Tensor3 | None = None) -> Tensor3:
    """The t-product of the tensors whose ``stacked_spectrum`` are ``fa``
    (n1 by n2) and ``fb`` (n2 by n4), each n3 long: each frequency's matrix
    product, inverted by ``_irfft_rows`` into ``out`` (a new array when
    None), so that the product's spectrum is never held whole. A block of
    rows takes one batched product over the complex frequencies and one over
    the real ones, which multiply in real arithmetic."""
    (ra, ca), (rb, cb) = fa, fb
    shape = (ra.shape[1], rb.shape[2], n3)
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape:
        raise DimensionError(f"out must have shape {shape}, got {out.shape}")

    def fill(block, s):
        block[:, :, 1:1 + len(ca)] = np.matmul(ca[:, s], cb).transpose(1, 2, 0)
        real = np.matmul(ra[:, s], rb)
        block[:, :, 0] = real[0]
        if len(real) == 2:
            block[:, :, -1] = real[1]

    return _irfft_rows(out, fill)


def tproduct(a: Tensor3, b: Tensor3) -> Tensor3:
    """Tensor-tensor product of (n1,n2,n3) by (n2,n4,n3) -> (n1,n4,n3)."""
    a = astensor3(a, "a")
    b = astensor3(b, "b")
    if a.shape[1] != b.shape[0] or a.shape[2] != b.shape[2]:
        raise DimensionError(f"tproduct needs (n1,n2,n3) by (n2,n4,n3), got {a.shape} and {b.shape}")
    return spectral_product(stacked_spectrum(a), stacked_spectrum(b), a.shape[2])


def _slice_svd(m: np.ndarray, full_matrices: bool = False):
    """SVD of the frequency slice ``m``. If LAPACK's gesdd (numpy's driver)
    does not converge, the slice is retried with gesvd, which is slower but
    converges on slices where gesdd gives up."""
    try:
        return np.linalg.svd(m, full_matrices=full_matrices)
    except np.linalg.LinAlgError:
        import scipy.linalg  # only here: importing it adds to every start-up

        return scipy.linalg.svd(m, full_matrices=full_matrices, lapack_driver="gesvd")


def tsvd_leading(a: Tensor3, r: int) -> tuple[Tensor3, Tensor3]:
    """The first ``r`` lateral slices of the T-SVD factors u (n1,r,n3) and
    v (n2,r,n3) of ``a``, without s and without the trailing singular
    vectors. Equal to ``u[:, :r, :]`` and ``v[:, :r, :]`` of the full T-SVD
    up to the phase of each singular vector pair. The slices are factored
    by ``_each_slice``; the result does not depend on its thread count."""
    a = astensor3(a)
    n1, n2, n3 = a.shape
    kmax = min(n1, n2)
    if not 1 <= r <= kmax:
        raise ParameterError(f"truncation rank must lie in [1, {kmax}], got {r}")
    fa = _spectrum(a)
    fu, fv = [None] * len(fa), [None] * len(fa)

    def factor(i):
        u, _, vh = _slice_svd(fa[i])
        fa[i] = None  # the slice is not needed once factored
        # copies, so that the full factors are not held until the end
        fu[i], fv[i] = u[:, :r].copy(), vh[:r].conj().T.copy()

    _each_slice(factor, len(fa))
    return _from_spectrum(fu, n3), _from_spectrum(fv, n3)


def tnn(a: Tensor3) -> float:
    """Tensor nuclear norm, fast path: nuclear norm of the zero-frequency
    slice (which for a real tensor is just the sum of the frontal slices)."""
    a = astensor3(a)
    return float(np.linalg.svd(a.sum(axis=2), compute_uv=False).sum())


def trace_pair(a: Tensor3, b: Tensor3) -> float:
    """Trace of the t-product a * b, evaluated in the Fourier domain as
    Re(tr(A(0) B(0))) with the zero-frequency slices."""
    a = astensor3(a, "a")
    b = astensor3(b, "b")
    if a.shape[1] != b.shape[0] or a.shape[2] != b.shape[2]:
        raise DimensionError(f"tproduct needs (n1,n2,n3) by (n2,n4,n3), got {a.shape} and {b.shape}")
    if b.shape[1] != a.shape[0]:
        raise DimensionError(f"trace needs square product slices, got {a.shape} by {b.shape}")
    return float(np.sum(a.sum(axis=2) * b.sum(axis=2).T))


def _gram_svt(m: np.ndarray, tau: float) -> bool:
    """Singular value thresholding of the matrix ``m`` by ``tau``, in place,
    from the eigendecomposition of its smaller Gram matrix; False, with m
    unchanged, if eigh fails.

    An eigenpair (lam, v) of G = m^H m with lam > tau^2 is a right singular
    pair of m with sigma = sqrt(lam), and m v = sigma u, so the shrunk slice
    sum (sigma - tau) u v^H is (m V_k) (diag(1 - tau/sigma) V_k^H). A wide m
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
    first = int(np.searchsorted(lam, tau * tau, side="right"))  # lam is ascending
    # the kept columns' weights 1 - tau/sigma, in v's dtype and over all of
    # v: a ufunc on a strided view of v, or one that casts, would copy it
    w = np.zeros(len(lam), v.dtype)
    w[first:] = 1.0 - tau / np.sqrt(lam[first:])
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


def _shrink(m: np.ndarray, tau: float) -> None:
    """Shrink the singular values of the frequency slice ``m`` by ``tau``
    (floored at zero), in place. When tau > 0 and ||m||_F <= GRAM_COND * tau
    this goes through ``_gram_svt``; otherwise, and whenever ``eigh`` fails,
    through the slice's SVD, whose k triplets above tau are scaled in U's
    own buffer. Besides m, at most two slice-sized matrices are alive."""
    if tau > 0 and np.vdot(m, m).real <= (GRAM_COND * tau) ** 2 and _gram_svt(m, tau):
        return
    u, sv, vh = _slice_svd(m)
    k = int(np.count_nonzero(sv > tau))
    # only the k triplets above the threshold survive; u is scaled whole,
    # in its own dtype, so that the ufunc neither copies nor casts it
    u *= (sv - tau).astype(u.dtype)
    np.matmul(u[:, :k], vh[:k], out=m)


def svt(x: Tensor3, tau: float) -> Tensor3:
    """Tensor singular value thresholding: shrink every spectral singular
    value by ``tau`` (floored at zero) and reassemble.

    This is the proximal operator of (tau/n3) * sum_f ||X_f||_*, the sum
    running over all n3 slices X_f of the mode-3 DFT of x. That equals
    ``tau * tnn`` only for n3 = 1.

    Each rfft slice A is factored once and shrunk in its own array by
    ``_shrink``. When tau > 0 and ||A||_F <= GRAM_COND * tau, that goes
    through ``eigh`` of the smaller of A^H A and A A^H, keeping the
    eigenvalues above tau^2; that costs less than an SVD (about half on a
    real slice) and is exact to about eps * sigma_1 / tau. Otherwise, and
    whenever ``eigh`` fails, the slice's SVD is used. The slices are shrunk
    by ``_each_slice``; the result does not depend on its thread count.

    The result is a new array, allocated only once every slice is shrunk,
    so that it is not held alongside the slices' temporaries. x is never
    written.
    """
    x = astensor3(x)
    if tau < 0:
        raise ParameterError(f"tau must be >= 0, got {tau}")
    fx = _spectrum(x)
    _each_slice(lambda i: _shrink(fx[i], tau), len(fx))
    return _from_spectrum(fx, x.shape[2])
