"""t-product algebra: tensor-tensor product, the leading T-SVD factors, the
nuclear norm and trace terms of the objective, and the tensor singular
value thresholding operator.

Everything is computed in the mode-3 Fourier domain: a t-product is a
matrix product per frequency slice, and the T-SVD is an SVD per frequency
slice (complex, except on the slices that are exactly real). The SVT
shrinks a slice through the eigendecomposition of its smaller Gram matrix
when that is exact to rounding (``GRAM_COND``), and through the slice's
SVD otherwise. Real input has a conjugate-symmetric spectrum, so only the
first ``n3 // 2 + 1`` slices are ever touched: ``_spectral_stack`` and
``_from_spectral_stack`` (rfft/irfft) are the library's only mode-3 DFT
pair, and results are identical to the full-spectrum route up to rounding.

``svt`` and ``tsvd_leading`` factor their slices independently, on the
calling thread and on one process-wide pool of slice threads
(``_each_slice``). The pool gets the CPUs that BLAS leaves free
(``_slice_threads``): with no BLAS thread count set in the environment,
the slices run one after another on the calling thread. A slice's
arithmetic is the same on any thread, so results do not depend on the
number of slice threads.
"""

from __future__ import annotations

import os
import threading

import numpy as np

from .errors import DimensionError, ParameterError
from .tensor_core import Tensor3, astensor3

# Largest ||A||_F / tau for which svt shrinks slice A from its Gram matrix.
# Squaring A squares its condition: the shrunk singular values carry an
# error of about eps * sigma_1 / tau, so past this ratio the SVD is used.
GRAM_COND = 1e4

# BLAS thread counts, in the order the first positive one is taken.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                     "BLIS_NUM_THREADS")

_pool = None  # the slice-thread pool, made by the first pooled call
_pool_lock = threading.Lock()


def _forget_pool() -> None:
    # a forked child has none of the parent's threads, so a pool inherited
    # from the parent would queue slices that no thread ever runs
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


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


def _slice_pool(threads: int):
    global _pool
    with _pool_lock:
        if _pool is None:
            # imported on first use: the import adds about 10 ms to every start-up
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(max_workers=threads - 1, thread_name_prefix="srtd-slice")
        return _pool


def _each_slice(fn, n: int) -> None:
    """Run ``fn(i)`` for i in range(n), on the calling thread and on up to
    ``_slice_threads() - 1`` pool threads at once.

    The caller takes slices alongside the pool threads. Once no slice is
    left, it cancels the pool tasks that have not started, so it never waits
    behind another caller's slices, and waits for the started ones, so no
    ``fn`` runs after this returns. If ``fn`` raises, on any thread, one of
    its exceptions is raised here once every started task has ended.
    """
    threads = min(_slice_threads(), n)
    if threads <= 1:
        for i in range(n):
            fn(i)
        return
    from concurrent.futures import wait

    slices = iter(range(n))
    take = threading.Lock()

    def drain():
        while True:
            with take:
                i = next(slices, None)
            if i is None:
                return
            fn(i)

    pool = _slice_pool(threads)
    tasks = [pool.submit(drain) for _ in range(threads - 1)]
    try:
        drain()
    finally:
        started = [t for t in tasks if not t.cancel()]
        wait(started)
    for task in started:
        task.result()


def _spectral_stack(a: Tensor3) -> np.ndarray:
    """rfft along mode 3, frequency-major stack of frontal slices."""
    return np.moveaxis(np.fft.rfft(a, axis=2), 2, 0)


def _from_spectral_stack(stack: np.ndarray, n3: int) -> Tensor3:
    return np.fft.irfft(np.moveaxis(stack, 0, 2), n=n3, axis=2)


def tproduct(a: Tensor3, b: Tensor3) -> Tensor3:
    """Tensor-tensor product of (n1,n2,n3) by (n2,n4,n3) -> (n1,n4,n3)."""
    a = astensor3(a, "a")
    b = astensor3(b, "b")
    if a.shape[1] != b.shape[0] or a.shape[2] != b.shape[2]:
        raise DimensionError(f"tproduct needs (n1,n2,n3) by (n2,n4,n3), got {a.shape} and {b.shape}")
    fc = _spectral_stack(a) @ _spectral_stack(b)
    return _from_spectral_stack(fc, a.shape[2])


def _slice(fa: np.ndarray, i: int, n3: int) -> np.ndarray:
    """Frequency slice ``i`` of the spectral stack ``fa`` of a real tensor
    with ``n3`` frontal slices.

    The zero-frequency slice, and the Nyquist slice when n3 is even, are
    exactly real and are returned as real matrices: real factorizations are
    about twice as fast and attach no unit phases to the factors.
    """
    return fa[i].real if i == 0 or 2 * i == n3 else fa[i]


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
    fa = _spectral_stack(a)
    nf = fa.shape[0]
    fu = np.empty((nf, n1, r), dtype=np.complex128)
    fv = np.empty((nf, n2, r), dtype=np.complex128)

    def factor(i):
        u, _, vh = _slice_svd(_slice(fa, i, n3))
        fu[i], fv[i] = u[:, :r], vh[:r].conj().T

    _each_slice(factor, nf)
    return _from_spectral_stack(fu, n3), _from_spectral_stack(fv, n3)


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


def _gram_svt(m: np.ndarray, tau: float) -> np.ndarray | None:
    """Singular value thresholding of the matrix ``m`` by ``tau`` from the
    eigendecomposition of its smaller Gram matrix; None if eigh fails.

    An eigenpair (lam, v) of G = m^H m with lam > tau^2 is a right singular
    pair of m with sigma = sqrt(lam), and m v = sigma u, so the shrunk slice
    sum (sigma - tau) u v^H is (m V_k) diag(1 - tau/sigma) V_k^H. A wide m
    uses m m^H and its left singular vectors instead. No U is formed.
    """
    wide = m.shape[0] < m.shape[1]
    mh = m.conj().T if np.iscomplexobj(m) else m.T
    g = m @ mh if wide else mh @ m
    del mh  # a copy of a complex m
    try:
        lam, v = np.linalg.eigh(g)
    except np.linalg.LinAlgError:
        return None
    del g  # not held through the rebuild, which allocates a slice-sized result
    first = int(np.searchsorted(lam, tau * tau, side="right"))  # lam is ascending
    vk = v[:, first:]
    w = 1.0 - tau / np.sqrt(lam[first:])
    if wide:
        return (vk * w) @ (vk.conj().T @ m)
    return (m @ vk) @ (w[:, None] * vk.conj().T)


def svt(x: Tensor3, tau: float) -> Tensor3:
    """Tensor singular value thresholding: shrink every spectral singular
    value by ``tau`` (floored at zero) and reassemble.

    This is the proximal operator of (tau/n3) * sum_f ||X_f||_*, the sum
    running over all n3 slices X_f of the mode-3 DFT of x. That equals
    ``tau * tnn`` only for n3 = 1.

    Each rfft slice A is factored once. When tau > 0 and
    ||A||_F <= GRAM_COND * tau, it is shrunk through ``eigh`` of the smaller
    of A^H A and A A^H, keeping the eigenvalues above tau^2; that costs
    less than an SVD (about half on a real slice) and is exact to about
    eps * sigma_1 / tau. Otherwise, and whenever ``eigh`` fails, the
    slice's SVD is used. The slices are shrunk by ``_each_slice``, in place
    in the spectral stack; the result does not depend on its thread count.
    """
    x = astensor3(x)
    if tau < 0:
        raise ParameterError(f"tau must be >= 0, got {tau}")
    n3 = x.shape[2]
    fx = _spectral_stack(x)
    gram_limit = (GRAM_COND * tau) ** 2

    def shrink(i):
        m = _slice(fx, i, n3)
        shrunk = None
        if tau > 0 and np.vdot(m, m).real <= gram_limit:
            shrunk = _gram_svt(m, tau)
        if shrunk is None:
            u, sv, vh = _slice_svd(m)
            k = int(np.count_nonzero(sv > tau))
            # only the k triplets above the threshold survive
            shrunk = (u[:, :k] * (sv[:k] - tau)) @ vh[:k]
        # the slice is rebuilt in place so that only the factors of the
        # slices being shrunk at the moment are alive
        fx[i] = shrunk

    _each_slice(shrink, fx.shape[0])
    return _from_spectral_stack(fx, n3)

