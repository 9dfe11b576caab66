"""Reference implementations the tests check srtd against.

None of these runs on the solve path: the block-circulant route of the
t-product, the whole-array mode-3 rfft pair as one frequency-major stack,
the full T-SVD and the norms and bounds built on it, the tensor
helpers those need, and an ADMM sweep that allocates every iterate anew.
They are independent routes to the quantities the solver computes, so a
test can compare the fast path with them.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

import srtd.solver as solver
from srtd.errors import DimensionError, DivergenceError, ParameterError
from srtd.solver import SolverConfig, SolverState
from srtd.t_algebra import _slice_svd, svt, tproduct, tsvd_leading
from srtd.tensor_core import Tensor3, astensor3, fro_norm, ttranspose
from srtd.transforms import dct3, idct3

_SV_ATOL = 1e-9  # orthonormality slack accepted by trace_bound_check preconditions


def _require_same_dims(a: Tensor3, b: Tensor3) -> None:
    if a.shape != b.shape:
        raise DimensionError(f"tensors must share dims, got {a.shape} and {b.shape}")


def _spectral_stack(a: Tensor3) -> np.ndarray:
    """rfft along mode 3, as a frequency-major (n3 // 2 + 1, n1, n2) stack
    of complex frontal slices."""
    return np.moveaxis(np.fft.rfft(a, axis=2), 2, 0)


def _from_spectral_stack(stack: np.ndarray, n3: int) -> Tensor3:
    """irfft along mode 3 of the frequency-major ``stack``."""
    return np.fft.irfft(np.moveaxis(stack, 0, 2), n=n3, axis=2)


def _slice(fa: np.ndarray, i: int, n3: int) -> np.ndarray:
    """Frequency slice ``i`` of the spectral stack ``fa`` of a real tensor
    with ``n3`` frontal slices; the zero-frequency slice, and the Nyquist
    slice when n3 is even, are exactly real and are returned as real
    matrices."""
    return fa[i].real if i == 0 or 2 * i == n3 else fa[i]


def unfold(a: Tensor3) -> np.ndarray:
    """Stack the frontal slices vertically into an (n1*n3) x n2 matrix."""
    a = astensor3(a)
    n1, n2, n3 = a.shape
    return a.transpose(2, 0, 1).reshape(n1 * n3, n2)


def fold(m: np.ndarray, dims: tuple[int, int, int]) -> Tensor3:
    """Inverse of :func:`unfold`; ``fold(unfold(a), a.shape) == a`` exactly."""
    m = np.asarray(m, dtype=np.float64)
    n1, n2, n3 = dims
    if m.ndim != 2 or m.shape != (n1 * n3, n2):
        raise DimensionError(f"expected a {n1 * n3}x{n2} matrix for dims {dims}, got shape {m.shape}")
    return m.reshape(n3, n1, n2).transpose(1, 2, 0)


def bcirc(a: Tensor3) -> np.ndarray:
    """Block-circulant matrix of shape (n1*n3) x (n2*n3).

    Block column j holds the frontal slices circularly shifted down by j,
    so the first block column equals ``unfold(a)``. Materializing this is
    O(n3^2) memory; it exists as a reference route for tests, the t-product
    itself goes through the Fourier domain.
    """
    a = astensor3(a)
    n1, n2, n3 = a.shape
    out = np.empty((n1 * n3, n2 * n3))
    for j in range(n3):
        out[:, j * n2:(j + 1) * n2] = np.roll(a, j, axis=2).transpose(2, 0, 1).reshape(n1 * n3, n2)
    return out


def identity_tensor(n: int, n3: int) -> Tensor3:
    """Identity under the t-product: slice 1 is I_n, the rest are zero."""
    if n < 1 or n3 < 1:
        raise ParameterError(f"identity_tensor needs n >= 1 and n3 >= 1, got ({n}, {n3})")
    out = np.zeros((n, n, n3))
    out[:, :, 0] = np.eye(n)
    return out


def inner_product(a: Tensor3, b: Tensor3) -> float:
    """Entrywise inner product; dims must match."""
    a = astensor3(a)
    b = astensor3(b)
    _require_same_dims(a, b)
    return float(np.sum(a * b))


def ttrace(a: Tensor3) -> float:
    """Sum of the traces of all frontal slices; slices must be square."""
    a = astensor3(a)
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"ttrace needs square frontal slices, got shape {a.shape}")
    return float(np.trace(a, axis1=0, axis2=1).sum())


class TSvdFactors(NamedTuple):
    """T-SVD triple: ``u`` (n1,n1,n3) and ``v`` (n2,n2,n3) orthogonal,
    ``s`` (n1,n2,n3) f-diagonal with non-increasing spectral singular values."""

    u: Tensor3
    s: Tensor3
    v: Tensor3


def tsvd(a: Tensor3) -> TSvdFactors:
    """Factor ``a`` as u * s * ttranspose(v) via one SVD per frequency slice."""
    a = astensor3(a)
    n1, n2, n3 = a.shape
    fa = _spectral_stack(a)
    nf = fa.shape[0]
    fu = np.empty((nf, n1, n1), dtype=np.complex128)
    fs = np.zeros(fa.shape, dtype=np.complex128)
    fv = np.empty((nf, n2, n2), dtype=np.complex128)
    k = np.arange(min(n1, n2))
    for i in range(nf):
        u, sv, vh = _slice_svd(_slice(fa, i, n3), full_matrices=True)
        fu[i], fs[i, k, k], fv[i] = u, sv, vh.conj().T
    return TSvdFactors(
        u=_from_spectral_stack(fu, n3),
        s=_from_spectral_stack(fs, n3),
        v=_from_spectral_stack(fv, n3),
    )


def tubal_rank(a: Tensor3, tol: float = 1e-8) -> int:
    """Largest count, over frequency slices, of singular values above
    ``tol`` times the globally largest singular value."""
    a = astensor3(a)
    if tol < 0:
        raise ParameterError(f"tol must be >= 0, got {tol}")
    sv = np.linalg.svd(_spectral_stack(a), compute_uv=False)
    top = sv.max(initial=0.0)
    if top == 0.0:
        return 0
    return int((sv > tol * top).sum(axis=1).max())


def tnn_via_tsvd(a: Tensor3) -> float:
    """Tensor nuclear norm, slow path: trace of the T-SVD core summed over
    its frontal slices. Kept as an independent oracle for :func:`tnn`."""
    s = tsvd(a).s
    return float(np.trace(s, axis1=0, axis2=1).sum())


def ttnn(a: Tensor3, r: int) -> float:
    """Truncated tensor nuclear norm: singular values of the zero-frequency
    slice beyond the first ``r``."""
    a = astensor3(a)
    kmax = min(a.shape[0], a.shape[1])
    if not 0 <= r <= kmax:
        raise ParameterError(f"truncation r must lie in [0, {kmax}], got {r}")
    sv = np.linalg.svd(a.sum(axis=2), compute_uv=False)
    return float(sv[r:].sum())


def trace_bound_check(x: np.ndarray, a: np.ndarray, b: np.ndarray) -> bool:
    """Whether tr(a x b^T) <= sum of the r largest singular values of x
    (plus 1e-8 slack), for row-orthonormal a (r x m) and b (r x n).

    Test-support only; raises :class:`ParameterError` when a or b is not
    row-orthonormal to 1e-9.
    """
    x = np.asarray(x, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if x.ndim != 2 or a.ndim != 2 or b.ndim != 2:
        raise DimensionError("trace_bound_check operates on matrices")
    r = a.shape[0]
    if b.shape[0] != r or a.shape[1] != x.shape[0] or b.shape[1] != x.shape[1]:
        raise DimensionError(
            f"shape mismatch: x {x.shape} needs a (r,{x.shape[0]}) and b (r,{x.shape[1]}), "
            f"got {a.shape} and {b.shape}"
        )
    for name, m in (("a", a), ("b", b)):
        if r and np.abs(m @ m.T - np.eye(r)).max() > _SV_ATOL:
            raise ParameterError(f"{name} is not row-orthonormal to {_SV_ATOL:.0e}")
    lhs = float(np.trace(a @ x @ b.T))
    sv = np.linalg.svd(x, compute_uv=False)
    return lhs <= float(sv[:r].sum()) + 1e-8


def truncate_factors(f: TSvdFactors, r: int):
    """First r lateral slices of u and v, t-transposed: a_k is (r,n1,n3),
    b_k is (r,n2,n3), both row-orthogonal in the t-product sense."""
    kmax = min(f.u.shape[0], f.v.shape[0])
    if not 1 <= r <= kmax:
        raise ParameterError(f"truncation rank must lie in [1, {kmax}], got {r}")
    return ttranspose(f.u[:, :r, :]), ttranspose(f.v[:, :r, :])


# The allocating ADMM sweep: every update builds new arrays and a warm
# state's fields are rebound, never written. srtd.solver runs the same
# floating-point operations in the same order in place, so its iterates
# must equal these bitwise, except where it skips the E/Z steps at
# lambda = 0, which moves them by transform round-off.

def _update_x(state: SolverState, cfg: SolverConfig) -> Tensor3:
    back = idct3(state.e + state.z / state.mu)
    avg = 0.5 * (state.w - state.y / state.mu + back)
    return svt(avg, 1.0 / (2.0 * state.mu))


def _update_e(state: SolverState, cfg: SolverConfig, dx: Tensor3) -> Tensor3:
    return solver.soft_threshold(dx - state.z / state.mu, cfg.lam / state.mu)


def _update_w(state: SolverState, cfg: SolverConfig, m: Tensor3, omega, grad: Tensor3) -> Tensor3:
    w_free = state.x + (grad + state.y) / state.mu
    return np.where(omega, m, w_free)


def reference_admm_solve(m: Tensor3, omega, a_k: Tensor3, b_k: Tensor3, cfg: SolverConfig,
                         warm: SolverState | None = None) -> SolverState:
    """``srtd.solver.admm_solve`` with allocating updates; ``m`` must be
    zero-filled off ``omega``."""
    m = astensor3(m, "m")
    if warm is None:
        rng = np.random.default_rng(cfg.seed)
        state = SolverState(
            x=m.copy(), w=m.copy(),
            e=np.zeros(m.shape), y=rng.random(m.shape), z=np.zeros(m.shape),
            mu=cfg.mu_init,
        )
    else:
        state = warm
    state.inner_iter = 0
    grad = tproduct(ttranspose(a_k), b_k)

    for t in range(1, cfg.max_inner + 1):
        x_prev = state.x
        state.x = _update_x(state, cfg)
        if not np.isfinite(state.x).all():
            raise DivergenceError(f"non-finite x iterate at inner step {t}",
                                  outer_iter=state.outer_iter, inner_iter=t)
        dx = dct3(state.x)
        state.e = _update_e(state, cfg, dx)
        state.z = state.z + state.mu * (state.e - dx)
        state.w = _update_w(state, cfg, m, omega, grad)
        if not np.isfinite(state.w).all():
            raise DivergenceError(f"non-finite w iterate at inner step {t}",
                                  outer_iter=state.outer_iter, inner_iter=t)
        state.y = state.y + state.mu * (state.x - state.w)
        state.mu = solver.update_mu(state, cfg)
        state.inner_iter = t

        delta = fro_norm(state.x - x_prev)
        if cfg.stop_mode == "relative":
            delta /= max(1.0, fro_norm(state.x))
        if delta <= cfg.inner_tol:
            break
    return state


def reference_complete(m: Tensor3, omega, cfg: SolverConfig):
    """``srtd.solver.srtd_complete``'s outer loop over
    :func:`reference_admm_solve`, holding the zero-filled observation
    throughout: (recovered, objective trace, final residuals, outer steps,
    total sweeps)."""
    m = astensor3(m, "m")
    m_obs = np.where(omega, m, 0.0)
    x_cur, state, trace, inner_total, outer_done = m_obs, None, [], 0, 0
    for k in range(1, cfg.max_outer + 1):
        u_r, v_r = tsvd_leading(x_cur, cfg.r)
        a_k, b_k = ttranspose(u_r), ttranspose(v_r)
        trace.append(solver._surrogate(x_cur, a_k, b_k, cfg.lam))
        if state is not None:
            state.outer_iter = k
        state = reference_admm_solve(m_obs, omega, a_k, b_k, cfg, warm=state)
        state.outer_iter = k
        inner_total += state.inner_iter
        outer_done = k
        delta = fro_norm(state.x - x_cur)
        if cfg.stop_mode == "relative":
            delta /= max(1.0, fro_norm(state.x))
        x_cur = state.x
        if delta <= cfg.eps_outer:
            break
    trace.append(solver._surrogate(x_cur, a_k, b_k, cfg.lam))
    residuals = (fro_norm(state.x - state.w), fro_norm(state.e - dct3(state.x)), float(delta))
    return np.where(omega, m, state.x), tuple(trace), residuals, outer_done, inner_total
