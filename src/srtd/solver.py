"""Tensor completion engine: truncated tensor nuclear norm + DCT-domain
ℓ1 sparsity, minimized by a two-loop ADMM.

Outer loop: take the r leading T-SVD factors of the current estimate,
freeze the truncated factor pair (a_k, b_k), hand the resulting convex
subproblem to the inner loop. Inner loop: ADMM sweeps in the fixed order
X -> E -> Z -> W -> Y -> mu, where E lives in the 3-D DCT domain, W carries
the observation constraint, Y and Z are the duals for X=W and E=dct3(X), and
mu grows geometrically up to a cap. The inner loop is warm-started from the
previous outer iterate; mu is not reset between outer steps.

All updates are closed-form:

    X = svt( (W - Y/mu + idct3(E + Z/mu)) / 2, 1/(2 mu) )
    E = soft_threshold( dct3(X) - Z/mu, lambda/mu )
    Z += mu (E - dct3(X))
    W = X + (a_k^T * b_k + Y)/mu,  then W on the observed set := M
    Y += mu (X - W);  mu = min(rho mu, mu_max)

Z reads only E, X, Z and mu, so it follows E directly and shares its
dct3(X); a_k^T * b_k is fixed within an outer step and computed once per
step.

Setting ``sparse_term=False`` removes the E/Z machinery entirely (the pure
truncated-nuclear-norm baseline); with lambda = 0 the full model collapses
to the same iterates up to transform round-off.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DivergenceError, ParameterError
from .t_algebra import svt, tnn, tproduct, trace_pair, tsvd_leading
from .tensor_core import Tensor3, astensor3, fro_norm, l1_norm, ttranspose
from .transforms import dct3, idct3

_STOP_MODES = ("relative", "absolute")


def _is_count(value) -> bool:
    """An integer >= 1; a float such as 2.5 or 3.0 is not one."""
    return isinstance(value, numbers.Integral) and value >= 1


@dataclass(frozen=True)
class SolverConfig:
    """Solver parameters. ``r`` is the truncation rank and must not exceed
    min(n1, n2) of the tensor being completed; ``lam`` weights the DCT-domain
    ℓ1 term; ``eps_inner`` defaults to ``eps_outer`` when left None."""

    r: int
    lam: float = 0.05
    rho: float = 1.1
    mu_init: float = 1e-4
    mu_max: float = 1e10
    eps_outer: float = 1e-3
    max_outer: int = 50
    eps_inner: float | None = None
    max_inner: int = 200
    stop_mode: str = "relative"
    seed: int = 0

    def __post_init__(self):
        if not _is_count(self.r):
            raise ParameterError(f"truncation rank r must be an integer >= 1, got {self.r!r}")
        # isfinite also rejects NaN, which fails every comparison below
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ParameterError(f"lam must be finite and >= 0, got {self.lam}")
        if not (math.isfinite(self.rho) and self.rho > 1):
            raise ParameterError(f"rho must be finite and > 1, got {self.rho}")
        if not (math.isfinite(self.mu_init) and self.mu_init > 0):
            raise ParameterError(f"mu_init must be finite and > 0, got {self.mu_init}")
        if not (math.isfinite(self.mu_max) and self.mu_max >= self.mu_init):
            raise ParameterError(f"mu_max must be finite and >= mu_init, got {self.mu_max}")
        if not self.eps_outer > 0:
            raise ParameterError(f"eps_outer must be > 0, got {self.eps_outer}")
        if self.eps_inner is not None and not self.eps_inner > 0:
            raise ParameterError(f"eps_inner must be > 0, got {self.eps_inner}")
        if not (_is_count(self.max_outer) and _is_count(self.max_inner)):
            raise ParameterError("max_outer and max_inner must be integers >= 1, "
                                 f"got {self.max_outer!r} and {self.max_inner!r}")
        if self.stop_mode not in _STOP_MODES:
            raise ParameterError(f"stop_mode must be one of {_STOP_MODES}, got {self.stop_mode!r}")

    @property
    def inner_tol(self) -> float:
        return self.eps_outer if self.eps_inner is None else self.eps_inner


@dataclass
class SolverState:
    """Mutable iterate bundle for one solve. ``e`` and ``z`` live in the
    DCT domain."""

    x: Tensor3
    w: Tensor3
    e: Tensor3
    y: Tensor3
    z: Tensor3
    mu: float
    inner_iter: int = 0
    outer_iter: int = 0


@dataclass(frozen=True)
class SolveReport:
    """Result of srtd_complete. ``final_residuals`` is
    (‖x−w‖_F, ‖e−dct3(x)‖_F, ‖Δx‖_F at the last outer step)."""

    recovered: Tensor3
    outer_iters: int
    inner_iters_total: int
    final_residuals: tuple
    objective_trace: tuple
    wall_time: float
    seed: int


def soft_threshold(x, tau):
    """sgn(x)·max(|x|−tau, 0), elementwise; the ℓ1 proximal operator.

    Computed as x − clip(x, −tau, tau), which has the same values in fewer
    passes; only the sign of a zero result can differ."""
    return x - np.clip(x, -tau, tau)


def update_x(state: SolverState, cfg: SolverConfig, back: Tensor3 | None = None) -> Tensor3:
    """X-update; ``back`` stands in for idct3(e + z/mu) when given."""
    if back is None:
        back = idct3(state.e + state.z / state.mu)
    avg = 0.5 * (state.w - state.y / state.mu + back)
    del back  # not held through the SVT, which may shrink several slices at once
    return svt(avg, 1.0 / (2.0 * state.mu))


def update_e(state: SolverState, cfg: SolverConfig, dx: Tensor3) -> Tensor3:
    """E-update; ``dx`` is dct3(state.x)."""
    return soft_threshold(dx - state.z / state.mu, cfg.lam / state.mu)


def update_w(state: SolverState, cfg: SolverConfig, m: Tensor3, omega, grad: Tensor3) -> Tensor3:
    """W-update; ``grad`` is tproduct(ttranspose(a_k), b_k)."""
    w_free = state.x + (grad + state.y) / state.mu
    # observed entries are pinned to the data, free entries keep the update
    return np.where(omega, m, w_free)


def update_mu(state: SolverState, cfg: SolverConfig) -> float:
    return min(cfg.rho * state.mu, cfg.mu_max)


def _check_mask(omega, shape) -> np.ndarray:
    omega = np.asarray(omega)
    if omega.dtype != np.bool_:
        raise ParameterError(f"omega must be a boolean array, got dtype {omega.dtype}")
    if omega.shape != shape:
        raise DimensionError(f"omega shape {omega.shape} does not match tensor shape {shape}")
    return omega


def admm_solve(m: Tensor3, omega, a_k: Tensor3, b_k: Tensor3, cfg: SolverConfig,
               warm: SolverState | None = None, sparse_term: bool = True) -> SolverState:
    """Inner ADMM for fixed truncated factors.

    ``warm`` continues a previous state (duals and mu included); otherwise
    x = w = m, e = z = 0, and y is seeded uniform [0,1). Stops when the
    iterate change passes cfg's inner test or max_inner is hit. Raises
    DivergenceError if an iterate goes non-finite.

    With ``sparse_term=False`` the E/Z steps are skipped and the X-update's
    idct3(e + z/mu) is taken to be the previous x, which is what it equals
    after any sweep with lam = 0. The first sweep of a cold start still
    computes it from e = z = 0.
    """
    m = astensor3(m, "m")
    omega = _check_mask(omega, m.shape)
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
        # only a cold start's first sweep reads e = z = 0 (see the docstring)
        cold = warm is None and t == 1
        state.x = update_x(state, cfg, None if sparse_term or cold else x_prev)
        if not np.isfinite(state.x).all():
            raise DivergenceError(f"non-finite x iterate at inner step {t}",
                                  outer_iter=state.outer_iter, inner_iter=t)
        if sparse_term:
            dx = dct3(state.x)
            state.e = update_e(state, cfg, dx)
            state.z = state.z + state.mu * (state.e - dx)
            del dx  # not held while the W-update allocates
        state.w = update_w(state, cfg, m, omega, grad)
        if not np.isfinite(state.w).all():
            raise DivergenceError(f"non-finite w iterate at inner step {t}",
                                  outer_iter=state.outer_iter, inner_iter=t)
        state.y = state.y + state.mu * (state.x - state.w)
        state.mu = update_mu(state, cfg)
        state.inner_iter = t

        delta = fro_norm(state.x - x_prev)
        if cfg.stop_mode == "relative":
            delta /= max(1.0, fro_norm(state.x))
        if delta <= cfg.inner_tol:
            break
    return state


def _surrogate(x, a_k, b_k, lam) -> float:
    return tnn(x) - trace_pair(tproduct(a_k, x), ttranspose(b_k)) + lam * l1_norm(dct3(x))


def srtd_complete(m: Tensor3, omega, cfg: SolverConfig, sparse_term: bool = True) -> SolveReport:
    """Complete tensor ``m`` observed on ``omega``.

    Outer alternation: take the cfg.r leading T-SVD factors of the current
    estimate, run the warm-started inner ADMM, stop on the outer
    iterate-change test.
    The returned tensor equals ``m`` exactly (bitwise) on the observed set.
    """
    m = astensor3(m, "m")
    omega = _check_mask(omega, m.shape)
    if not omega.any():
        raise ParameterError("omega has no observed entries")
    if cfg.r > min(m.shape[0], m.shape[1]):
        raise ParameterError(
            f"truncation rank {cfg.r} exceeds min(n1,n2) = {min(m.shape[0], m.shape[1])}")
    if not np.isfinite(m[omega]).all():
        raise ParameterError("observed entries contain non-finite values")

    start = time.perf_counter()
    m_obs = np.where(omega, m, 0.0)
    x_cur = m_obs
    state = None
    trace = []
    inner_total = 0
    outer_done = 0
    delta = np.inf

    for k in range(1, cfg.max_outer + 1):
        u_r, v_r = tsvd_leading(x_cur, cfg.r)
        a_k, b_k = ttranspose(u_r), ttranspose(v_r)
        trace.append(_surrogate(x_cur, a_k, b_k, cfg.lam))
        if state is not None:
            state.outer_iter = k
        try:
            state = admm_solve(m_obs, omega, a_k, b_k, cfg, warm=state, sparse_term=sparse_term)
        except DivergenceError as err:
            raise DivergenceError(
                f"solver diverged at outer step {k}, inner step {err.inner_iter}",
                outer_iter=k, inner_iter=err.inner_iter) from err
        state.outer_iter = k
        inner_total += state.inner_iter
        outer_done = k

        delta = fro_norm(state.x - x_cur)
        if cfg.stop_mode == "relative":
            delta /= max(1.0, fro_norm(state.x))
        x_cur = state.x
        if delta <= cfg.eps_outer:
            break

    trace.append(_surrogate(x_cur, a_k, b_k, cfg.lam))
    recovered = np.where(omega, m, state.x)
    # without the sparsity term there is no E-constraint, so its gap is 0
    e_gap = fro_norm(state.e - dct3(state.x)) if sparse_term else 0.0
    residuals = (fro_norm(state.x - state.w), e_gap, float(delta))
    return SolveReport(
        recovered=recovered,
        outer_iters=outer_done,
        inner_iters_total=inner_total,
        final_residuals=residuals,
        objective_trace=tuple(trace),
        wall_time=time.perf_counter() - start,
        seed=cfg.seed,
    )
