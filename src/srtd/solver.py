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
dct3(X). a_k^T * b_k is fixed within an outer step and has tubal rank r:
the step keeps only the mode-3 spectra of a_k^T and b_k, n r values per
frequency each, and the W-update rebuilds the product into W's buffer, a
block of rows at a time, so that no sweep holds it as a full tensor. The
sweep updates W, Y and Z in place and needs no work buffer. The
X-update forms its argument in W's buffer and idct3(E + Z/mu) in E's, so
both are spent before the SVT: W is rebuilt from X and Y alone, and E
from dct3(X) and Z. E's buffer is released before the SVT, which
allocates the new X only once its slices are shrunk. The iterate change,
dct3(X) and the Z-update then use W's buffer before the W-update refills
it, and the new E goes into the previous X's buffer.

With lambda = 0 (plain TNNR) and Z = 0 on entry, E = dct3(X) and Z = 0
after every sweep, so the inner loop skips the E/Z steps, uses the previous
X for idct3(E + Z/mu), and sets E = dct3(X) once at the end of the call.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DivergenceError, ParameterError
from .t_algebra import (spectral_product, stacked_spectrum, svt, tnn, tproduct, trace_pair,
                        tsvd_leading)
from .tensor_core import Tensor3, astensor3, fro_norm, ttranspose
from .transforms import dct3, idct3, slabs

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
        # an infinite tolerance passes every stop test after one sweep
        if not (math.isfinite(self.eps_outer) and self.eps_outer > 0):
            raise ParameterError(f"eps_outer must be finite and > 0, got {self.eps_outer}")
        if self.eps_inner is not None and not (math.isfinite(self.eps_inner)
                                               and self.eps_inner > 0):
            raise ParameterError(f"eps_inner must be finite and > 0, got {self.eps_inner}")
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
    (‖x−w‖_F, ‖e−dct3(x)‖_F, d), d being the value the last outer stop test
    compared with eps_outer: ‖Δx‖_F with stop_mode="absolute", and
    ‖Δx‖_F / max(1, ‖x‖_F) with stop_mode="relative", Δx being the last
    outer step's change of x."""

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


def _add_scaled_difference(y: Tensor3, x: Tensor3, w: Tensor3, mu: float) -> None:
    """y += mu (x - w), a slab at a time, in the operations and order of
    ``y + mu * (x - w)``; the last slab's temporary dies with the call
    instead of living through the next sweep's SVT."""
    for s in slabs(y.shape):
        step = np.subtract(x[s], w[s])
        step *= mu
        np.add(y[s], step, out=y[s])
        del step  # not held while the next slab's is made


def _pin(w: Tensor3, m: Tensor3, omega) -> None:
    """w[omega] = m[omega], bit for bit, a slab at a time: each slab's
    w ^= (w ^ m) * omega on the values' 64-bit patterns, which is 2-3 times
    as fast as ``np.putmask`` and makes no full-size index or mask. m's
    entries off omega are never read as numbers, so they may hold NaN."""
    wb, mb = w.view(np.uint64), m.view(np.uint64)
    for s in slabs(w.shape):
        flip = np.bitwise_xor(wb[s], mb[s])
        flip *= omega[s]
        wb[s] ^= flip
        del flip  # not held while the next slab's is made


def update_x(state: SolverState, cfg: SolverConfig, back: Tensor3 | None = None) -> Tensor3:
    """X-update; ``back`` stands in for idct3(e + z/mu) when given.

    The SVT's argument is formed in state.w's buffer, and idct3(e + z/mu),
    when computed here, in state.e's; both are overwritten. state.e is set
    to None before the SVT, so that its buffer can be freed while the
    slices are shrunk. Returns the new x, a new array; y and z are not
    modified."""
    w, e = state.w, state.e
    state.e = None
    for s in slabs(w.shape):
        if back is None:
            np.add(e[s], state.z[s] / state.mu, out=e[s])
        np.subtract(w[s], state.y[s] / state.mu, out=w[s])
    if back is None:
        back = idct3(e, out=e)
    del e
    w += back
    del back  # not held through the SVT, which may shrink several slices at once
    w *= 0.5
    return svt(w, 1.0 / (2.0 * state.mu))


def update_e(state: SolverState, cfg: SolverConfig, dx: Tensor3,
             out: Tensor3 | None = None) -> Tensor3:
    """E-update; ``dx`` is dct3(state.x). Written into ``out`` when given,
    which may be state.e; nothing else is modified."""
    e = np.empty(dx.shape) if out is None else out
    np.divide(state.z, state.mu, out=e)
    np.subtract(dx, e, out=e)
    # soft_threshold in place, a slab at a time so that clip's result stays small
    tau = cfg.lam / state.mu
    for s in slabs(e.shape):
        es = e[s]
        es -= np.clip(es, -tau, tau)
    return e


def factor_spectra(a_k: Tensor3, b_k: Tensor3) -> tuple:
    """The stacked mode-3 spectra of ttranspose(a_k) and b_k, from which
    ``update_w`` rebuilds tproduct(ttranspose(a_k), b_k)."""
    return stacked_spectrum(ttranspose(a_k)), stacked_spectrum(b_k)


def update_w(state: SolverState, cfg: SolverConfig, m: Tensor3, omega, factors: tuple,
             out: Tensor3 | None = None) -> Tensor3:
    """W-update; ``factors`` is factor_spectra(a_k, b_k). The rank-r term
    tproduct(ttranspose(a_k), b_k) is rebuilt bit for bit into the result,
    a block of rows at a time, before y is added. ``m`` is read only on
    ``omega``. Written into ``out`` when given, which may be state.w;
    nothing else is modified."""
    w = spectral_product(*factors, state.x.shape[2], out=out)
    w += state.y
    w /= state.mu
    np.add(state.x, w, out=w)
    # observed entries are pinned to the data, free entries keep the update
    _pin(w, m, omega)
    return w


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
               warm: SolverState | None = None) -> SolverState:
    """Inner ADMM for fixed truncated factors.

    ``m`` is read only on ``omega``; its other entries may hold anything.
    ``warm`` continues a previous state (duals and mu included) and is
    returned, with its w, y and z updated in place and its x and e rebound:
    the array it held as e is overwritten and then dropped, and the array
    it held as x is never written, so a caller may keep it. If the call
    raises, the state's e holds no E iterate and may be None. Without
    ``warm``, x = w = m on omega and 0 elsewhere, e = z = 0, and y is
    seeded uniform [0,1). Stops when the iterate change passes cfg's inner
    test or max_inner is hit. Raises DivergenceError if an iterate goes
    non-finite.

    With cfg.lam = 0 and z all zero on entry (a cold start, or any state
    such a call returns), the E/Z steps are skipped: after the first sweep
    idct3(e + z/mu) is taken to be the previous x, which it equals up to
    round-off, and e = dct3(x) is set at the end; z stays 0.
    """
    m = astensor3(m, "m")
    omega = _check_mask(omega, m.shape)
    if warm is None:
        rng = np.random.default_rng(cfg.seed)
        x = np.where(omega, m, 0.0)
        state = SolverState(
            x=x, w=x.copy(),
            e=np.zeros(m.shape), y=rng.random(m.shape), z=np.zeros(m.shape),
            mu=cfg.mu_init,
        )
    else:
        state = warm
    state.inner_iter = 0
    factors = factor_spectra(a_k, b_k)
    skip_ez = cfg.lam == 0 and not state.z.any()
    # The updates write into the state's buffers, in the same operations,
    # in the same order, as their allocating forms. w's buffer holds the
    # SVT's argument, then the iterate change and dct3(x), until the
    # W-update refills it; e takes the previous x's buffer.
    owned = warm is None  # whether this call made the x it starts from

    for t in range(1, cfg.max_inner + 1):
        x_prev = state.x
        state.x = x = update_x(state, cfg, x_prev if skip_ez and t > 1 else None)
        if not np.isfinite(x).all():
            raise DivergenceError(f"non-finite x iterate at inner step {t}",
                                  outer_iter=state.outer_iter, inner_iter=t)
        w = state.w
        delta = fro_norm(np.subtract(x, x_prev, out=w))
        if cfg.stop_mode == "relative":
            delta /= max(1.0, fro_norm(x))
        # the previous x is dead unless the caller keeps it (a warm start's x)
        state.e = x_prev if owned else None
        owned = True
        if not skip_ez:
            dx = dct3(x, out=w)
            state.e = update_e(state, cfg, dx, out=state.e)
            # z += mu (e - dx), with the product formed in dx's buffer
            np.subtract(state.e, dx, out=dx)
            dx *= state.mu
            state.z += dx
        update_w(state, cfg, m, omega, factors, out=w)
        if not np.isfinite(w).all():
            raise DivergenceError(f"non-finite w iterate at inner step {t}",
                                  outer_iter=state.outer_iter, inner_iter=t)
        _add_scaled_difference(state.y, x, w, state.mu)
        state.mu = update_mu(state, cfg)
        state.inner_iter = t
        if delta <= cfg.inner_tol:
            break
    if skip_ez:
        state.e = dct3(state.x, out=state.e)
    return state


def _surrogate(x, a_k, b_k, lam) -> float:
    low_rank = tnn(x) - trace_pair(tproduct(a_k, x), ttranspose(b_k))
    d = dct3(x)
    np.abs(d, out=d)  # in dct3's own result: no second full-size array
    return low_rank + lam * float(d.sum())


def srtd_complete(m: Tensor3, omega, cfg: SolverConfig) -> SolveReport:
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
    x_cur = np.where(omega, m, 0.0)  # the zero-filled observation
    state = None
    trace = []
    inner_total = 0
    outer_done = 0
    delta = np.inf

    for k in range(1, cfg.max_outer + 1):
        u_r, v_r = tsvd_leading(x_cur, cfg.r)
        a_k, b_k = ttranspose(u_r), ttranspose(v_r)
        trace.append(_surrogate(x_cur, a_k, b_k, cfg.lam))
        if state is None:
            x_cur = None  # not held through the solve; its cold start rebuilds it
        else:
            state.outer_iter = k
        try:
            state = admm_solve(m, omega, a_k, b_k, cfg, warm=state)
        except DivergenceError as err:
            raise DivergenceError(
                f"solver diverged at outer step {k}, inner step {err.inner_iter}",
                outer_iter=k, inner_iter=err.inner_iter) from err
        state.outer_iter = k
        inner_total += state.inner_iter
        outer_done = k

        if x_cur is None:  # the change from the zero-filled observation
            change = state.x.copy()
            np.subtract(change, m, out=change, where=omega)
        else:  # x_cur's buffer is not read again
            change = np.subtract(state.x, x_cur, out=x_cur)
        delta = fro_norm(change)
        del change  # not held through the next step's factors
        if cfg.stop_mode == "relative":
            delta /= max(1.0, fro_norm(state.x))
        x_cur = state.x
        if delta <= cfg.eps_outer:
            break

    trace.append(_surrogate(x_cur, a_k, b_k, cfg.lam))
    # the state is not returned, so its buffers take the last results:
    # x - w goes in w's, dct3(x) - e (the negation, same norm) in dct3's
    # result, and the recovered tensor in x's
    x = state.x
    dx = dct3(x)
    residuals = (fro_norm(np.subtract(x, state.w, out=state.w)),
                 fro_norm(np.subtract(dx, state.e, out=dx)), float(delta))
    del dx
    _pin(x, m, omega)
    return SolveReport(
        recovered=x,
        outer_iters=outer_done,
        inner_iters_total=inner_total,
        final_residuals=residuals,
        objective_trace=tuple(trace),
        wall_time=time.perf_counter() - start,
        seed=cfg.seed,
    )
