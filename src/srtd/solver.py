"""Tensor completion engine: truncated tensor nuclear norm + DCT-domain
ℓ1 sparsity, minimized by a two-loop ADMM.

Outer loop: take the r leading T-SVD factors of the current estimate,
freeze them, hand the resulting convex subproblem to the inner loop. Inner
loop: ADMM sweeps in the fixed order X -> E -> Z -> W -> Y -> mu, where E
lives in the 3-D DCT domain, W carries the observation constraint, Y and Z
are the duals for X=W and E=dct3(X), and mu grows geometrically up to a
cap. The inner loop is warm-started from the previous outer iterate; mu
is not reset between outer steps.

All updates are closed-form:

    X = svt( (W - Y/mu + idct3(E + Z/mu)) / 2, 1/(2 mu) )
    E = soft_threshold( dct3(X) - Z/mu, lambda/mu )
    Z += mu (E - dct3(X))
    W = X + (U_r * V_r^T + Y)/mu,  then W on the observed set := M
    Y += mu (X - W);  mu = min(rho mu, mu_max)

Z reads only E, X, Z and mu, so it follows E directly and shares its
dct3(X). U_r * V_r^T, the t-product of the leading T-SVD factors, is fixed
within an outer step and has tubal rank r: the step keeps the factors as
``tsvd_leading`` returns them, each frequency slice's U_f[:, :r] and
V_f^H[:r], and the W-update rebuilds their product into W's buffer, a
block of rows at a time, so that no sweep holds it as a full tensor.

Between sweeps the state is four tensors: X, the argument of the next
X-update's SVT, and the duals Y and Z. A sweep runs

    SVT -> E -> Z -> W -> Y -> mu -> the next argument

The SVT writes the new X over the previous one, a block of rows at a time,
and returns the iterate change. Its argument's buffer is spent once the
SVT has read it: the SVT holds its shrinking frequency slices there, and
then it holds dct3(X) and the Z-update's difference, then W, and at the
end of the sweep the next argument, formed from W, Y, Z, mu and E. Beside
the SVT's spectrum, which it holds only until the slices are moved into
that buffer, E is the only full-size array a sweep allocates, and it is
dropped once the argument is formed. The sweep takes its residuals ‖X−W‖
and ‖E−dct3(X)‖ from the Y- and Z-updates' differences. The outer loop
keeps no copy of X: it stops once an outer step's first sweep changes X
by at most eps_outer, which means that the step ran one sweep.

With lambda = 0 (plain TNNR) and Z = 0 on entry, E = dct3(X) and Z = 0
after every sweep, so the inner loop skips the E/Z steps and uses X for
idct3(E + Z/mu) in the next argument.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DivergenceError, ParameterError
from .t_algebra import spectral_product, svt, tnn, tsvd_leading
from .tensor_core import Tensor3, astensor3, fro_norm
from .transforms import dct3, idct3, slabs

_STOP_MODES = ("relative", "absolute")


def _is_count(value) -> bool:
    """An integer >= 1; a float such as 2.5 or 3.0 is not one."""
    return isinstance(value, numbers.Integral) and value >= 1


@dataclass(frozen=True)
class SolverConfig:
    """Solver parameters. ``r`` is the truncation rank and must not exceed
    min(n1, n2) of the tensor being completed; ``lam`` weights the DCT-domain
    ℓ1 term; ``eps_outer`` is the tolerance of both the inner and the outer
    stop test."""

    r: int
    lam: float = 0.05
    rho: float = 1.1
    mu_init: float = 1e-4
    mu_max: float = 1e10
    eps_outer: float = 1e-3
    max_outer: int = 50
    max_inner: int = 200
    stop_mode: str = "relative"
    seed: int = 0

    def __post_init__(self):
        for name, value in vars(self).items():  # a bool passes every check below as 0 or 1
            if isinstance(value, bool):
                raise ParameterError(f"{name} must not be a bool, got {value!r}")
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
        if not (_is_count(self.max_outer) and _is_count(self.max_inner)):
            raise ParameterError("max_outer and max_inner must be integers >= 1, "
                                 f"got {self.max_outer!r} and {self.max_inner!r}")
        if self.stop_mode not in _STOP_MODES:
            raise ParameterError(f"stop_mode must be one of {_STOP_MODES}, got {self.stop_mode!r}")
        # numpy's generator would raise ValueError only once a solve seeds it
        if not (isinstance(self.seed, numbers.Integral) and self.seed >= 0):
            raise ParameterError(f"seed must be an integer >= 0, got {self.seed!r}")


@dataclass
class SolverState:
    """Iterate bundle of one solve between sweeps: x, ``arg`` (the argument
    of the next X-update's SVT), and the duals y and z, z in the DCT
    domain. W and E live only inside a sweep. ``first_change`` is the
    last call's first-sweep change of x, as its stop test measures it, and
    ``residuals`` the last sweep's (‖x−w‖_F, ‖e−dct3(x)‖_F)."""

    x: Tensor3
    arg: Tensor3
    y: Tensor3
    z: Tensor3
    mu: float
    inner_iter: int = 0
    outer_iter: int = 0
    first_change: float = math.inf
    residuals: tuple = (math.inf, math.inf)


@dataclass(frozen=True)
class SolveReport:
    """Result of srtd_complete. ``final_residuals`` is
    (‖x−w‖_F, ‖e−dct3(x)‖_F, d): the first two are the last sweep's, as
    its Y- and Z-updates formed them, and d is the value the last outer
    stop test compared with eps_outer, the last outer step's first-sweep
    change of x: ‖Δx‖_F with stop_mode="absolute", and
    ‖Δx‖_F / max(1, ‖x‖_F) with stop_mode="relative"."""

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


def _add_scaled_difference(y: Tensor3, x: Tensor3, w: Tensor3, mu: float) -> float:
    """y += mu (x - w), a slab at a time, in the operations and order of
    ``y + mu * (x - w)``; returns ‖x − w‖_F, from the slabs' sums of
    squares. The last slab's temporary dies with the call instead of
    living through the next sweep's SVT."""
    squares = 0.0
    for s in slabs(y.shape):
        step = np.subtract(x[s], w[s])
        squares += float(np.vdot(step, step))
        step *= mu
        np.add(y[s], step, out=y[s])
        del step  # not held while the next slab's is made
    return math.sqrt(squares)


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


def update_x(state: SolverState, cfg: SolverConfig, w: Tensor3,
             e: Tensor3 | None = None) -> Tensor3:
    """The next X-update's argument, (w − y/mu + idct3(e + z/mu)) / 2,
    formed in w's buffer and returned; idct3(e + z/mu) is formed in e's,
    and both are overwritten. With ``e`` None, state.x stands in for
    idct3(e + z/mu). x, y and z are not modified. The X-update itself,
    x = svt(argument, 1/(2 mu)), opens the next sweep."""
    for s in slabs(w.shape):
        if e is not None:
            np.add(e[s], state.z[s] / state.mu, out=e[s])
        np.subtract(w[s], state.y[s] / state.mu, out=w[s])
    w += state.x if e is None else idct3(e, out=e)
    w *= 0.5
    return w


def update_e(state: SolverState, cfg: SolverConfig, dx: Tensor3) -> Tensor3:
    """E-update, into a new array; ``dx`` is dct3(state.x). Nothing else is
    modified."""
    e = np.divide(state.z, state.mu)
    np.subtract(dx, e, out=e)
    # soft_threshold in place, a slab at a time so that clip's result stays small
    tau = cfg.lam / state.mu
    for s in slabs(e.shape):
        es = e[s]
        es -= np.clip(es, -tau, tau)
    return e


def update_w(state: SolverState, cfg: SolverConfig, m: Tensor3, omega, factors: tuple,
             out: Tensor3 | None = None) -> Tensor3:
    """W-update; ``factors`` is the pair ``tsvd_leading`` returns. Their
    t-product, the rank-r term, is rebuilt into the result, a block of rows
    at a time, before y is added. ``m`` is read only on ``omega``. Written
    into ``out`` when given, which may be state.arg; nothing else is
    modified."""
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


def admm_solve(m: Tensor3, omega, factors: tuple, cfg: SolverConfig,
               warm: SolverState | None = None) -> SolverState:
    """Inner ADMM for the fixed truncated ``factors`` of ``tsvd_leading``.

    ``m`` is read only on ``omega``; its other entries may hold anything.
    ``warm`` continues a previous state (duals and mu included) and is
    returned, with all four of its arrays updated in place; if the call
    raises, its x and arg hold no iterate. Without ``warm``, x = m on
    omega and 0 elsewhere, y is seeded uniform [0,1), z = 0, and arg is
    formed from w = x and e = 0. Stops when the iterate change is at most
    cfg.eps_outer or max_inner is hit. Raises DivergenceError if an
    iterate goes non-finite.

    With cfg.lam = 0 and z all zero on entry (a cold start, or any state
    such a call returns), the E/Z steps are skipped: each sweep's x stands
    in for idct3(e + z/mu) in the next argument, which it equals up to
    round-off, and z stays 0.
    """
    m = astensor3(m, "m")
    omega = _check_mask(omega, m.shape)
    if warm is None:
        rng = np.random.default_rng(cfg.seed)
        x = np.where(omega, m, 0.0)
        state = SolverState(x=x, arg=None, y=rng.random(m.shape), z=np.zeros(m.shape),
                            mu=cfg.mu_init)
        state.arg = update_x(state, cfg, x.copy(), np.zeros(m.shape))
    else:
        state = warm
    state.inner_iter = 0
    skip_ez = cfg.lam == 0 and not state.z.any()
    # The updates write into the state's buffers, in the same operations,
    # in the same order, as their allocating forms. The SVT shrinks its
    # slices in arg's buffer and writes x into the previous x's; arg's
    # buffer then holds dct3(x) and the Z-update's difference, and then w
    # and the next argument. Only e, between the E-update and the next
    # argument, takes a new buffer.

    for t in range(1, cfg.max_inner + 1):
        x, w = state.x, state.arg
        # w's buffer is refilled in full below, by dct3(x) or the W-update
        delta = svt(w, 1.0 / (2.0 * state.mu), out=x, _consume=True)
        if not np.isfinite(x).all():
            raise DivergenceError(f"non-finite x iterate at inner step {t}",
                                  outer_iter=state.outer_iter, inner_iter=t)
        if cfg.stop_mode == "relative":
            delta /= max(1.0, fro_norm(x))
        e, dct_residual = None, 0.0
        if not skip_ez:
            dx = dct3(x, out=w)
            e = update_e(state, cfg, dx)
            # z += mu (e - dx), with the product formed in dx's buffer
            np.subtract(e, dx, out=dx)
            dct_residual = fro_norm(dx)
            dx *= state.mu
            state.z += dx
        update_w(state, cfg, m, omega, factors, out=w)
        if not np.isfinite(w).all():
            raise DivergenceError(f"non-finite w iterate at inner step {t}",
                                  outer_iter=state.outer_iter, inner_iter=t)
        state.residuals = (_add_scaled_difference(state.y, x, w, state.mu), dct_residual)
        state.mu = update_mu(state, cfg)
        state.arg = update_x(state, cfg, w, e)
        del e  # not held through the next sweep's SVT
        state.inner_iter = t
        if t == 1:
            state.first_change = delta
        if delta <= cfg.eps_outer:
            break
    return state


def _surrogate(x, factors, lam) -> float:
    """tnn(x) - tr(U_r^T * x * V_r) + lam ||dct3(x)||_1, ``factors`` being
    U_r's and V_r^T's spectral stacks. The trace of a t-product reads only
    its zero-frequency slice, the first of each real stack."""
    (fu, _), (fv, _) = factors
    low_rank = tnn(x) - float(np.sum((fu[0].T @ x.sum(2)) * fv[0]))
    if lam == 0:
        return low_rank
    d = dct3(x)
    np.abs(d, out=d)  # in dct3's own result: no second full-size array
    return low_rank + lam * float(d.sum())


def check_problem(m: Tensor3, omega, cfg: SolverConfig) -> tuple:
    """``m`` and ``omega`` as ``srtd_complete`` takes them, or the
    ParameterError or DimensionError it would raise on them."""
    m = astensor3(m, "m")
    omega = _check_mask(omega, m.shape)
    if not omega.any():
        raise ParameterError("omega has no observed entries")
    if cfg.r > min(m.shape[0], m.shape[1]):
        raise ParameterError(
            f"truncation rank {cfg.r} exceeds min(n1,n2) = {min(m.shape[0], m.shape[1])}")
    if not np.isfinite(m[omega]).all():
        raise ParameterError("observed entries contain non-finite values")
    return m, omega


def srtd_complete(m: Tensor3, omega, cfg: SolverConfig) -> SolveReport:
    """Complete tensor ``m`` observed on ``omega``.

    Outer alternation: take the cfg.r leading T-SVD factors of the current
    estimate, run the warm-started inner ADMM, and stop once a step's first
    sweep changes x by at most eps_outer: that step ran one sweep, and its
    change is the whole step's. Raises what ``check_problem`` raises.
    The returned tensor equals ``m`` exactly (bitwise) on the observed set.
    """
    m, omega = check_problem(m, omega, cfg)
    start = time.perf_counter()
    x = np.where(omega, m, 0.0)  # step 1 starts from the zero-filled observation
    state = None
    trace = []
    inner_total = 0
    outer_done = 0

    for k in range(1, cfg.max_outer + 1):
        factors = tsvd_leading(x, cfg.r)
        trace.append(_surrogate(x, factors, cfg.lam))
        del x  # step 1's is not held through the solve: its cold start rebuilds it
        if state is not None:
            state.outer_iter = k
        try:
            state = admm_solve(m, omega, factors, cfg, warm=state)
        except DivergenceError as err:
            raise DivergenceError(
                f"solver diverged at outer step {k}, inner step {err.inner_iter}",
                outer_iter=k, inner_iter=err.inner_iter) from err
        state.outer_iter = k
        inner_total += state.inner_iter
        outer_done = k
        x = state.x
        if state.first_change <= cfg.eps_outer:
            break

    trace.append(_surrogate(x, factors, cfg.lam))
    _pin(x, m, omega)  # the state is not returned: x's buffer takes the result
    return SolveReport(
        recovered=x,
        outer_iters=outer_done,
        inner_iters_total=inner_total,
        final_residuals=(*state.residuals, float(state.first_change)),
        objective_trace=tuple(trace),
        wall_time=time.perf_counter() - start,
        seed=cfg.seed,
    )
