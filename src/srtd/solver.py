"""Tensor completion engine: truncated tensor nuclear norm + DCT-domain
ℓ1 sparsity, minimized by a two-loop ADMM.

Outer loop: take the r leading T-SVD factors of the current estimate,
freeze them, and hand the convex subproblem to the inner loop, warm-started
from the previous outer iterate (mu is not reset). Inner loop: ADMM sweeps
X -> E -> Z -> W -> Y -> mu, where E lives in the 3-D DCT domain, W carries
the observation constraint, Y and Z are the duals for X=W and E=dct3(X),
and mu grows geometrically up to a cap. All updates are closed-form, S
being the ℓ1 prox, soft thresholding sgn(v)·max(|v|−t, 0):

    X = svt( (W - Y/mu + idct3(E + Z/mu)) / 2, 1/(2 mu) )
    E = S( dct3(X) - Z/mu, lambda/mu )
    Z += mu (E - dct3(X))
    W = X + (T + Y)/mu,  then W on the observed set := M
    Y += mu (X - W);  mu = min(rho mu, mu_max)

T = U_r * V_r^T, the t-product of the leading factors, is fixed within an
outer step. Only the first sweep of an ``admm_solve`` call builds it, a
block of rows at a time inside the W-update: that sweep leaves Y = -T off
the observed set, to round-off, so later sweeps take W = X there.

Between sweeps the state is four tensors: X, the next SVT's argument, Y
and Z. The SVT writes the new X over the previous one and returns the
iterate change. It shrinks its frequency slices in its argument's spent
buffer, which then holds dct3(X), E + Z/mu (``update_ez``, a slab at a
time), its idct3, and the next argument (``update_wy``, a block of rows
at a time). So no sweep holds E or W whole, and it sums its residuals
‖X−W‖ and ‖E−dct3(X)‖ slab by slab. The outer loop keeps no copy of X: it
stops once a step's first sweep changes X by at most eps_outer, that is,
once a step ran one sweep.

``admm_solve`` sets mu's schedule before each ``_sweep`` and tests the
sweep's change of X after it; the sweep reads neither rule. Every sweep
sums |dct3(X)| over its E-update's slabs, and the reported objective's
ℓ1 term is the last sweep's: only outer step 1, before any sweep, takes
a dct3 of X for it.

With lambda = 0 and Z = 0 on entry, E = dct3(X) and Z = 0 after every
sweep, so the E/Z steps are skipped and X stands in for idct3(E + Z/mu).
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DivergenceError, ParameterError
from .t_algebra import row_blocks, spectral_product, svt, tnn, tsvd_leading
from .tensor_core import Tensor3, astensor3, check_mask, fro_norm
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
    ``residuals`` the last sweep's (‖x−w‖_F, ‖e−dct3(x)‖_F). ``l1`` is
    ‖dct3(x)‖_1 of the last sweep's x, summed slab by slab by its E-update;
    NaN where lambda = 0 skipped the E/Z steps."""

    x: Tensor3
    arg: Tensor3
    y: Tensor3
    z: Tensor3
    mu: float
    inner_iter: int = 0
    first_change: float = math.inf
    residuals: tuple = (math.inf, math.inf)
    l1: float = math.nan


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


def update_ez(state: SolverState, cfg: SolverConfig, mu_next: float) -> tuple:
    """The E- and Z-updates, a slab at a time, on state.arg holding
    dct3(x): each slab of e is formed beside it, z += mu (e − dct3(x)), and
    the slab is left holding e + z/mu_next. Returns (‖e − dct3(x)‖_F,
    ‖dct3(x)‖_1), both summed over the slabs, the latter as ``_surrogate``
    sums it."""
    tau = cfg.lam / state.mu
    squares = l1 = 0.0
    for s in slabs(state.arg.shape):
        dx, z = state.arg[s], state.z[s]
        l1 += float(np.abs(dx).sum())
        e = z / state.mu
        np.subtract(dx, e, out=e)
        e -= np.clip(e, -tau, tau)  # S(e, tau), in place
        np.subtract(e, dx, out=dx)  # the Z-update's difference, in dx's rows
        squares += float(np.vdot(dx, dx))
        dx *= state.mu
        z += dx
        np.add(e, np.divide(z, mu_next, out=dx), out=dx)
        del e  # not held while the next slab's is made
    return math.sqrt(squares), l1


def update_wy(state: SolverState, m: Tensor3, omega, factors: tuple | None,
              back: Tensor3, mu_next: float) -> float:
    """The W- and Y-updates and the next X-update's argument, block by
    block of ``row_blocks``: w = x + (T + y)/mu, T's rows arriving from
    ``spectral_product(*factors)``, or w = x with ``factors`` None; w on
    omega := m (read only there); y += mu (x − w); and state.arg = (w −
    y/mu_next + back) / 2, ``back`` (which may be state.arg) holding
    idct3(e + z/mu_next) or x in its place. Returns ‖x − w‖_F. Only a w
    built from T is checked for finiteness: a pinned x is finite once x is."""
    x, y, mu = state.x, state.y, state.mu
    squares = 0.0

    def block(w, s):
        nonlocal squares
        if w is None:
            w = x[s].copy()
        else:
            w += y[s]
            w /= mu
            np.add(x[s], w, out=w)
        _pin(w, m[s], omega[s])
        if factors is not None and not np.isfinite(w).all():
            t = state.inner_iter + 1
            raise DivergenceError(f"non-finite w iterate at inner step {t}", inner_iter=t)
        step = np.subtract(x[s], w)
        squares += float(np.vdot(step, step))
        step *= mu
        np.add(y[s], step, out=y[s])
        del step  # not held beside the argument's temporary
        np.subtract(w, y[s] / mu_next, out=w)
        np.add(w, back[s], out=state.arg[s])
        state.arg[s] *= 0.5

    if factors is None:
        for s in row_blocks(x.shape):
            block(None, s)
    else:
        spectral_product(*factors, x.shape[2], take=block)
    return math.sqrt(squares)


def update_mu(state: SolverState, cfg: SolverConfig) -> float:
    return min(cfg.rho * state.mu, cfg.mu_max)


def _check_state(factors: tuple, warm: SolverState | None, shape) -> None:
    """DimensionError unless ``factors``' slices, and ``warm``'s four arrays
    if given, fit a tensor of ``shape``. Shapes cannot tell n3 = 4 from 5,
    so each slice must also be real exactly where ``_spectrum``'s are."""
    n1, n2, n3 = shape
    fu, fvh = factors
    r = fu[0].shape[-1] if fu else 0
    for slices, want in ((fu, (n1, r)), (fvh, (r, n2))):
        got = [(a.shape, np.isrealobj(a)) for a in slices]
        if got != [(want, f == 0 or 2 * f == n3) for f in range(n3 // 2 + 1)]:
            raise DimensionError(f"factor slices {got} do not fit tensor shape {shape}")
    if warm is not None:
        got = [a.shape for a in (warm.x, warm.arg, warm.y, warm.z)]
        if got != [shape] * 4:
            raise DimensionError(f"warm state arrays {got} do not match tensor shape {shape}")


def _sweep(state: SolverState, cfg: SolverConfig, m: Tensor3, omega,
           factors: tuple | None, skip_ez: bool, mu_next: float) -> float:
    """One sweep X -> E -> Z -> W -> Y in the state's buffers, ending with
    state.mu = mu_next: the E/Z steps are skipped if ``skip_ez``, and the
    rank-r term is built from ``factors`` unless they are None. Sets
    state.residuals and, unless skipped, state.l1. Returns ‖Δx‖_F."""
    x = state.x
    delta = svt(state.arg, 1.0 / (2.0 * state.mu), out=x)
    if not np.isfinite(x).all():
        t = state.inner_iter + 1
        raise DivergenceError(f"non-finite x iterate at inner step {t}", inner_iter=t)
    dct_residual = 0.0
    if not skip_ez:
        dct3(x, out=state.arg)
        dct_residual, state.l1 = update_ez(state, cfg, mu_next)
        idct3(state.arg, out=state.arg)
    primal = update_wy(state, m, omega, factors, x if skip_ez else state.arg, mu_next)
    state.residuals = (primal, dct_residual)
    state.mu = mu_next
    return delta


def admm_solve(m: Tensor3, omega, factors: tuple, cfg: SolverConfig,
               warm: SolverState | None = None) -> SolverState:
    """Inner ADMM for the fixed truncated ``factors`` of ``tsvd_leading``.

    ``m`` is read only on ``omega``; its other entries may hold anything.
    ``warm`` continues a previous state (duals and mu included) and is
    returned, with all four of its arrays updated in place. Without
    ``warm``, x = m on omega and 0 elsewhere, y is seeded uniform [0,1),
    z = 0, and arg is formed from w = x and e = 0. Each sweep is a
    ``_sweep``, after which the call stops if the iterate change is at most
    cfg.eps_outer or max_inner is hit; every sweep leaves its residuals and
    ℓ1 term in the state. Raises DimensionError, before any array is
    written, if ``factors`` or ``warm`` do not fit m, and DivergenceError,
    with its inner step and outer_iter = 0, if an iterate goes non-finite;
    after that, warm's arrays hold no iterate. With cfg.lam = 0 and z all
    zero on entry (a cold start, or any state such a call returns), the
    E/Z steps are skipped, as the module docstring says.
    """
    m = astensor3(m, "m")
    omega = check_mask(omega, m.shape)
    _check_state(factors, warm, m.shape)
    if warm is None:
        rng = np.random.default_rng(cfg.seed)
        x = np.where(omega, m, 0.0)
        state = SolverState(x=x, arg=np.zeros(m.shape), y=rng.random(m.shape),
                            z=np.zeros(m.shape), mu=cfg.mu_init)
        # the first argument, from w = x and e = 0, so that idct3(e + z/mu)
        # is the zeros arg holds; x is m on omega, so y += mu (x - x) leaves y
        update_wy(state, m, omega, None, state.arg, state.mu)
    else:
        state = warm
    state.inner_iter = 0
    skip_ez = cfg.lam == 0 and not state.z.any()
    # the updates write into the state's buffers, in the same operations,
    # in the same order, as their allocating forms

    for t in range(1, cfg.max_inner + 1):
        mu_next = update_mu(state, cfg)
        delta = _sweep(state, cfg, m, omega, factors if t == 1 else None, skip_ez, mu_next)
        if cfg.stop_mode == "relative":
            delta /= max(1.0, fro_norm(state.x))
        state.inner_iter = t
        if t == 1:
            state.first_change = delta
        if delta <= cfg.eps_outer:
            break
    return state


def _surrogate(x, factors, lam, l1: float | None = None) -> float:
    """tnn(x) - tr(U_r^T * x * V_r) + lam ||dct3(x)||_1, ``factors`` being
    U_r's and V_r^T's frequency slices. The trace of a t-product reads only
    its zero-frequency slice, the first of each list. ||dct3(x)||_1
    is ``l1`` if given (a state's, from the sweep that made x), and is
    otherwise summed over the slabs ``update_ez`` takes, in its order."""
    low_rank = tnn(x) - float(np.sum((factors[0][0].T @ x.sum(2)) * factors[1][0]))
    if lam == 0:
        return low_rank
    if l1 is None:
        d = dct3(x)
        l1 = sum(float(np.abs(d[s]).sum()) for s in slabs(d.shape))
    return low_rank + lam * l1


def check_problem(m: Tensor3, omega, cfg: SolverConfig) -> tuple:
    """``m`` and ``omega`` as ``srtd_complete`` takes them, or the
    ParameterError or DimensionError it would raise on them."""
    m = astensor3(m, "m")
    omega = check_mask(omega, m.shape)
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
    state, trace, inner_total = None, [], 0

    for k in range(1, cfg.max_outer + 1):
        factors = tsvd_leading(x, cfg.r)
        # step 1 has no state yet; later steps take the l1 term of the
        # sweep that made x
        trace.append(_surrogate(x, factors, cfg.lam, None if state is None else state.l1))
        del x  # step 1's is not held through the solve: its cold start rebuilds it
        try:
            state = admm_solve(m, omega, factors, cfg, warm=state)
        except DivergenceError as err:
            raise DivergenceError(
                f"solver diverged at outer step {k}, inner step {err.inner_iter}",
                outer_iter=k, inner_iter=err.inner_iter) from err
        inner_total += state.inner_iter
        x = state.x
        if state.first_change <= cfg.eps_outer:
            break

    trace.append(_surrogate(x, factors, cfg.lam, state.l1))
    _pin(x, m, omega)  # the state is not returned: x's buffer takes the result
    return SolveReport(
        recovered=x,
        outer_iters=k,
        inner_iters_total=inner_total,
        final_residuals=(*state.residuals, float(state.first_change)),
        objective_trace=tuple(trace),
        wall_time=time.perf_counter() - start,
        seed=cfg.seed,
    )
