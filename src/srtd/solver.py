"""Tensor completion engine: truncated tensor nuclear norm + DCT-domain
ℓ1 sparsity, minimized by one ADMM loop.

The model is min (1/n3) Σ_f Σ_{i>r} σ_i(X_f) + lambda ||dct3(X)||_1
subject to X = M on the observed set, X_f being the frequency slices of
X's mode-3 DFT: the truncated nuclear norm leaves each slice's r leading
singular values free. The ADMM sweeps X -> E -> Z -> W -> Y -> mu, where
E lives in the 3-D DCT domain, W carries the observation constraint, Y
and Z are the duals for X=W and E=dct3(X), and mu grows geometrically up
to a cap. All updates are closed-form, S being the ℓ1 prox, soft
thresholding sgn(v)·max(|v|−t, 0):

    X = svt( (W - Y/mu + idct3(E + Z/mu)) / 2, 1/(2 mu), keep=r )
    E = S( dct3(X) - Z/mu, lambda/mu )
    Z += mu (E - dct3(X))
    W = X + Y/mu,  then W on the observed set := M
    Y += mu (X - W);  mu = min(rho mu, mu_max)

The X-update is the partial SVT, the exact prox of the truncated norm
(Oh, Tai, Bazin, Kim & Kweon, TPAMI 2016): it keeps the r leading values
of each slice and shrinks the rest. It keeps them only from the first
sweep whose mu is at least ``PARTIAL_SVT_MU``; the sweeps before shrink
every value, as for r = 0, the tensor nuclear norm. The first sweep of an
``admm_solve`` call leaves Y = 0 off the observed set, to round-off, so
later sweeps take W = X there.

Between sweeps the state is four tensors: X, the next SVT's argument, Y
and Z. The SVT writes the new X over the previous one and returns the
iterate change. It shrinks its frequency slices in its argument's spent
buffer, which then holds dct3(X), E + Z/mu (``update_ez``, a slab at a
time), its idct3, and the next argument (``update_wy``, a block of rows
at a time). So no sweep holds E or W whole, and it sums its residuals
‖X−W‖ and ‖E−dct3(X)‖ slab by slab. ``admm_solve`` sets mu's schedule
before each ``_sweep`` and tests the sweep's change of X after it; the
sweep reads neither rule. Every sweep sums |dct3(X)| over its E-update's
slabs, and the reported objective's ℓ1 term at the result is the last
sweep's.

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
from .t_algebra import _spectrum, row_blocks, svt
from .tensor_core import Tensor3, astensor3, check_mask, fro_norm
from .transforms import dct3, idct3, slabs

_STOP_MODES = ("relative", "absolute")

# The X-update keeps each slice's r leading singular values unshrunk once
# mu reaches this, from sweep 50 of the default schedule on; mu is in the
# units of pixel-scale (0..255) data. On a 64x64x16 input of exact tubal
# rank 4 with 40% observed (λ = 0, absolute stop) keeping them from the
# first sweep scored 32.0 dB, and this gate 146.1. At seed 0 of the
# benchmark, a gate of 1e-3 took image_rgb from 64.6 to 59.9 dB, and one
# of 1e-1 took video_tight from 151.7 to 65.0 dB.
PARTIAL_SVT_MU = 1e-2


def _is_count(value, least: int = 1) -> bool:
    """An integer >= ``least``; a float such as 2.5 or 3.0 is not one."""
    return isinstance(value, numbers.Integral) and value >= least


@dataclass(frozen=True)
class SolverConfig:
    """Solver parameters. ``r`` is the truncation rank, the number of
    leading singular values per frequency slice left unshrunk, and must not
    exceed min(n1, n2) of the tensor being completed; r = 0 is the tensor
    nuclear norm. ``lam`` weights the DCT-domain ℓ1 term; ``eps_outer`` is
    the stop test's tolerance and ``max_inner`` caps the solve's sweeps."""

    r: int
    lam: float = 0.05
    rho: float = 1.1
    mu_init: float = 1e-4
    mu_max: float = 1e10
    eps_outer: float = 1e-3
    max_inner: int = 200
    stop_mode: str = "relative"
    seed: int = 0

    def __post_init__(self):
        for name, value in vars(self).items():  # a bool passes every check below as 0 or 1
            if isinstance(value, bool):
                raise ParameterError(f"{name} must not be a bool, got {value!r}")
        if not _is_count(self.r, 0):
            raise ParameterError(f"truncation rank r must be an integer >= 0, got {self.r!r}")
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
        if not _is_count(self.max_inner):
            raise ParameterError(f"max_inner must be an integer >= 1, got {self.max_inner!r}")
        if self.stop_mode not in _STOP_MODES:
            raise ParameterError(f"stop_mode must be one of {_STOP_MODES}, got {self.stop_mode!r}")
        # numpy's generator would raise ValueError only once a solve seeds it
        if not _is_count(self.seed, 0):
            raise ParameterError(f"seed must be an integer >= 0, got {self.seed!r}")


@dataclass
class SolverState:
    """Iterate bundle of one solve between sweeps: x, ``arg`` (the argument
    of the next X-update's SVT), and the duals y and z, z in the DCT
    domain. W and E live only inside a sweep. ``change`` is the value the
    last sweep's stop test compared with eps_outer, and ``residuals`` that
    sweep's (‖x−w‖_F, ‖e−dct3(x)‖_F). ``l1`` is ‖dct3(x)‖_1 of the last
    sweep's x, summed slab by slab by its E-update; NaN where lambda = 0
    skipped the E/Z steps."""

    x: Tensor3
    arg: Tensor3
    y: Tensor3
    z: Tensor3
    mu: float
    inner_iter: int = 0
    change: float = math.inf
    residuals: tuple = (math.inf, math.inf)
    l1: float = math.nan


@dataclass(frozen=True)
class SolveReport:
    """Result of srtd_complete. ``final_residuals`` is
    (‖x−w‖_F, ‖e−dct3(x)‖_F, d): the first two are the last sweep's, as
    its Y- and Z-updates formed them, and d is the value the last stop test
    compared with eps_outer, the last sweep's change of x: ‖Δx‖_F with
    stop_mode="absolute", and ‖Δx‖_F / max(1, ‖x‖_F) with
    stop_mode="relative". ``objective_trace`` holds the objective at the
    zero-filled observation and at the result. The solve is one loop, so
    ``outer_iters`` is 1; ``inner_iters_total`` counts its sweeps."""

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
    ‖dct3(x)‖_1), both summed over the slabs, the latter as ``_objective``
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


def update_wy(state: SolverState, m: Tensor3, omega, first: bool, back: Tensor3,
              mu_next: float) -> float:
    """The W- and Y-updates and the next X-update's argument, block by
    block of ``row_blocks``: w = x + y/mu if ``first``, else w = x, which
    is the same to round-off once a first sweep has left y = 0 off omega;
    w on omega := m (read only there); y += mu (x − w); and state.arg =
    (w − y/mu_next + back) / 2, ``back`` (which may be state.arg) holding
    idct3(e + z/mu_next) or x in its place. Returns ‖x − w‖_F. Only a
    first sweep's w is checked for finiteness: a pinned x is finite once x
    is."""
    x, y, mu = state.x, state.y, state.mu
    squares = 0.0
    for s in row_blocks(x.shape):
        if first:
            w = y[s] / mu
            np.add(x[s], w, out=w)
        else:
            w = x[s].copy()
        _pin(w, m[s], omega[s])
        if first and not np.isfinite(w).all():
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
        del w  # not held while the next block's is made
    return math.sqrt(squares)


def update_mu(state: SolverState, cfg: SolverConfig) -> float:
    return min(cfg.rho * state.mu, cfg.mu_max)


def _sweep(state: SolverState, cfg: SolverConfig, m: Tensor3, omega, first: bool,
           skip_ez: bool, mu_next: float) -> float:
    """One sweep X -> E -> Z -> W -> Y in the state's buffers, ending with
    state.mu = mu_next: the SVT keeps cfg.r values per slice once state.mu
    reaches ``PARTIAL_SVT_MU``, the E/Z steps are skipped if ``skip_ez``,
    and the W-update adds y/mu if ``first``. Sets state.residuals and,
    unless skipped, state.l1. Returns ‖Δx‖_F."""
    x = state.x
    keep = cfg.r if state.mu >= PARTIAL_SVT_MU else 0
    delta = svt(state.arg, 1.0 / (2.0 * state.mu), out=x, keep=keep)
    if not np.isfinite(x).all():
        t = state.inner_iter + 1
        raise DivergenceError(f"non-finite x iterate at inner step {t}", inner_iter=t)
    dct_residual = 0.0
    if not skip_ez:
        dct3(x, out=state.arg)
        dct_residual, state.l1 = update_ez(state, cfg, mu_next)
        idct3(state.arg, out=state.arg)
    primal = update_wy(state, m, omega, first, x if skip_ez else state.arg, mu_next)
    state.residuals = (primal, dct_residual)
    state.mu = mu_next
    return delta


def admm_solve(m: Tensor3, omega, cfg: SolverConfig,
               warm: SolverState | None = None) -> SolverState:
    """The ADMM loop of ``srtd_complete``, cold or from ``warm``.

    ``m`` is read only on ``omega``; its other entries may hold anything.
    ``warm`` continues a previous state (duals and mu included) and is
    returned, with all four of its arrays updated in place. Without
    ``warm``, x = m on omega and 0 elsewhere, y is seeded uniform [0,1),
    z = 0, and arg is formed from w = x and e = 0. Each sweep is a
    ``_sweep``, the first adding y/mu to w; after it the call stops if the
    iterate change is at most cfg.eps_outer or max_inner is hit. Every
    sweep leaves its residuals, change and ℓ1 term in the state. Raises
    DimensionError, before any array is written, if ``warm`` does not fit
    m, and DivergenceError, with its inner step, if an iterate goes
    non-finite; after that, warm's arrays hold no iterate. With cfg.lam = 0
    and z all zero on entry (a cold start, or any state such a call
    returns), the E/Z steps are skipped, as the module docstring says.
    """
    m = astensor3(m, "m")
    omega = check_mask(omega, m.shape)
    if warm is None:
        rng = np.random.default_rng(cfg.seed)
        x = np.where(omega, m, 0.0)
        state = SolverState(x=x, arg=np.zeros(m.shape), y=rng.random(m.shape),
                            z=np.zeros(m.shape), mu=cfg.mu_init)
        # the first argument, from w = x and e = 0, so that idct3(e + z/mu)
        # is the zeros arg holds; x is m on omega, so y += mu (x - x) leaves y
        update_wy(state, m, omega, False, state.arg, state.mu)
    else:
        got = [a.shape for a in (warm.x, warm.arg, warm.y, warm.z)]
        if got != [m.shape] * 4:
            raise DimensionError(f"warm state arrays {got} do not match tensor shape {m.shape}")
        state = warm
    state.inner_iter = 0
    skip_ez = cfg.lam == 0 and not state.z.any()
    # the updates write into the state's buffers, in the same operations,
    # in the same order, as their allocating forms

    for t in range(1, cfg.max_inner + 1):
        mu_next = update_mu(state, cfg)
        delta = _sweep(state, cfg, m, omega, t == 1, skip_ez, mu_next)
        if cfg.stop_mode == "relative":
            delta /= max(1.0, fro_norm(state.x))
        state.inner_iter, state.change = t, delta
        if delta <= cfg.eps_outer:
            break
    return state


def _objective(x, r: int, lam: float, l1: float | None = None) -> float:
    """(1/n3) Σ_f Σ_{i>r} σ_i(x_f) + lam ||dct3(x)||_1, over all n3
    frequency slices x_f: those of the rfft once, their conjugates, every
    slice but the zero-frequency and Nyquist ones, a second time.
    ||dct3(x)||_1 is ``l1`` if given (a state's, from the sweep that made
    x), and is otherwise summed over the slabs ``update_ez`` takes, in its
    order."""
    n3 = x.shape[2]
    low_rank = sum((1.0 if f == 0 or 2 * f == n3 else 2.0)
                   * float(np.linalg.svd(fs, compute_uv=False)[r:].sum())
                   for f, fs in enumerate(_spectrum(x))) / n3
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
    """Complete tensor ``m`` observed on ``omega``: one cold ``admm_solve``,
    stopped by its iterate-change test or after cfg.max_inner sweeps.
    Raises what ``check_problem`` raises, and DivergenceError if an
    iterate goes non-finite. The returned tensor equals ``m`` exactly
    (bitwise) on the observed set.
    """
    m, omega = check_problem(m, omega, cfg)
    start = time.perf_counter()
    x = np.where(omega, m, 0.0)  # the zero-filled observation, for the objective
    trace = [_objective(x, cfg.r, cfg.lam)]
    del x  # not held through the solve: the cold start rebuilds it
    state = admm_solve(m, omega, cfg)
    x, sweeps, change = state.x, state.inner_iter, state.change
    residuals, l1 = state.residuals, state.l1
    del state  # arg, y and z are not held through the singular-value pass
    trace.append(_objective(x, cfg.r, cfg.lam, l1))
    _pin(x, m, omega)  # the state is not returned: x's buffer takes the result
    return SolveReport(
        recovered=x,
        outer_iters=1,
        inner_iters_total=sweeps,
        final_residuals=(*residuals, float(change)),
        objective_trace=tuple(trace),
        wall_time=time.perf_counter() - start,
        seed=cfg.seed,
    )
