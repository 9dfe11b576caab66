"""ADMM solver: config validation, the closed-form updates, the loop, and
the completion driver."""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srtd import solver
from srtd.errors import DimensionError, DivergenceError, ParameterError
from srtd.evalkit import psnr, random_mask
from srtd.solver import (
    SolverConfig,
    SolverState,
    admm_solve,
    srtd_complete,
    update_ez,
    update_mu,
    update_wy,
)
from srtd.t_algebra import svt
from srtd.tensor_core import fro_norm
from srtd.transforms import dct3, idct3

from oracles import (
    identity_tensor,
    reference_admm_solve,
    reference_argument,
    soft_threshold,
    tproduct,
    trace_pair,
    truncate_factors,
    tsvd,
    ttranspose,
)

_PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)


def _make_state(rng, shape, mu=0.37):
    return SolverState(
        x=rng.standard_normal(shape), arg=rng.standard_normal(shape),
        y=rng.standard_normal(shape), z=rng.standard_normal(shape), mu=mu,
    )


def _low_rank_instance(seed, n, rank, n3, sr):
    rng = np.random.default_rng(seed)
    g = tproduct(rng.standard_normal((n, rank, n3)), rng.standard_normal((rank, n, n3)))
    g *= 255.0 / np.abs(g).max()
    omega = random_mask(g.shape, sr, seed)
    return g, omega


def test_config_defaults():
    cfg = SolverConfig(r=3)
    assert cfg.lam == 0.05 and cfg.rho == 1.1 and cfg.stop_mode == "relative"
    assert cfg.eps_outer == 1e-3 and cfg.seed == 0


@pytest.mark.parametrize("bad", [
    {"r": -1},
    {"r": 2, "lam": -0.1},
    {"r": 2, "rho": 1.0},
    {"r": 2, "mu_init": 0.0},
    {"r": 2, "mu_init": 1.0, "mu_max": 0.5},
    {"r": 2, "eps_outer": 0.0},
    # numpy's generators reject a negative seed only once a solve runs
    {"r": 2, "seed": -1},
    {"r": 2, "max_inner": -1},
    {"r": 2, "max_inner": 0},
    {"r": 2, "stop_mode": "sometimes"},
    # NaN fails every comparison, so a plain "lam < 0" check lets it through
    {"r": 2, "lam": float("nan")},
    {"r": 2, "mu_max": float("nan")},
    # inf passes every comparison with a finite bound
    {"r": 2, "lam": float("inf")},
    {"r": 2, "rho": float("inf")},
    {"r": 2, "mu_init": float("inf"), "mu_max": float("inf")},
    {"r": 2, "mu_max": float("inf")},
    # an infinite tolerance stops every solve after its first sweep
    {"r": 2, "eps_outer": float("inf")},
    # a bool passes as 0 or 1
    {"r": 2, "lam": True},
    # counts must be integers: a float fails late, with a TypeError
    {"r": 2.5},
    {"r": 2.0},
    {"r": 2, "max_inner": 3.0},
    {"r": 2, "max_inner": 2.5},
    {"r": True},
    {"r": False},  # r = 0 is valid, a bool is not
    {"r": 2, "max_inner": True},
    {"r": 2, "rho": True},
    {"r": 2, "mu_init": True},
    {"r": 2, "mu_max": True},
    {"r": 2, "eps_outer": True},
    {"r": 2, "seed": True},
    {"r": 2, "seed": 1.0},
    {"r": 2, "seed": -(2 ** 70)},
])
def test_config_rejects_bad_values(bad):
    with pytest.raises(ParameterError):
        SolverConfig(**bad)


def test_soft_threshold_scalars():
    assert soft_threshold(1.2, 0.5) == pytest.approx(0.7, rel=1e-15)
    assert soft_threshold(-0.3, 0.5) == 0.0
    assert soft_threshold(-1.1, 0.5) == pytest.approx(-0.6, rel=1e-15)
    assert soft_threshold(0.8, 0.0) == 0.8


def test_soft_threshold_elementwise():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 4, 2))
    out = soft_threshold(x, 0.4)
    oracle = np.vectorize(lambda v: np.sign(v) * max(abs(v) - 0.4, 0.0))(x)
    assert np.allclose(out, oracle, atol=1e-15)


def _soft_threshold_sign_form(x, tau):
    return np.sign(x) * np.maximum(np.abs(x) - tau, 0.0)


@pytest.mark.parametrize("tau", [0.0, 1e-3, 0.4, 2.5, 1e3])
def test_soft_threshold_equals_sign_form(tau):
    # the clip form has the same values as sgn(x)·max(|x|−tau, 0); only
    # the sign of a zero may differ, which == ignores
    rng = np.random.default_rng(int(tau * 1000))
    x = rng.standard_normal((7, 6, 5)) * 3.0
    x[0, 0, :] = [tau, -tau, 0.0, -0.0, np.nextafter(tau, np.inf)]
    assert np.array_equal(soft_threshold(x, tau), _soft_threshold_sign_form(x, tau))
    for v in (1.2, -0.3, -1.1, 0.8, tau, -tau):
        assert soft_threshold(v, tau) == _soft_threshold_sign_form(v, tau)


def test_truncate_factors_identity_case():
    f = tsvd(identity_tensor(3, 2))
    a_k, b_k = truncate_factors(f, 3)
    assert np.abs(a_k - identity_tensor(3, 2)).max() <= 1e-12
    assert np.abs(b_k - identity_tensor(3, 2)).max() <= 1e-12


def test_truncate_factors_orthogonality():
    rng = np.random.default_rng(1)
    f = tsvd(rng.standard_normal((5, 4, 3)))
    for r in (1, 2, 4):
        a_k, b_k = truncate_factors(f, r)
        assert a_k.shape == (r, 5, 3) and b_k.shape == (r, 4, 3)
        assert fro_norm(tproduct(a_k, ttranspose(a_k)) - identity_tensor(r, 3)) <= 1e-9
        assert fro_norm(tproduct(b_k, ttranspose(b_k)) - identity_tensor(r, 3)) <= 1e-9


def test_truncate_factors_tightness():
    # with factors from tsvd(x), the surrogate trace hits the top-r singular
    # value mass of the zero-frequency slice of x
    rng = np.random.default_rng(2)
    x = rng.standard_normal((6, 5, 4))
    a_k, b_k = truncate_factors(tsvd(x), 2)
    val = trace_pair(tproduct(a_k, x), ttranspose(b_k))
    sv = np.linalg.svd(x.sum(axis=2), compute_uv=False)
    assert abs(val - sv[:2].sum()) <= 1e-8 * max(sv[:2].sum(), 1.0)


def test_truncate_factors_range_check():
    f = tsvd(np.zeros((3, 4, 2)))
    with pytest.raises(ParameterError):
        truncate_factors(f, 0)
    with pytest.raises(ParameterError):
        truncate_factors(f, 4)


def _argument(state, w, back, mu):
    """The next X-update's argument as the sweep forms it, from x = w with
    nothing observed, so that w is x and y is left as it is."""
    state.x = w
    update_wy(state, w, np.zeros(w.shape, bool), False, back, mu)
    return state.arg


def test_update_x_fixed_point():
    rng = np.random.default_rng(3)
    x_star = rng.standard_normal((5, 4, 3))
    state = _make_state(rng, (5, 4, 3), mu=1e8)
    state.y = np.zeros_like(x_star)
    state.z = np.zeros_like(x_star)
    arg = _argument(state, x_star.copy(), idct3(dct3(x_star)), state.mu)
    out = svt(arg, 1.0 / (2.0 * state.mu))
    assert fro_norm(out - x_star) <= 1e-6 * fro_norm(x_star)


def test_update_x_negligible_threshold_returns_average():
    rng = np.random.default_rng(4)
    state = _make_state(rng, (4, 4, 2), mu=1e15)
    w, e = rng.standard_normal((2, 4, 4, 2))
    avg = 0.5 * (w - state.y / state.mu + idct3(e + state.z / state.mu))
    arg = _argument(state, w, idct3(e + state.z / state.mu), state.mu)
    x = svt(arg, 1.0 / (2.0 * state.mu))
    assert np.abs(x - avg).max() <= 1e-6


def test_update_x_matches_primitive_composition():
    # the argument is formed in the operations of the allocating
    # expression, so it equals it bitwise, also when its back term is read
    # from the argument's own buffer or is x standing in for idct3(e +
    # z/mu). x, y and z are not written
    rng = np.random.default_rng(5)
    state = _make_state(rng, (6, 6, 3), mu=0.37)
    w, e = rng.standard_normal((2, 6, 6, 3))
    before = [a.copy() for a in (w, state.y, state.z)]
    back = idct3(e + state.z / state.mu)
    want = 0.5 * (w - state.y / state.mu + back)
    state.arg = back.copy()
    assert np.array_equal(_argument(state, w, state.arg, state.mu), want)
    want = 0.5 * (w - state.y / state.mu + w)
    assert np.array_equal(_argument(state, w, w, state.mu), want)
    assert all(np.array_equal(a, b) for a, b in zip((w, state.y, state.z), before))


def _update_ez(state, cfg):
    """update_ez on state.arg = dct3(x); returns e, recovered from the
    slab it leaves (e + z/mu_next) to round-off, mu_next and the residual.
    Checks the ℓ1 norm it sums against that of a fresh dct3(x)."""
    mu_next = update_mu(state, cfg)
    state.arg = dct3(state.x)
    l1_want = np.abs(state.arg).sum()
    residual, l1 = update_ez(state, cfg, mu_next)
    assert abs(l1 - l1_want) <= 1e-13 * l1_want
    return state.arg - state.z / mu_next, mu_next, residual


def test_update_e_zero_lambda_is_exact():
    rng = np.random.default_rng(6)
    state = _make_state(rng, (4, 5, 2))
    want = dct3(state.x) - state.z / state.mu
    e, _, _ = _update_ez(state, SolverConfig(r=2, lam=0.0))
    assert np.allclose(e, want, atol=1e-15)
    assert np.abs(state.z).max() <= 1e-15  # z += mu (e - dct3(x)) = -z


def test_update_e_large_threshold_zeroes():
    rng = np.random.default_rng(7)
    state = _make_state(rng, (4, 5, 2), mu=1.0)
    dx = dct3(state.x)
    z0 = state.z.copy()
    cfg = SolverConfig(r=2, lam=2.0 * np.abs(dx - state.z).max())
    _, mu_next, residual = _update_ez(state, cfg)
    # e = 0: z += mu (0 - dct3(x)), and the slab holds 0 + z/mu_next
    assert np.array_equal(state.z, z0 + state.mu * (0.0 - dx))
    assert np.array_equal(state.arg, state.z / mu_next)
    assert abs(residual - fro_norm(dx)) <= 1e-12 * fro_norm(dx)


def test_update_e_prox_optimality():
    rng = np.random.default_rng(8)
    state = _make_state(rng, (4, 4, 3), mu=2.3)
    cfg = SolverConfig(r=2, lam=0.7)
    target = dct3(state.x) - state.z / state.mu
    e_out, _, _ = _update_ez(state, cfg)

    def objective(v):
        return cfg.lam * np.abs(v).sum() + 0.5 * state.mu * fro_norm(v - target) ** 2

    base = objective(e_out)
    for _ in range(100):
        delta = rng.standard_normal(e_out.shape)
        delta *= 1e-3 * (fro_norm(e_out) + 1.0) / fro_norm(delta)
        assert base <= objective(e_out + delta) + 1e-12


def _update_wy(state, m, omega, first):
    """update_wy with idct3(e + z/mu) taken as 0; returns the residual."""
    mu_next = update_mu(state, SolverConfig(r=2))
    return update_wy(state, m, omega, first, np.zeros(m.shape), mu_next)


def test_update_w_full_and_empty_masks():
    # w is seen through the Y-update, y + mu (x - w): with every entry
    # observed w is m, bit for bit; with none, a call's first sweep takes
    # w = x + y/mu, so that the Y-update leaves y = 0 to round-off, and
    # later sweeps w = x
    rng = np.random.default_rng(9)
    state = _make_state(rng, (4, 5, 3))
    m = rng.standard_normal((4, 5, 3))
    full = np.ones(m.shape, dtype=bool)
    y0 = state.y.copy()
    primal = _update_wy(state, m, full, True)
    assert np.array_equal(state.y, y0 + state.mu * (state.x - m))
    assert primal == pytest.approx(fro_norm(state.x - m), rel=1e-12)
    state.y = y0.copy()
    primal = _update_wy(state, m, ~full, True)
    assert np.abs(state.y).max() <= 1e-14 * np.abs(y0).max()
    assert primal == pytest.approx(fro_norm(y0) / state.mu, rel=1e-12)
    # after the first sweep w is x off the mask: y stays, and the residual is 0
    y1 = state.y.copy()
    primal = _update_wy(state, m, ~full, False)
    assert np.array_equal(state.y, y1) and primal == 0.0


def test_update_w_pins_observed_entries_bitwise():
    rng = np.random.default_rng(10)
    state = _make_state(rng, (6, 6, 2))
    m = rng.standard_normal((6, 6, 2))
    omega = random_mask(m.shape, 0.4, 0)
    for first in (True, False):
        y0 = state.y.copy()
        _update_wy(state, m, omega, first)
        assert np.array_equal(state.y[omega], (y0 + state.mu * (state.x - m))[omega])


def test_admm_sweep_dual_steps():
    # one sweep ascends both duals by mu times the constraint gaps of the
    # new iterates, y by x - w and z by e - dct3(x), and reports the gaps'
    # norms as its residuals: w is pinned to m on the mask, and e is the
    # soft-thresholded dct3(x) - z/mu
    g, omega = _low_rank_instance(11, 6, 2, 3, 0.5)
    m_obs = np.where(omega, g, 0.0)
    cfg = SolverConfig(r=2, lam=0.3, max_inner=1, seed=11)
    state = admm_solve(m_obs, omega, cfg)
    y0, z0, mu0 = state.y.copy(), state.z.copy(), state.mu
    state = admm_solve(m_obs, omega, cfg, warm=state)
    w = state.x - (state.y - y0) / mu0
    assert np.allclose(w[omega], m_obs[omega], rtol=0, atol=1e-9)
    dx = dct3(state.x)
    e = soft_threshold(dx - z0 / mu0, cfg.lam / mu0)
    assert np.allclose(state.z, z0 + mu0 * (e - dx), rtol=0, atol=1e-12)
    primal, dct = state.residuals
    assert abs(primal - fro_norm(state.x - w)) <= 1e-9 * primal
    assert abs(dct - fro_norm(e - dx)) <= 1e-9 * dct


def test_update_mu_growth_and_cap():
    rng = np.random.default_rng(12)
    state = _make_state(rng, (2, 2, 2), mu=1.0)
    cfg = SolverConfig(r=2, rho=1.1, mu_max=1e10)
    assert update_mu(state, cfg) == pytest.approx(1.1, rel=1e-15)
    state.mu = 1e10
    assert update_mu(state, cfg) == 1e10


def test_admm_full_observation():
    rng = np.random.default_rng(13)
    m = rng.random((8, 8, 2)) * 255.0
    omega = np.ones(m.shape, dtype=bool)
    cfg = SolverConfig(r=2, eps_outer=1e-6, stop_mode="absolute", max_inner=500)
    state = admm_solve(m, omega, cfg)
    # every entry is observed, so w = m, and the sweep's ‖x − w‖ is ‖x − m‖
    primal = state.residuals[0]
    assert abs(primal - fro_norm(state.x - m)) <= 1e-12 * fro_norm(m)
    assert primal <= 1e-3 * fro_norm(m)


def test_admm_determinism():
    g, omega = _low_rank_instance(14, 10, 2, 3, 0.6)
    m_obs = np.where(omega, g, 0.0)
    cfg = SolverConfig(r=2, seed=5, max_inner=40)
    s1 = admm_solve(m_obs, omega, cfg)
    s2 = admm_solve(m_obs, omega, cfg)
    for name in ("x", "arg", "y", "z"):
        assert np.array_equal(getattr(s1, name), getattr(s2, name))
    assert s1.residuals == s2.residuals and s1.change == s2.change
    assert s1.mu == s2.mu and s1.inner_iter == s2.inner_iter


def test_admm_divergence_reported_with_iteration_index():
    # a warm y too large for y/mu: the first sweep's w goes non-finite
    g, omega = _low_rank_instance(15, 6, 2, 2, 0.5)
    m_obs = np.where(omega, g, 0.0)
    cfg = SolverConfig(r=2, max_inner=3)
    state = admm_solve(m_obs, omega, cfg)
    state.y[~omega] = 1e308
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError) as exc:
            admm_solve(m_obs, omega, cfg, warm=state)
    assert exc.value.inner_iter == 1


def test_admm_mask_validation():
    m = np.zeros((3, 3, 2))
    with pytest.raises(ParameterError):
        admm_solve(m, np.ones(m.shape), SolverConfig(r=1))  # not boolean
    with pytest.raises(DimensionError):
        admm_solve(m, np.ones((3, 3, 3), dtype=bool), SolverConfig(r=1))


def test_admm_checks_warm_and_factors_against_m():
    # the solver takes no factors, only a warm state: an (8, 8, 4) state
    # with an (8, 8, 5) m, or a state one of whose arrays has another
    # shape. The call raises before it writes any of the warm state's arrays
    g, omega = _low_rank_instance(24, 8, 2, 4, 0.6)
    m_obs = np.where(omega, g, 0.0)
    cfg = SolverConfig(r=2, max_inner=2, seed=24)
    state = admm_solve(m_obs, omega, cfg)
    before = [a.copy() for a in (state.x, state.arg, state.y, state.z)]
    wide = np.zeros((8, 8, 5))
    for m, om, warm in [(wide, np.ones(wide.shape, bool), state),
                        (m_obs, omega, replace(state, z=np.zeros((8, 8, 5)))),
                        (m_obs, omega, replace(state, arg=state.arg[:7]))]:
        with pytest.raises(DimensionError):
            admm_solve(m, om, cfg, warm=warm)
        after = (state.x, state.arg, state.y, state.z)
        assert all(np.array_equal(a, b) for a, b in zip(after, before))


def test_complete_recovers_low_tubal_rank_tensor():
    g, omega = _low_rank_instance(4, 20, 3, 3, 0.8)
    report = srtd_complete(g, omega, SolverConfig(r=3, lam=0.0, stop_mode="absolute", seed=4))
    rel = fro_norm(report.recovered - g) / fro_norm(g)
    assert rel <= 1e-2
    assert np.array_equal(report.recovered[omega], g[omega])


def test_complete_single_outer_step_when_eps_huge():
    # the solve is one loop, reported as one outer step; a tolerance above
    # any change stops it after its first sweep
    g, omega = _low_rank_instance(16, 8, 2, 2, 0.7)
    report = srtd_complete(g, omega, SolverConfig(r=2, eps_outer=1e9))
    assert report.outer_iters == report.inner_iters_total == 1


def test_complete_report_fields():
    g, omega = _low_rank_instance(17, 8, 2, 2, 0.7)
    cfg = SolverConfig(r=2, seed=17)
    report = srtd_complete(g, omega, cfg)
    assert report.outer_iters == 1
    assert 1 <= report.inner_iters_total <= cfg.max_inner
    assert report.wall_time > 0.0
    assert report.seed == 17
    assert len(report.final_residuals) == 3
    assert all(np.isfinite(v) for v in report.final_residuals)
    # the objective at the zero-fill and at the result; it should not have
    # gotten worse over the solve
    assert len(report.objective_trace) == 2
    assert report.objective_trace[-1] <= report.objective_trace[0]


@pytest.mark.parametrize("stop_mode", ["relative", "absolute"])
def test_complete_reports_the_outer_stop_value(stop_mode):
    # final_residuals[2] is the value the stop test compared with
    # eps_outer, so a solve that stopped before max_inner reports one below
    # it, and one stopped by max_inner one above it
    g, omega = _low_rank_instance(19, 8, 2, 2, 0.7)
    cfg = SolverConfig(r=2, stop_mode=stop_mode)
    report = srtd_complete(g, omega, cfg)
    assert report.inner_iters_total < cfg.max_inner
    assert report.final_residuals[2] <= cfg.eps_outer
    report = srtd_complete(g, omega, replace(cfg, max_inner=3))
    assert report.inner_iters_total == 3 and report.final_residuals[2] > cfg.eps_outer


def test_complete_unobserved_entries_are_ignored():
    g, omega = _low_rank_instance(18, 8, 2, 2, 0.5)
    spoiled = g.copy()
    spoiled[~omega] = np.nan
    report = srtd_complete(spoiled, omega, SolverConfig(r=2, max_inner=20))
    assert np.isfinite(report.recovered[~omega]).all()


def test_complete_rejects_non_finite_observed_values():
    g, omega = _low_rank_instance(19, 8, 2, 2, 0.5)
    spoiled = g.copy()
    spoiled[omega] = np.where(np.arange(omega.sum()) == 0, np.nan, spoiled[omega])
    with pytest.raises(ParameterError):
        srtd_complete(spoiled, omega, SolverConfig(r=2))


def test_complete_rejects_empty_mask():
    with pytest.raises(ParameterError):
        srtd_complete(np.zeros((4, 4, 2)), np.zeros((4, 4, 2), dtype=bool), SolverConfig(r=2))


def test_complete_rejects_oversized_rank():
    g, omega = _low_rank_instance(20, 6, 2, 2, 0.5)
    with pytest.raises(ParameterError):
        srtd_complete(g, omega, SolverConfig(r=7))


def test_complete_hoists_sweep_invariant_work(monkeypatch):
    # one SVT and, with lam > 0, one dct3(x) per sweep, the objective's l1
    # term at the result from the last sweep's own dct3, and the
    # objective's singular values from one spectrum at each end: the counts
    # below stay exact whatever the number of sweeps
    calls = Counter()

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    for name in ("dct3", "idct3", "svt", "_spectrum"):
        counted(solver, name)
    g, omega = _low_rank_instance(22, 10, 2, 3, 0.6)
    for lam in (0.05, 0.0):
        calls.clear()
        report = srtd_complete(g, omega, SolverConfig(r=2, lam=lam, seed=22))
        sweeps = report.inner_iters_total
        assert sweeps > 1
        # per sweep with lam > 0, and none where lam = 0 skips the E/Z
        # steps; with lam > 0, one more for the objective at the zero-fill,
        # which no sweep has made. The residuals come from the sweep, so no
        # DCT is taken for them
        assert calls["dct3"] == (sweeps + 1 if lam else 0)
        # one per sweep with lam > 0; the cold start's argument takes the
        # zeros it is made of for idct3(e + z/mu), e and z being zero
        assert calls["idct3"] == (sweeps if lam else 0)
        assert calls["svt"] == sweeps and calls["_spectrum"] == 2


def _objective_oracle(x, r, lam):
    """(1/n3) Σ_f Σ_{i>r} σ_i(X_f) + lam ||dct3(x)||_1 over all n3 slices of
    the full FFT along mode 3."""
    fx = np.fft.fft(x, axis=2)
    sv = [np.linalg.svd(fx[:, :, f], compute_uv=False) for f in range(x.shape[2])]
    return sum(s[r:].sum() for s in sv) / x.shape[2] + lam * np.abs(dct3(x)).sum()


@pytest.mark.parametrize("n3", [1, 2, 3, 5, 6])
def test_objective_sums_the_tail_of_every_frequency_slice(monkeypatch, n3):
    # the rfft's slices count twice but for the zero-frequency and Nyquist
    # ones; at r = 0 the low-rank term is the tensor nuclear norm of the
    # SVT's prox, and at lam = 0 no dct3 is taken
    rng = np.random.default_rng(n3)
    x = rng.standard_normal((9, 7, n3))
    for r in (0, 3, 7):
        want = _objective_oracle(x, r, 0.3)
        assert abs(solver._objective(x, r, 0.3) - want) <= 1e-12 * want
    low_rank = _objective_oracle(x, 3, 0.0)

    def no_dct3(*args, **kwargs):
        raise AssertionError("dct3 taken at lam = 0")

    monkeypatch.setattr(solver, "dct3", no_dct3)
    assert abs(solver._objective(x, 3, 0.0) - low_rank) <= 1e-12 * low_rank
    assert solver._objective(x, 7, 0.0) == 0.0


@_PROPERTY
@given(n1=st.integers(1, 8), n2=st.integers(1, 8), n3=st.integers(1, 6),
       lam=st.sampled_from([0.0, 0.05]), capped=st.booleans(), seed=st.integers(0, 2**16))
def test_objective_trace_is_the_surrogate_of_a_fresh_dct3(n1, n2, n3, lam, capped, seed):
    # both objective_trace entries, at the zero-fill and at the result, are
    # _objective of that x with the l1 term from a fresh dct3(x); with
    # ``capped`` the solve stops at max_inner, otherwise on its iterate
    # change. The result's x is the last sweep's, before the observed
    # entries are pinned
    g, omega = _low_rank_instance(seed, max(n1, n2), 1, n3, 0.6)
    g = g[:n1, :n2]
    omega = omega[:n1, :n2]
    omega[0, 0, 0] = True
    cfg = SolverConfig(r=1, lam=lam, mu_init=1e-2, seed=seed,
                       **({"max_inner": 4, "eps_outer": 1e-30} if capped else {}))
    fresh, objective = [], solver._objective

    def checked(x, r, lam, l1=None):
        fresh.append(objective(x, r, lam))
        return objective(x, r, lam, l1)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_objective", checked)
        report = srtd_complete(g, omega, cfg)
    assert len(report.objective_trace) == len(fresh) == 2
    if capped:
        assert report.inner_iters_total == 4
    for got, want in zip(report.objective_trace, fresh):
        assert abs(got - want) <= 1e-14 * abs(want)
    state = admm_solve(np.where(omega, g, 0.0), omega, cfg)
    assert report.objective_trace[1] == objective(state.x, 1, lam, state.l1)


@_PROPERTY
@given(n1=st.integers(2, 8), n2=st.integers(2, 8), n3=st.integers(1, 6),
       seed=st.integers(0, 2**16))
def test_zero_lambda_matches_the_full_ez_loop(n1, n2, n3, seed):
    # at lam = 0 with z = 0 the solver skips the E/Z steps that the oracle
    # runs, cold and then warm, and leaves the state those steps would
    rng = np.random.default_rng(seed)
    g = tproduct(rng.standard_normal((n1, 2, n3)), rng.standard_normal((2, n2, n3)))
    g *= 255.0 / np.abs(g).max()
    omega = rng.random(g.shape) < 0.6
    omega[0, 0, 0] = True
    m_obs = np.where(omega, g, 0.0)
    cfg = SolverConfig(r=1, lam=0.0, mu_init=1e-2, max_inner=12, eps_outer=1e-30, seed=seed)
    ref = new = None
    for _ in range(2):
        ref = reference_admm_solve(m_obs, omega, cfg, warm=ref)
        new = admm_solve(m_obs, omega, cfg, warm=new)
        assert new.inner_iter == ref.inner_iter and new.mu == ref.mu
        assert fro_norm(new.x - ref.x) <= 1e-12 * fro_norm(ref.x)
        want = reference_argument(ref)
        assert fro_norm(new.arg - want) <= 1e-12 * fro_norm(want)
        assert fro_norm(new.y - ref.y) <= 1e-12 * ref.mu * fro_norm(ref.x)
        assert new.residuals[1] == 0.0
        assert not new.z.any()


def test_zero_lambda_continues_a_sparse_state_exactly():
    # a lam > 0 state carries z != 0, so idct3(e + z/mu) is not the
    # previous x: the E/Z steps run, as in the oracle
    g, omega = _low_rank_instance(23, 10, 2, 3, 0.6)
    m_obs = np.where(omega, g, 0.0)
    cfg = SolverConfig(r=2, lam=0.05, mu_init=1e-2, max_inner=15, eps_outer=1e-30, seed=23)
    ref = reference_admm_solve(m_obs, omega, cfg)
    new = admm_solve(m_obs, omega, cfg)
    assert new.z.any()
    cfg = replace(cfg, lam=0.0)
    for _ in range(2):
        ref = reference_admm_solve(m_obs, omega, cfg, warm=ref)
        new = admm_solve(m_obs, omega, cfg, warm=new)
        assert new.inner_iter == ref.inner_iter == 15
        assert np.array_equal(new.x, ref.x)
        assert np.array_equal(new.arg, reference_argument(ref))


def test_complete_zero_lambda_dct_residual_is_zero():
    g, omega = _low_rank_instance(21, 10, 2, 3, 0.6)
    report = srtd_complete(g, omega, SolverConfig(r=2, lam=0.0, seed=21))
    assert report.final_residuals[1] == 0.0
    assert np.array_equal(report.recovered[omega], g[omega])


def test_partial_svt_keeps_r_values_from_the_gate_on(monkeypatch):
    # the sweeps whose mu is below PARTIAL_SVT_MU shrink every singular
    # value, as r = 0 does throughout; from the first sweep at or above it,
    # sweep 50 of the default schedule, r values per slice pass unshrunk
    keeps, real = [], solver.svt

    def spy(x, tau, out=None, keep=0):
        keeps.append(keep)
        return real(x, tau, out=out, keep=keep)

    monkeypatch.setattr(solver, "svt", spy)
    g, omega = _low_rank_instance(25, 10, 2, 3, 0.6)
    for r in (0, 2):
        keeps.clear()
        report = srtd_complete(g, omega, SolverConfig(r=r, lam=0.01, stop_mode="absolute",
                                                      seed=25))
        sweeps = report.inner_iters_total
        assert sweeps > 50 and keeps == [0] * 49 + [r] * (sweeps - 49)


def _tubal_rank_4(seed):
    """64x64x16 of exact tubal rank 4, a t-product of uniform [0, 1)
    factors scaled to peak 255, with a quarter of it observed."""
    rng = np.random.default_rng(seed)
    fa = np.fft.fft(rng.random((64, 4, 16)), axis=2)
    fb = np.fft.fft(rng.random((4, 64, 16)), axis=2)
    g = np.fft.ifft(np.einsum("ikt,kjt->ijt", fa, fb), axis=2).real
    g *= 255.0 / g.max()
    return g, rng.random(g.shape) < 0.25


@pytest.mark.parametrize("seed", [0, 1])
def test_the_true_rank_beats_the_nuclear_norm_at_a_quarter_observed(seed):
    # r = 0 is the tensor nuclear norm; leaving the true rank's values
    # unshrunk recovers the tensor where it cannot. Measured 123.5 and
    # 123.9 dB against 52.1 and 53.7 on seeds 0 and 1
    g, omega = _tubal_rank_4(seed)
    m_obs = np.where(omega, g, 0.0)
    got = {r: psnr(srtd_complete(m_obs, omega, SolverConfig(r=r, lam=0.0,
                                                             stop_mode="absolute")).recovered, g)
           for r in (4, 0)}
    assert got[4] >= got[0] + 30.0
