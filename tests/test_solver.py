"""ADMM solver: config validation, the closed-form updates, the inner
loop, and the outer completion driver."""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srtd import solver
from srtd.errors import DimensionError, DivergenceError, ParameterError
from srtd.evalkit import apply_mask, random_mask
from srtd.solver import (
    SolverConfig,
    SolverState,
    admm_solve,
    factor_spectra,
    soft_threshold,
    srtd_complete,
    update_e,
    update_mu,
    update_w,
    update_x,
)
from srtd.t_algebra import svt, tproduct, trace_pair
from srtd.tensor_core import fro_norm, l1_norm, ttranspose
from srtd.transforms import dct3, idct3

from oracles import identity_tensor, reference_admm_solve, truncate_factors, tsvd

_PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)


def _make_state(rng, shape, mu=0.37):
    return SolverState(
        x=rng.standard_normal(shape), w=rng.standard_normal(shape),
        e=rng.standard_normal(shape), y=rng.standard_normal(shape),
        z=rng.standard_normal(shape), mu=mu,
    )


def _low_rank_instance(seed, n, rank, n3, sr):
    rng = np.random.default_rng(seed)
    g = tproduct(rng.standard_normal((n, rank, n3)), rng.standard_normal((rank, n, n3)))
    g *= 255.0 / np.abs(g).max()
    omega = random_mask(g.shape, sr, seed)
    return g, omega


def test_config_defaults_and_inner_tol():
    cfg = SolverConfig(r=3)
    assert cfg.lam == 0.05 and cfg.rho == 1.1 and cfg.stop_mode == "relative"
    assert cfg.inner_tol == cfg.eps_outer
    assert SolverConfig(r=3, eps_inner=1e-6).inner_tol == 1e-6


@pytest.mark.parametrize("bad", [
    {"r": 0},
    {"r": 2, "lam": -0.1},
    {"r": 2, "rho": 1.0},
    {"r": 2, "mu_init": 0.0},
    {"r": 2, "mu_init": 1.0, "mu_max": 0.5},
    {"r": 2, "eps_outer": 0.0},
    {"r": 2, "eps_inner": 0.0},
    {"r": 2, "max_outer": 0},
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
    {"r": 2, "eps_inner": float("inf")},
    # counts must be integers: a float fails late, with a TypeError
    {"r": 2.5},
    {"r": 2.0},
    {"r": 2, "max_outer": 2.5},
    {"r": 2, "max_inner": 2.5},
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


def test_update_x_fixed_point():
    rng = np.random.default_rng(3)
    x_star = rng.standard_normal((5, 4, 3))
    state = _make_state(rng, (5, 4, 3), mu=1e8)
    state.w = x_star.copy()
    state.e = dct3(x_star)
    state.y = np.zeros_like(x_star)
    state.z = np.zeros_like(x_star)
    out = update_x(state, SolverConfig(r=2))
    assert fro_norm(out - x_star) <= 1e-6 * fro_norm(x_star)


def test_update_x_negligible_threshold_returns_average():
    rng = np.random.default_rng(4)
    state = _make_state(rng, (4, 4, 2), mu=1e15)
    avg = 0.5 * (state.w - state.y / state.mu + idct3(state.e + state.z / state.mu))
    assert np.abs(update_x(state, SolverConfig(r=2)) - avg).max() <= 1e-6


def test_update_x_matches_primitive_composition():
    rng = np.random.default_rng(5)
    state = _make_state(rng, (6, 6, 3), mu=0.37)
    oracle = svt(0.5 * (state.w - state.y / state.mu
                        + idct3(state.e + state.z / state.mu)), 1.0 / (2.0 * state.mu))
    assert np.abs(update_x(state, SolverConfig(r=2)) - oracle).max() <= 1e-12


def test_update_e_zero_lambda_is_exact():
    rng = np.random.default_rng(6)
    state = _make_state(rng, (4, 5, 2))
    out = update_e(state, SolverConfig(r=2, lam=0.0), dct3(state.x))
    assert np.allclose(out, dct3(state.x) - state.z / state.mu, atol=1e-15)


def test_update_e_large_threshold_zeroes():
    rng = np.random.default_rng(7)
    state = _make_state(rng, (4, 5, 2), mu=1.0)
    target = dct3(state.x) - state.z
    out = update_e(state, SolverConfig(r=2, lam=2.0 * np.abs(target).max()), dct3(state.x))
    assert np.array_equal(out, np.zeros_like(out))


def test_update_e_prox_optimality():
    rng = np.random.default_rng(8)
    state = _make_state(rng, (4, 4, 3), mu=2.3)
    cfg = SolverConfig(r=2, lam=0.7)
    e_out = update_e(state, cfg, dct3(state.x))
    target = dct3(state.x) - state.z / state.mu

    def objective(v):
        return cfg.lam * l1_norm(v) + 0.5 * state.mu * fro_norm(v - target) ** 2

    base = objective(e_out)
    for _ in range(100):
        delta = rng.standard_normal(e_out.shape)
        delta *= 1e-3 * (fro_norm(e_out) + 1.0) / fro_norm(delta)
        assert base <= objective(e_out + delta) + 1e-12


def test_update_w_full_and_empty_masks():
    rng = np.random.default_rng(9)
    state = _make_state(rng, (4, 5, 3))
    a_k, b_k = rng.standard_normal((2, 4, 3)), rng.standard_normal((2, 5, 3))
    factors = factor_spectra(a_k, b_k)
    m = rng.standard_normal((4, 5, 3))
    full = np.ones(m.shape, dtype=bool)
    assert np.array_equal(update_w(state, SolverConfig(r=2), m, full, factors), m)
    w_free = state.x + (tproduct(ttranspose(a_k), b_k) + state.y) / state.mu
    out = update_w(state, SolverConfig(r=2), m, ~full, factors)
    assert np.allclose(out, w_free, atol=1e-12)


def test_update_w_pins_observed_entries_bitwise():
    rng = np.random.default_rng(10)
    state = _make_state(rng, (6, 6, 2))
    factors = factor_spectra(rng.standard_normal((2, 6, 2)), rng.standard_normal((2, 6, 2)))
    m = rng.standard_normal((6, 6, 2))
    omega = random_mask(m.shape, 0.4, 0)
    out = update_w(state, SolverConfig(r=2), m, omega, factors)
    assert np.array_equal(out[omega], m[omega])


def test_admm_sweep_dual_steps():
    # one sweep ascends both duals by mu times the constraint gaps of the
    # new iterates: y by x - w, z by e - dct3(x)
    g, omega = _low_rank_instance(11, 6, 2, 3, 0.5)
    m_obs = apply_mask(g, omega)
    a_k, b_k = truncate_factors(tsvd(m_obs), 2)
    cfg = SolverConfig(r=2, lam=0.3, max_inner=1, seed=11)
    state = admm_solve(m_obs, omega, a_k, b_k, cfg)
    y0, z0, mu0 = state.y.copy(), state.z.copy(), state.mu
    state = admm_solve(m_obs, omega, a_k, b_k, cfg, warm=state)
    assert np.allclose(state.y, y0 + mu0 * (state.x - state.w), rtol=0, atol=1e-12)
    assert np.allclose(state.z, z0 + mu0 * (state.e - dct3(state.x)), rtol=0, atol=1e-12)


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
    a_k, b_k = truncate_factors(tsvd(m), 2)
    cfg = SolverConfig(r=2, eps_inner=1e-6, stop_mode="absolute", max_inner=500)
    state = admm_solve(m, omega, a_k, b_k, cfg)
    assert np.array_equal(state.w, m)
    assert fro_norm(state.x - state.w) <= 1e-3 * fro_norm(m)


def test_admm_determinism():
    g, omega = _low_rank_instance(14, 10, 2, 3, 0.6)
    m_obs = apply_mask(g, omega)
    a_k, b_k = truncate_factors(tsvd(m_obs), 2)
    cfg = SolverConfig(r=2, seed=5, max_inner=40)
    s1 = admm_solve(m_obs, omega, a_k, b_k, cfg)
    s2 = admm_solve(m_obs, omega, a_k, b_k, cfg)
    assert np.array_equal(s1.x, s2.x)
    assert np.array_equal(s1.w, s2.w)
    assert np.array_equal(s1.y, s2.y)
    assert s1.mu == s2.mu and s1.inner_iter == s2.inner_iter


def test_admm_divergence_reported_with_iteration_index():
    g, omega = _low_rank_instance(15, 6, 2, 2, 0.5)
    huge = np.full((2, 6, 2), 1e308)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError) as exc:
            admm_solve(apply_mask(g, omega), omega, huge, huge, SolverConfig(r=2))
    assert exc.value.inner_iter >= 1


def test_admm_mask_validation():
    m = np.zeros((3, 3, 2))
    a = np.zeros((1, 3, 2))
    with pytest.raises(ParameterError):
        admm_solve(m, np.ones(m.shape), a, a, SolverConfig(r=1))  # not boolean
    with pytest.raises(DimensionError):
        admm_solve(m, np.ones((3, 3, 3), dtype=bool), a, a, SolverConfig(r=1))


def test_complete_recovers_low_tubal_rank_tensor():
    g, omega = _low_rank_instance(4, 20, 3, 3, 0.8)
    report = srtd_complete(g, omega, SolverConfig(r=3, lam=0.0, stop_mode="absolute", seed=4))
    rel = fro_norm(report.recovered - g) / fro_norm(g)
    assert rel <= 1e-2
    assert np.array_equal(report.recovered[omega], g[omega])


def test_complete_single_outer_step_when_eps_huge():
    g, omega = _low_rank_instance(16, 8, 2, 2, 0.7)
    report = srtd_complete(g, omega, SolverConfig(r=2, eps_outer=1e9))
    assert report.outer_iters == 1


def test_complete_report_fields():
    g, omega = _low_rank_instance(17, 8, 2, 2, 0.7)
    cfg = SolverConfig(r=2, seed=17, max_outer=4)
    report = srtd_complete(g, omega, cfg)
    assert 1 <= report.outer_iters <= 4
    assert report.inner_iters_total >= report.outer_iters
    assert report.wall_time > 0.0
    assert report.seed == 17
    assert len(report.final_residuals) == 3
    assert all(np.isfinite(v) for v in report.final_residuals)
    # surrogate objective should not have gotten worse over the solve
    assert report.objective_trace[-1] <= report.objective_trace[0]


@pytest.mark.parametrize("stop_mode", ["relative", "absolute"])
def test_complete_reports_the_outer_stop_value(stop_mode):
    # final_residuals[2] is the value the outer stop test compared with
    # eps_outer, so a solve that stopped before max_outer reports one below it
    g, omega = _low_rank_instance(19, 8, 2, 2, 0.7)
    cfg = SolverConfig(r=2, stop_mode=stop_mode)
    report = srtd_complete(g, omega, cfg)
    assert report.outer_iters < cfg.max_outer
    assert report.final_residuals[2] <= cfg.eps_outer


def test_complete_unobserved_entries_are_ignored():
    g, omega = _low_rank_instance(18, 8, 2, 2, 0.5)
    spoiled = g.copy()
    spoiled[~omega] = np.nan
    report = srtd_complete(spoiled, omega, SolverConfig(r=2, max_outer=2))
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
    # dct3(x) once per sweep, and the spectra of the W-update's factors once
    # per outer step: the counts below stay exact whatever the number of
    # sweeps
    calls = Counter()

    def counted(name):
        fn = getattr(solver, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(solver, name, wrapper)

    counted("dct3")
    counted("factor_spectra")
    counted("tproduct")
    g, omega = _low_rank_instance(22, 10, 2, 3, 0.6)
    for lam in (0.05, 0.0):
        calls.clear()
        report = srtd_complete(g, omega, SolverConfig(r=2, lam=lam, seed=22, max_outer=3))
        outer, sweeps = report.outer_iters, report.inner_iters_total
        assert sweeps > outer
        # per sweep with lam > 0, or per call at lam = 0 where the E/Z steps
        # are skipped; one surrogate per outer step and at the end; the
        # final DCT residual
        assert calls["dct3"] == (sweeps if lam else outer) + outer + 2
        # the factor spectra per outer step; no sweep takes a t-product, and
        # the only ones left are the surrogate's, per outer step and at the end
        assert calls["factor_spectra"] == outer
        assert calls["tproduct"] == outer + 1


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
    m_obs = apply_mask(g, omega)
    a_k, b_k = truncate_factors(tsvd(m_obs), 1)
    cfg = SolverConfig(r=1, lam=0.0, mu_init=1e-2, max_inner=12, eps_inner=1e-30, seed=seed)
    ref = new = None
    for _ in range(2):
        ref = reference_admm_solve(m_obs, omega, a_k, b_k, cfg, warm=ref)
        new = admm_solve(m_obs, omega, a_k, b_k, cfg, warm=new)
        assert new.inner_iter == ref.inner_iter
        assert fro_norm(new.x - ref.x) <= 1e-12 * fro_norm(ref.x)
        assert np.array_equal(new.e, dct3(new.x))
        assert not new.z.any()


def test_zero_lambda_continues_a_sparse_state_exactly():
    # a lam > 0 state carries z != 0, so idct3(e + z/mu) is not the
    # previous x: the E/Z steps run, as in the oracle
    g, omega = _low_rank_instance(23, 10, 2, 3, 0.6)
    m_obs = apply_mask(g, omega)
    a_k, b_k = truncate_factors(tsvd(m_obs), 2)
    cfg = SolverConfig(r=2, lam=0.05, mu_init=1e-2, max_inner=15, eps_inner=1e-30, seed=23)
    ref = reference_admm_solve(m_obs, omega, a_k, b_k, cfg)
    new = admm_solve(m_obs, omega, a_k, b_k, cfg)
    assert new.z.any()
    cfg = replace(cfg, lam=0.0)
    for _ in range(2):
        ref = reference_admm_solve(m_obs, omega, a_k, b_k, cfg, warm=ref)
        new = admm_solve(m_obs, omega, a_k, b_k, cfg, warm=new)
        assert new.inner_iter == ref.inner_iter == 15
        assert np.array_equal(new.x, ref.x)


def test_complete_zero_lambda_dct_residual_is_zero():
    g, omega = _low_rank_instance(21, 10, 2, 3, 0.6)
    report = srtd_complete(g, omega, SolverConfig(r=2, lam=0.0, seed=21))
    assert report.final_residuals[1] == 0.0
    assert np.array_equal(report.recovered[omega], g[omega])
