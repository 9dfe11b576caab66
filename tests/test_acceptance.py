"""Acceptance gate: twelve numbered end-to-end checks covering the algebra
oracles, transform identities, solver recovery, degeneration, the sparsity
trend, CLI determinism, and the penalty schedule. Each check prints exactly
one [PASS]/[FAIL] line with the measured quantity and its limit (visible
with -rA or -s), then asserts."""

import csv
import time
from dataclasses import replace

import numpy as np

from srtd import cli
from srtd.evalkit import psnr, random_mask
from srtd.pnm import save_image
from srtd.solver import SolverConfig, admm_solve, srtd_complete
from srtd.t_algebra import (
    _from_spectrum,
    _spectrum,
    svt,
    tnn,
    tproduct,
    trace_pair,
)
from srtd.tensor_core import fro_norm, ttranspose
from srtd.transforms import dct3, idct3

from oracles import (
    _spectral_stack,
    bcirc,
    fold,
    identity_tensor,
    inner_product,
    reference_admm_solve,
    tnn_via_tsvd,
    trace_bound_check,
    truncate_factors,
    tsvd,
    ttrace,
    unfold,
)


def _verdict(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {num:02d} {label}: {detail}")
    assert ok, f"criterion {num} ({label}): {detail}"


_BENCH = {}


def _benchmark():
    """Shared synthetic instance: exactly tubal-rank-3 30x30x5 tensor scaled
    to peak 255, half the entries observed. Solved once, reused by the
    recovery and penalty-schedule checks."""
    if _BENCH:
        return _BENCH
    rng = np.random.default_rng(8)
    p = rng.standard_normal((30, 3, 5))
    q = rng.standard_normal((3, 30, 5))
    g_raw = tproduct(p, q)
    g = g_raw * (255.0 / np.abs(g_raw).max())
    # the sparsity weight 0.05 belongs to the generator's native scale; carry
    # it onto the 255-peak instance by the same ratio
    lam = 0.05 * np.abs(g_raw).max() / 255.0
    omega = random_mask(g.shape, 0.5, 8)
    cfg = SolverConfig(r=3, lam=lam, stop_mode="absolute", seed=8)
    start = time.perf_counter()
    report = srtd_complete(g, omega, cfg)
    _BENCH.update(g=g, omega=omega, cfg=cfg, report=report,
                  runtime=time.perf_counter() - start)
    return _BENCH


def test_01_tproduct_matches_bcirc_oracle():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n1, n2, n4, n3 = rng.integers(1, 5, size=4)
        a = rng.standard_normal((n1, n2, n3))
        b = rng.standard_normal((n2, n4, n3))
        c = tproduct(a, b)
        oracle = fold(bcirc(a) @ unfold(b), (n1, n4, n3))
        worst = max(worst, fro_norm(c - oracle) / max(fro_norm(oracle), 1e-12))
    dt = time.perf_counter() - start
    _verdict(1, "t-product vs block-circulant oracle",
             worst <= 1e-10 and dt < 5.0,
             f"max rel err {worst:.2e} (limit 1e-10) over 200 pairs, {dt:.2f}s (limit 5s)")


def test_02_tsvd_factorization_suite():
    rng = np.random.default_rng(102)
    start = time.perf_counter()
    worst_recon = worst_orth = worst_fdiag = worst_order = 0.0
    for _ in range(100):
        n1, n2 = rng.integers(1, 9, size=2)
        n3 = int(rng.integers(1, 7))
        a = rng.standard_normal((n1, n2, n3))
        u, s, v = tsvd(a)
        recon = tproduct(tproduct(u, s), ttranspose(v))
        worst_recon = max(worst_recon, fro_norm(recon - a) / fro_norm(a))
        worst_orth = max(
            worst_orth,
            fro_norm(tproduct(ttranspose(u), u) - identity_tensor(n1, n3)),
            fro_norm(tproduct(ttranspose(v), v) - identity_tensor(n2, n3)),
        )
        off = s.copy()
        k = np.arange(min(n1, n2))
        off[k, k, :] = 0.0
        worst_fdiag = max(worst_fdiag, np.abs(off).max() / max(fro_norm(s), 1.0))
        spec = np.fft.fft(s, axis=2)
        for i in range(n3):
            d = np.diagonal(spec[:, :, i])
            worst_order = max(worst_order, np.abs(d.imag).max(initial=0.0),
                              -d.real.min(initial=0.0),
                              np.diff(d.real).max(initial=-np.inf))
    dt = time.perf_counter() - start
    ok = (worst_recon <= 1e-9 and worst_orth <= 1e-9 and worst_fdiag <= 1e-9
          and worst_order <= 1e-9 and dt < 10.0)
    _verdict(2, "T-SVD reconstruction/orthogonality/f-diagonality/ordering", ok,
             f"recon {worst_recon:.2e}, orth {worst_orth:.2e}, f-diag {worst_fdiag:.2e}, "
             f"ordering {worst_order:.2e} (limits 1e-9) over 100 tensors, {dt:.2f}s (limit 10s)")


def test_03_nuclear_norm_paths_agree():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(100):
        n1, n2 = rng.integers(1, 7, size=2)
        n3 = int(rng.integers(1, 6))
        a = rng.standard_normal((n1, n2, n3))
        fast, slow = tnn(a), tnn_via_tsvd(a)
        worst = max(worst, abs(fast - slow) / max(fast, 1.0))
    _verdict(3, "nuclear norm fast path vs T-SVD core trace",
             worst <= 1e-9, f"max rel diff {worst:.2e} (limit 1e-9) over 100 tensors")


def test_04_trace_identity():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(100):
        n1, n2 = rng.integers(1, 7, size=2)
        n3 = int(rng.integers(1, 6))
        a = rng.standard_normal((n1, n2, n3))
        b = rng.standard_normal((n2, n1, n3))
        lhs = ttrace(tproduct(a, b))
        rhs = trace_pair(a, b)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1.0))
    _verdict(4, "trace of t-product vs zero-frequency slice product",
             worst <= 1e-9, f"max rel diff {worst:.2e} (limit 1e-9) over 100 pairs")


def test_05_trace_inequality():
    rng = np.random.default_rng(105)
    violations = 0
    worst_gap = 0.0
    for _ in range(200):
        m, n = rng.integers(2, 8, size=2)
        r = int(rng.integers(1, min(m, n) + 1))
        x = rng.standard_normal((m, n))
        a = np.linalg.qr(rng.standard_normal((m, r)))[0].T
        b = np.linalg.qr(rng.standard_normal((n, r)))[0].T
        if not trace_bound_check(x, a, b):
            violations += 1
        # equality case: leading singular blocks achieve the bound
        u, sv, vh = np.linalg.svd(x)
        lhs = np.trace(u[:, :r].T @ x @ vh[:r].T)
        worst_gap = max(worst_gap, abs(lhs - sv[:r].sum()))
    _verdict(5, "trace inequality over random orthonormal blocks",
             violations == 0 and worst_gap <= 1e-8,
             f"{violations} violations in 200 trials, equality gap {worst_gap:.2e} (limit 1e-8)")


def test_06_svt_prox_checks():
    # matrix hand oracle
    x_mat = np.zeros((2, 2, 1))
    x_mat[:, :, 0] = np.diag([3.0, 1.0])
    hand = np.abs(svt(x_mat, 2.0)[:, :, 0] - np.diag([1.0, 0.0])).max()

    # perturbation optimality of the shrunk point for the per-frequency
    # nuclear-norm functional (identical to tau*tnn when n3 == 1)
    def spectral_objective(v, x, tau):
        fv = np.fft.fft(v, axis=2)
        nuc = sum(np.linalg.svd(fv[:, :, i], compute_uv=False).sum()
                  for i in range(v.shape[2]))
        return tau * nuc / v.shape[2] + 0.5 * fro_norm(v - x) ** 2

    rng = np.random.default_rng(106)
    worst_gain = -np.inf
    for inst in range(10):
        n1, n2 = rng.integers(2, 6, size=2)
        n3 = 1 if inst < 3 else int(rng.integers(2, 5))
        x = rng.standard_normal((n1, n2, n3))
        tau = float(rng.uniform(0.2, 2.0))
        y = svt(x, tau)
        base = spectral_objective(y, x, tau)
        for _ in range(100):
            delta = rng.standard_normal(x.shape)
            delta *= 1e-3 * fro_norm(x) / fro_norm(delta)
            worst_gain = max(worst_gain, base - spectral_objective(y + delta, x, tau))

    worst_expand = 0.0
    for _ in range(50):
        x = rng.standard_normal((4, 5, 3))
        y = rng.standard_normal((4, 5, 3))
        worst_expand = max(
            worst_expand, fro_norm(svt(x, 0.8) - svt(y, 0.8)) - fro_norm(x - y))
    ok = hand <= 1e-12 and worst_gain <= 1e-12 and worst_expand <= 1e-9
    _verdict(6, "SVT hand oracle / prox optimality / non-expansiveness", ok,
             f"hand-oracle err {hand:.2e} (limit 1e-12), best perturbation gain "
             f"{worst_gain:.2e} (limit 1e-12), expansion excess {worst_expand:.2e} (limit 1e-9)")


def test_07_transform_suite():
    rng = np.random.default_rng(107)
    worst_parseval = worst_inner = worst_dct_rt = worst_dft_rt = worst_sym = 0.0
    for _ in range(100):
        a = rng.standard_normal(tuple(rng.integers(1, 8, size=3)))
        n = fro_norm(a)
        worst_parseval = max(worst_parseval, abs(fro_norm(dct3(a)) - n) / max(n, 1.0))
    for _ in range(20):
        dims = tuple(rng.integers(1, 8, size=3))
        a = rng.standard_normal(dims)
        b = rng.standard_normal(dims)
        worst_inner = max(worst_inner, abs(
            inner_product(dct3(a), dct3(b)) - inner_product(a, b)) / max(abs(inner_product(a, b)), 1.0))
        worst_dct_rt = max(worst_dct_rt, np.abs(idct3(dct3(a)) - a).max(),
                           np.abs(dct3(idct3(a)) - a).max())
        # the solver's rfft pair: only the zero-frequency slice, and the
        # Nyquist slice when n3 is even, must be real, and the pair holds
        # them as real matrices
        n3 = dims[2]
        worst_dft_rt = max(worst_dft_rt, np.abs(_from_spectrum(_spectrum(a), n3) - a).max())
        s = _spectral_stack(a)
        real_slices = (0, n3 // 2) if n3 % 2 == 0 else (0,)
        for i in real_slices:
            worst_sym = max(worst_sym, np.abs(s[i].imag).max())
    ok = (worst_parseval <= 1e-10 and worst_inner <= 1e-10
          and worst_dct_rt <= 1e-10 and worst_dft_rt <= 1e-10 and worst_sym <= 1e-12)
    _verdict(7, "DCT unitarity and DFT/DCT round trips", ok,
             f"parseval {worst_parseval:.2e}, inner {worst_inner:.2e}, dct rt {worst_dct_rt:.2e}, "
             f"dft rt {worst_dft_rt:.2e} (limits 1e-10), conj sym {worst_sym:.2e} (limit 1e-12)")


def test_08_synthetic_exact_recovery():
    bench = _benchmark()
    g, omega, report = bench["g"], bench["omega"], bench["report"]
    rel = fro_norm(report.recovered - g) / fro_norm(g)
    pinned = np.array_equal(report.recovered[omega], g[omega])
    ok = rel <= 5e-2 and pinned and bench["runtime"] < 120.0
    _verdict(8, "synthetic tubal-rank-3 recovery at half observation", ok,
             f"rel err {rel:.3e} (limit 5e-2), observed entries bitwise={pinned}, "
             f"{bench['runtime']:.2f}s (limit 120s)")


def test_09_zero_lambda_degenerates_to_pure_truncated_path():
    rng = np.random.default_rng(9)
    g = tproduct(rng.standard_normal((12, 4, 3)), rng.standard_normal((4, 12, 3)))
    g *= 255.0 / np.abs(g).max()
    omega = random_mask(g.shape, 0.5, 9)
    m_obs = np.where(omega, g, 0.0)
    cfg = SolverConfig(r=4, lam=0.0, max_inner=5, eps_inner=1e-30, seed=9)
    a_k, b_k = truncate_factors(tsvd(m_obs), 4)
    # the solver skips the E/Z steps at lambda = 0; the oracle runs them.
    # Each call's first sweep forms idct3(e + z/mu) from e and z, and only
    # the later ones take the previous x in its place, so the calls run
    # several sweeps each
    full = short = None
    worst = 0.0
    for _ in range(4):
        full = reference_admm_solve(m_obs, omega, a_k, b_k, cfg, warm=full)
        short = admm_solve(m_obs, omega, a_k, b_k, cfg, warm=short)
        worst = max(worst, np.abs(full.x - short.x).max())
    _verdict(9, "lambda=0 iterates match the full E/Z loop",
             worst <= 1e-10,
             f"max per-iterate diff {worst:.2e} (limit 1e-10) over 4 calls of 5 sweeps")


def test_10_sparsity_term_helps_on_dct_sparse_target():
    start = time.perf_counter()
    g = _benchmark()["g"]
    coeffs = dct3(g)
    keep = int(round(0.05 * coeffs.size))
    cut = np.sort(np.abs(coeffs).ravel())[-keep]
    target = idct3(np.where(np.abs(coeffs) >= cut, coeffs, 0.0))
    gains = []
    for seed in (0, 1, 2):
        omega = random_mask(target.shape, 0.3, seed)
        by_lam = {}
        for lam in (0.0, 0.01, 0.05, 0.1):
            cfg = SolverConfig(r=3, lam=lam, stop_mode="absolute", seed=seed)
            rep = srtd_complete(target, omega, cfg)
            by_lam[lam] = psnr(rep.recovered, target, mode="standard")
        gains.append(max(by_lam[l] for l in (0.01, 0.05, 0.1)) - by_lam[0.0])
    dt = time.perf_counter() - start
    wins = sum(gain >= 0.2 for gain in gains)
    _verdict(10, "sparsity weight improves PSNR on a DCT-sparse target",
             wins >= 2 and dt < 300.0,
             f"gains {[f'{gain:+.2f}' for gain in gains]} dB vs lambda=0 "
             f"(win means >= +0.2 dB, {wins}/3 seeds), {dt:.1f}s (limit 300s)")


def test_11_cli_determinism(tmp_path):
    rng = np.random.default_rng(11)
    img_path = tmp_path / "scene.ppm"
    save_image(rng.integers(0, 256, size=(12, 10, 3)).astype(float), img_path)
    outputs = []
    for run in ("first", "second"):
        out = tmp_path / run
        rc = cli.main(["complete", "--input", str(img_path), "--sr", "0.5",
                       "--seed", "2", "--rank", "2", "--max-outer", "3",
                       "--out", str(out)])
        assert rc == 0
        recovered = (out / "scene_recovered.ppm").read_bytes()
        with open(out / "report.csv") as fh:
            comment = fh.readline()
            rows = [row[:8] + row[9:] for row in csv.reader(fh)]  # drop wall_time
        outputs.append((recovered, comment, rows))
    same_media = outputs[0][0] == outputs[1][0]
    same_report = outputs[0][1:] == outputs[1][1:]
    _verdict(11, "repeated CLI runs are byte-identical", same_media and same_report,
             f"recovered bytes equal={same_media}, report rows equal "
             f"modulo wall_time={same_report}")


def test_12_penalty_schedule_and_feasibility():
    bench = _benchmark()
    g, omega, cfg, report = bench["g"], bench["omega"], bench["cfg"], bench["report"]
    m_obs = np.where(omega, g, 0.0)

    # re-run the exact solve one ADMM sweep at a time to observe mu
    step_cfg = replace(cfg, max_inner=1)
    x_cur, state, mus = m_obs, None, []
    for _ in range(cfg.max_outer):
        a_k, b_k = truncate_factors(tsvd(x_cur), cfg.r)
        for _ in range(cfg.max_inner):
            x_prev = state.x if state is not None else m_obs
            state = admm_solve(m_obs, omega, a_k, b_k, step_cfg, warm=state)
            mus.append(state.mu)
            if fro_norm(state.x - x_prev) <= cfg.inner_tol:
                break
        delta = fro_norm(state.x - x_cur)
        x_cur = state.x
        if delta <= cfg.eps_outer:
            break

    replays = fro_norm(np.where(omega, 0.0, x_cur - report.recovered))
    faithful = replays <= 1e-10 * fro_norm(g)
    monotone = all(m2 >= m1 for m1, m2 in zip(mus, mus[1:]))
    capped = all(mu <= cfg.mu_max for mu in mus)
    schedule = np.allclose(
        mus, [min(cfg.mu_init * cfg.rho ** t, cfg.mu_max) for t in range(1, len(mus) + 1)],
        rtol=1e-9)
    bound = 1e-2 * fro_norm(g)
    feasible = report.final_residuals[0] <= bound and report.final_residuals[1] <= bound
    ok = faithful and monotone and capped and schedule and feasible
    _verdict(12, "penalty schedule monotone+capped, final residuals small", ok,
             f"replay gap {replays:.1e}, mu monotone={monotone}, capped={capped}, "
             f"geometric schedule={schedule}, residuals ({report.final_residuals[0]:.2e}, "
             f"{report.final_residuals[1]:.2e}) <= {bound:.2e}")
