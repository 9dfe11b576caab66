"""The in-place ADMM sweep: bitwise equal to the allocating reference in
``oracles.py`` (a round-off away where lambda = 0 skips the E/Z steps),
blind to the data off the mask, never writing its inputs or a warm start's
x, and bounded in peak memory, down to the SVT of one frequency slice."""

import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from srtd import solver, t_algebra, transforms
from srtd.solver import SolverConfig, SolverState, admm_solve, srtd_complete
from srtd.t_algebra import svt, tproduct, tsvd_leading
from srtd.tensor_core import fro_norm, ttranspose

from oracles import bcirc, fold, reference_admm_solve, reference_complete, unfold


def _instance(shape, seed):
    # tubal rank 2 plus noise, so the SVT keeps and drops values every sweep
    rng = np.random.default_rng(seed)
    n1, n2, n3 = shape
    g = tproduct(rng.random((n1, 2, n3)), rng.random((2, n2, n3)))
    g += 0.05 * rng.standard_normal(shape)
    g *= 255.0 / np.abs(g).max()
    omega = rng.random(shape) < 0.6
    omega[0, 0, 0] = True
    return g, omega


def _factors(m_obs, r):
    u_r, v_r = tsvd_leading(m_obs, r)
    return ttranspose(u_r), ttranspose(v_r)


def _same_state(a: SolverState, b: SolverState) -> bool:
    return (all(np.array_equal(getattr(a, f), getattr(b, f)) for f in "xweyz")
            and a.mu == b.mu and a.inner_iter == b.inner_iter)


def _copy(state: SolverState) -> SolverState:
    return replace(state, **{f: getattr(state, f).copy() for f in "xweyz"})


def _near(a, b) -> bool:
    return fro_norm(a - b) <= 1e-12 * fro_norm(b)


def _near_state(a: SolverState, b: SolverState) -> bool:
    # the lambda = 0 sweep skips the E/Z steps, a round-off away from the
    # reference; y gathers that round-off in steps of mu (x - w)
    return (all(_near(getattr(a, f), getattr(b, f)) for f in "xwe")
            and fro_norm(a.y - b.y) <= 1e-12 * b.mu * fro_norm(b.x)
            and not a.z.any() and not b.z.any()
            and a.mu == b.mu and a.inner_iter == b.inner_iter)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("n3", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("dims", [(9, 6), (6, 9)], ids=["tall", "wide"])
def test_sweep_is_bitwise_the_allocating_reference(slice_threads, threads, n3, dims):
    slice_threads(threads)
    g, omega = _instance((*dims, n3), seed=10 * n3 + dims[0])
    m_obs = np.where(omega, g, 0.0)
    a_k, b_k = _factors(m_obs, 2)
    for lam in (0.02, 0.0):
        same = _same_state if lam else _near_state
        for stop_mode in ("relative", "absolute"):
            # 16 sweeps per call, cold and then warm: a buffer that goes
            # stale after the first sweep, or after a call, shows here
            cfg = SolverConfig(r=2, lam=lam, mu_init=1e-2, eps_inner=1e-30, max_inner=16,
                               stop_mode=stop_mode, seed=n3)
            ref = new = None
            for _ in range(2):
                ref = reference_admm_solve(m_obs, omega, a_k, b_k, cfg, warm=ref)
                new = admm_solve(m_obs, omega, a_k, b_k, cfg, warm=new)
                assert same(new, ref)
            # the whole solve, with the inner and outer stop tests live
            cfg = SolverConfig(r=2, lam=lam, mu_init=1e-2, max_outer=4, eps_inner=1e-4,
                               stop_mode=stop_mode, seed=n3)
            recovered, trace, residuals, outer, inner = reference_complete(g, omega, cfg)
            report = srtd_complete(g, omega, cfg)
            assert (report.outer_iters, report.inner_iters_total) == (outer, inner)
            assert inner >= 15
            if lam:
                assert np.array_equal(report.recovered, recovered)
                assert report.objective_trace == trace
                assert report.final_residuals == residuals
            else:
                assert _near(report.recovered, recovered)
                assert np.allclose(report.objective_trace, trace, rtol=1e-11, atol=0)
                assert report.final_residuals[1] == residuals[1] == 0.0
                assert np.allclose(report.final_residuals, residuals, rtol=0,
                                   atol=1e-12 * fro_norm(recovered))


def test_sweep_ignores_m_off_the_mask_and_writes_no_input():
    g, omega = _instance((8, 7, 4), seed=3)
    m_obs = np.where(omega, g, 0.0)
    spoiled = np.where(omega, g, np.nan)
    spoiled_before = spoiled.copy()
    a_k, b_k = _factors(m_obs, 2)
    cfg = SolverConfig(r=2, lam=0.02, max_inner=20, seed=3)

    clean = admm_solve(m_obs, omega, a_k, b_k, cfg)
    state = admm_solve(spoiled, omega, a_k, b_k, cfg)
    assert _same_state(state, clean)
    assert np.array_equal(spoiled, spoiled_before, equal_nan=True)

    # a warm start's w, e, y, z are updated in place; its x array is kept
    clean = admm_solve(m_obs, omega, a_k, b_k, cfg, warm=_copy(clean))
    x_before = state.x
    x_saved = x_before.copy()
    state = admm_solve(spoiled, omega, a_k, b_k, cfg, warm=state)
    assert _same_state(state, clean)
    assert np.array_equal(x_before, x_saved)
    assert state.x is not x_before
    assert np.array_equal(spoiled, spoiled_before, equal_nan=True)


@pytest.mark.parametrize("n3", [1, 2, 3, 4, 5, 32])
@pytest.mark.parametrize("rank", ["1", "min"])
def test_w_update_rebuilds_the_rank_r_term_bit_for_bit(monkeypatch, n3, rank):
    # the W-update rebuilds tproduct(ttranspose(a_k), b_k) from the factors'
    # spectra straight into w's buffer, two rows at a time here, the odd
    # last row joining the block before it: numpy would multiply a one-row
    # block by gemv, not gemm. With x = y = 0, mu = 1 and nothing observed,
    # w is that term, which must be the allocating reference's t-product
    # bit for bit; the buffer's old contents are never read. r = 1
    # multiplies outside BLAS, r = 7 inside
    rng = np.random.default_rng(n3)
    n1, n2 = 9, 7
    r = 1 if rank == "1" else min(n1, n2)
    a_k, b_k = rng.standard_normal((r, n1, n3)), rng.standard_normal((r, n2, n3))
    factors = solver.factor_spectra(a_k, b_k)
    nf = n3 // 2 + 1
    monkeypatch.setattr(transforms, "SLAB_ENTRIES", 2 * n2 * (2 * nf + n3))
    blocks = []

    def cut(*args, **kwargs):
        blocks.extend(len(range(n1)[s]) for s in transforms.slabs(*args, **kwargs))
        return transforms.slabs(*args, **kwargs)

    monkeypatch.setattr(t_algebra, "slabs", cut)
    zero = np.zeros((n1, n2, n3))
    state = SolverState(x=zero, w=None, e=None, y=zero, z=None, mu=1.0)
    w = np.full(zero.shape, np.nan)
    out = solver.update_w(state, SolverConfig(r=r), zero, np.zeros(zero.shape, bool), factors,
                          out=w)
    assert blocks == [2, 2, 2, 3]
    term = tproduct(ttranspose(a_k), b_k)
    assert out is w
    assert np.array_equal(w, term)
    # and the term is the t-product, by the block-circulant route
    oracle = fold(bcirc(ttranspose(a_k)) @ unfold(b_k), zero.shape)
    assert fro_norm(term - oracle) <= 1e-12 * fro_norm(oracle)


def _traced_peak(fn):
    """The traced peak of one call of fn, in bytes, and its result."""
    tracemalloc.start()
    try:
        result = fn()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def test_pin_writes_m_bit_for_bit_on_the_mask(monkeypatch):
    # w[omega] = m[omega] with every bit kept: signed zeros, NaN off the
    # mask never read, a strided m, and slabs that end inside a row
    rng = np.random.default_rng(4)
    shape = (9, 7, 5)
    omega = rng.random(shape) < 0.5
    w = rng.standard_normal(shape)
    w[0] = -0.0
    m = rng.standard_normal(shape)
    m[1] = -0.0
    m[~omega] = np.nan
    monkeypatch.setattr(transforms, "SLAB_ENTRIES", 40)
    for m_in in (m, np.asfortranarray(m)):
        got, want = w.copy(), w.copy()
        solver._pin(got, m_in, omega)
        want[omega] = m_in[omega]
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("route", ["gram", "svd"])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("dims", [(128, 128), (128, 96), (96, 128)],
                         ids=["square", "tall", "wide"])
def test_a_slice_shrinks_beside_two_slice_sized_matrices(monkeypatch, dims, dtype, route):
    # at every k, from none kept to all kept, a slice is shrunk in its own
    # array with at most two matrices of its size beside it (its Gram matrix
    # and conjugate, then the eigenvectors and one product; or the SVD's
    # factors), numpy's buffer for a broadcast product and a few vectors
    # (a rebuild into a new array held up to four)
    if route == "svd":
        monkeypatch.setattr(t_algebra, "GRAM_COND", 0.0)
    calls = Counter()
    eigh = np.linalg.eigh

    def counted(*args, **kwargs):
        calls["eigh"] += 1
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    rng = np.random.default_rng(8)
    m0 = rng.standard_normal(dims).astype(dtype)
    if dtype == np.complex128:
        m0 += 1j * rng.standard_normal(dims)
    sv = np.linalg.svd(m0, compute_uv=False)
    n = len(sv)
    bound = 2 * m0.nbytes + np.getbufsize() * m0.itemsize + 64 * max(dims)
    for keep in (n, n - n // 20, n // 2, n // 20, 0):
        tau = sv[keep] if keep < n else 0.5 * sv[-1]
        assert np.count_nonzero(sv > tau) == keep
        t_algebra._shrink(m0.copy(), tau)  # the lazy imports and caches
        m = m0.copy()
        assert _traced_peak(lambda: t_algebra._shrink(m, tau))[0] <= bound
    assert (calls["eigh"] > 0) == (route == "gram")


@pytest.mark.parametrize("threads", [1, 2])
def test_svt_peak_memory_when_most_values_survive(slice_threads, threads):
    # 128x128x3 at a tau that keeps at least 90% of the spectral singular
    # values, so each slice is rebuilt from nearly all of its eigenpairs.
    # The rfft slices, one real and one complex, take one tensor size. While
    # they shrink, each slice thread adds two matrices of its slice's size
    # and numpy's buffer for a broadcast product; after them, the new x and
    # one row block of the inverse FFT's temporaries. Measured: 2.66 tensor
    # sizes on one thread, 3.17-3.19 on two (3.95 and 3.96-5.26 when the
    # slices were views of one complex stack, each rebuilt into a new array)
    slice_threads(threads)
    rng = np.random.default_rng(9)
    x = rng.standard_normal((128, 128, 3))
    slices = t_algebra._spectrum(x)
    sv = np.concatenate([np.linalg.svd(f, compute_uv=False) for f in slices])
    tau = np.quantile(sv, 0.05)
    assert np.mean(sv > tau) >= 0.9
    shrinking = sum(2 * f.nbytes + np.getbufsize() * f.itemsize
                    for f in sorted(slices, key=lambda f: -f.nbytes)[:threads])
    inverting = x.nbytes + transforms.SLAB_ENTRIES * 8
    bound = x.nbytes + max(shrinking, inverting)
    svt(x, tau)  # the lazy imports and caches
    assert _traced_peak(lambda: svt(x, tau))[0] <= bound + 0.05 * x.nbytes


def _solve_peak(g, omega, cfg, warmup_cfg=None):
    """The traced peak of one srtd_complete call, in sizes of g; a first
    call, with ``warmup_cfg`` if given, takes the lazy imports and caches."""
    m_obs = np.where(omega, g, 0.0)
    srtd_complete(m_obs, omega, warmup_cfg or cfg)
    peak, report = _traced_peak(lambda: srtd_complete(m_obs, omega, cfg))
    return peak / g.nbytes, report


def test_solve_peak_memory_in_tensor_sizes(slice_threads):
    # 48x40x24, r = 3: the allocating sweep peaked at 12.31 tensors, the
    # in-place sweep at 9.40, with the new x in e's spent buffer at 9.11,
    # and with the SVT's argument in w's buffer, e's released and the new x
    # allocated after the slices at 8.31 (numpy 2.4, one slice thread)
    slice_threads(1)
    rng = np.random.default_rng(0)
    g = tproduct(rng.random((48, 3, 24)), rng.random((3, 40, 24)))
    g *= 255.0 / g.max()
    omega = rng.random(g.shape) < 0.5
    peak, _ = _solve_peak(g, omega, SolverConfig(r=3, seed=0))
    assert peak <= 8.7


def test_sweep_writes_x_into_the_spent_e_buffer(slice_threads):
    # 64x64x32, r = 4, as the benchmark's video workload, two outer steps of
    # 20 sweeps (numpy 2.4, one slice thread). A sweep that allocates its
    # new x and idct3's result peaked at 10.33 tensors; with both written
    # into e's spent buffer, and the new e into the previous x's, at 9.58;
    # with e's buffer released before the SVT instead, which allocates the
    # new x after its slices, at 8.58, and 8.48 with the slices held as
    # contiguous arrays. With the W-update's rank-r term rebuilt from its
    # factors' spectra instead of held whole, and the outer step's change
    # and objective taken with one temporary each, at 7.64. The same at
    # lambda = 0, with the E/Z steps skipped. The bound keeps the margin
    # it had over 8.48
    slice_threads(1)
    rng = np.random.default_rng(0)
    g = tproduct(rng.random((64, 4, 32)), rng.random((4, 64, 32)))
    g *= 255.0 / g.max()
    omega = rng.random(g.shape) < 0.5
    for lam in (0.01, 0.0):
        cfg = SolverConfig(r=4, lam=lam, stop_mode="absolute", max_outer=2, max_inner=20,
                           seed=0)
        peak, report = _solve_peak(g, omega, cfg, replace(cfg, max_inner=2))
        assert (report.outer_iters, report.inner_iters_total) == (2, 40)
        assert peak <= 8.15


def test_outer_steps_of_one_sweep_peak_memory(slice_threads):
    # 64x64x32, r = 4, two outer steps of one sweep each, as the benchmark's
    # video workload ends its second step after one sweep. Between the
    # sweeps the outer step takes its change of x with one temporary, in
    # the previous x's buffer after the first step, and its objective's l1
    # term in dct3's own result, and an in-place DCT holds one slab buffer
    # at a time. Measured 6.69 tensors at lambda 0.01 and 6.64 at 0 (numpy
    # 2.4, one slice thread); 7.25 with np.where's and np.abs's full-size
    # temporaries and each DCT slab's buffer held into the next, and 7.57
    # and 7.75 with the W-update's rank-r term held whole as well
    slice_threads(1)
    rng = np.random.default_rng(0)
    g = tproduct(rng.random((64, 4, 32)), rng.random((4, 64, 32)))
    g *= 255.0 / g.max()
    omega = rng.random(g.shape) < 0.5
    for lam in (0.01, 0.0):
        cfg = SolverConfig(r=4, lam=lam, stop_mode="absolute", max_outer=2, max_inner=1,
                           seed=0)
        peak, report = _solve_peak(g, omega, cfg)
        assert (report.outer_iters, report.inner_iters_total) == (2, 2)
        assert peak <= 7.0


@pytest.mark.parametrize("inverse", [False, True], ids=["dct3", "idct3"])
def test_an_in_place_dct_holds_one_slab_buffer(inverse):
    # 64x64x32 is four slabs of SLAB_ENTRIES entries on every mode; each
    # slab's buffer is released before the next one is made, so an in-place
    # transform's own temporaries are one slab (two when each slab's buffer
    # was held into the next)
    x = np.random.default_rng(1).standard_normal((64, 64, 32))
    fn = transforms.idct3 if inverse else transforms.dct3
    fn(x, out=x)  # the cached DCT matrices
    assert _traced_peak(lambda: fn(x, out=x))[0] <= 1.1 * transforms.SLAB_ENTRIES * 8


@pytest.mark.parametrize("threads, bound", [(1, 8.7), (2, 9.1)], ids=["1-thread", "2-threads"])
def test_solve_peak_memory_with_few_large_slices(slice_threads, threads, bound):
    # 128x96x3, r = 4: two frequency slices, which two slice threads shrink
    # at once. Before the SVT's argument moved into w's buffer the solve
    # peaked at 10.84 tensors on one thread and 10.9-11.5 on two; after, at
    # 8.84 on one and 8.84-9.68 over 20 runs on two, as the two slices'
    # temporaries overlap more or less; with the slices held as contiguous
    # arrays and shrunk in place, at 8.27 on one and 8.27-8.61 over 190
    # runs on two (median 8.27; numpy 2.4). The bounds keep the margins
    # they had over those measurements
    slice_threads(threads)
    rng = np.random.default_rng(0)
    g = tproduct(rng.random((128, 4, 3)), rng.random((4, 96, 3)))
    g *= 255.0 / g.max()
    omega = rng.random(g.shape) < 0.5
    peak, _ = _solve_peak(g, omega, SolverConfig(r=4, seed=0))
    assert peak <= bound
