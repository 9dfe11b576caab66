"""The in-place ADMM sweep: bitwise equal to the allocating reference in
``oracles.py`` (a round-off away where lambda = 0 skips the E/Z steps),
blind to the data off the mask, never writing its inputs, updating a warm
start's four arrays in place, and bounded in peak memory, down to the SVT
of one frequency slice."""

import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from srtd import solver, t_algebra, transforms
from srtd.solver import SolverConfig, SolverState, admm_solve, srtd_complete
from srtd.t_algebra import svt
from srtd.tensor_core import fro_norm

from oracles import (
    ReferenceState,
    reference_admm_solve,
    reference_argument,
    reference_complete,
    tproduct,
)

_PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)


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


def _arrays(state) -> tuple:
    """x, the next X-update's argument, y and z of a solver state, or of
    a reference state, whose argument is formed from its w and e."""
    arg = reference_argument(state) if isinstance(state, ReferenceState) else state.arg
    return state.x, arg, state.y, state.z


def _same_state(a, b) -> bool:
    return (all(np.array_equal(p, q) for p, q in zip(_arrays(a), _arrays(b)))
            and a.mu == b.mu and a.inner_iter == b.inner_iter)


def _copy(state: SolverState) -> SolverState:
    return replace(state, **{f: getattr(state, f).copy() for f in ("x", "arg", "y", "z")})


def _near(a, b) -> bool:
    return fro_norm(a - b) <= 1e-12 * fro_norm(b)


def _near_state(a, b) -> bool:
    # the lambda = 0 sweep skips the E/Z steps, a round-off away from the
    # reference; y gathers that round-off in steps of mu (x - w)
    (ax, aarg, ay, az), (bx, barg, by, bz) = _arrays(a), _arrays(b)
    return (_near(ax, bx) and _near(aarg, barg)
            and fro_norm(ay - by) <= 1e-12 * b.mu * fro_norm(bx)
            and not az.any() and not bz.any()
            and a.mu == b.mu and a.inner_iter == b.inner_iter)


def _same_residuals(new: SolverState, ref: ReferenceState) -> bool:
    # the reference sums its residuals over the blocks the sweep's passes
    # take, so they are the sweep's to the bit; the SVT sums the iterate
    # change block by block, the reference over the whole array
    return (new.residuals == ref.residuals
            and abs(new.change - ref.change) <= 1e-12 * ref.change)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("n3", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("dims", [(9, 6), (6, 9)], ids=["tall", "wide"])
def test_sweep_is_bitwise_the_allocating_reference(slice_threads, threads, n3, dims):
    slice_threads(threads)
    g, omega = _instance((*dims, n3), seed=10 * n3 + dims[0])
    m_obs = np.where(omega, g, 0.0)
    for lam in (0.02, 0.0):
        same = _same_state if lam else _near_state
        for stop_mode in ("relative", "absolute"):
            # 16 sweeps per call, cold and then warm: a buffer that goes
            # stale after the first sweep, or after a call, shows here
            cfg = SolverConfig(r=2, lam=lam, mu_init=1e-2, eps_outer=1e-30, max_inner=16,
                               stop_mode=stop_mode, seed=n3)
            ref = new = None
            for _ in range(2):
                ref = reference_admm_solve(m_obs, omega, cfg, warm=ref)
                new = admm_solve(m_obs, omega, cfg, warm=new)
                assert same(new, ref)
                if lam:
                    assert _same_residuals(new, ref)
            # the whole solve, with the stop test live
            cfg = SolverConfig(r=2, lam=lam, mu_init=1e-2, eps_outer=1e-4,
                               stop_mode=stop_mode, seed=n3)
            recovered, trace, residuals, inner = reference_complete(g, omega, cfg)
            report = srtd_complete(g, omega, cfg)
            assert report.inner_iters_total == inner >= 15
            if lam:
                assert np.array_equal(report.recovered, recovered)
                assert report.objective_trace == trace
                # the residuals to the bit, the iterate change to round-off
                assert report.final_residuals[:2] == residuals[:2]
                assert np.allclose(report.final_residuals, residuals, rtol=1e-12, atol=0)
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
    cfg = SolverConfig(r=2, lam=0.02, max_inner=20, seed=3)

    clean = admm_solve(m_obs, omega, cfg)
    state = admm_solve(spoiled, omega, cfg)
    assert _same_state(state, clean)
    assert np.array_equal(spoiled, spoiled_before, equal_nan=True)

    # a warm start's four arrays are updated in place
    clean = admm_solve(m_obs, omega, cfg, warm=_copy(clean))
    before = _arrays(state)
    state = admm_solve(spoiled, omega, cfg, warm=state)
    assert _same_state(state, clean)
    assert all(new is old for new, old in zip(_arrays(state), before))
    assert np.array_equal(spoiled, spoiled_before, equal_nan=True)


@_PROPERTY
@given(n1=st.integers(1, 9), n2=st.integers(1, 9), n3=st.integers(1, 6),
       lam=st.sampled_from([0.0, 0.05]), warm=st.booleans(), seed=st.integers(0, 2**16))
def test_fused_sweep_is_bitwise_the_reference(n1, n2, n3, lam, warm, seed):
    # x, the next argument, y, z, the residuals, mu and the sweep count of
    # a call, cold or warm from a lambda = 0.05 call. A cold start at
    # lambda = 0 skips the E/Z steps, a round-off away from the reference
    # (test_zero_lambda_matches_the_full_ez_loop); from a warm state, whose
    # z is not 0, they run. mu starts at the partial SVT's gate
    assume(warm or lam)
    g, omega = _instance((n1, n2, n3), seed)
    m_obs = np.where(omega, g, 0.0)
    cfg = SolverConfig(r=1, lam=lam, mu_init=1e-2, eps_outer=1e-30, max_inner=6, seed=seed)
    ref = new = None
    if warm:
        ref = reference_admm_solve(m_obs, omega, replace(cfg, lam=0.05))
        new = admm_solve(m_obs, omega, replace(cfg, lam=0.05))
    ref = reference_admm_solve(m_obs, omega, cfg, warm=ref)
    new = admm_solve(m_obs, omega, cfg, warm=new)
    assert _same_state(new, ref) and new.inner_iter == 6
    assert _same_residuals(new, ref)


@_PROPERTY
@given(n1=st.integers(1, 9), n2=st.integers(1, 9), n3=st.integers(1, 6),
       lam=st.sampled_from([0.0, 0.05]), seed=st.integers(0, 2**16))
def test_sweeps_after_the_first_leave_y_off_the_mask(n1, n2, n3, lam, seed):
    # the first sweep of a call takes w = x + y/mu off the mask and leaves
    # y = 0 there, to round-off; later sweeps take w = x there, so the
    # Y-update adds mu (x - x) = 0 and y stays as it was, bit for bit. The
    # W-update adds y/mu in one sweep per call, cold or warm
    g, omega = _instance((n1, n2, n3), seed)
    m_obs = np.where(omega, g, 0.0)
    cfg = SolverConfig(r=1, lam=lam, mu_init=1e-2, eps_outer=1e-30, max_inner=1, seed=seed)
    firsts = []
    update_wy = solver.update_wy

    def counted(state, m, omega, first, back, mu_next):
        firsts.append(first)
        return update_wy(state, m, omega, first, back, mu_next)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "update_wy", counted)
        for warm in (None, admm_solve(m_obs, omega, cfg)):
            copy = (lambda: None) if warm is None else (lambda: _copy(warm))
            first = admm_solve(m_obs, omega, cfg, warm=copy())
            scale = 1.0 if warm is None else np.abs(warm.y).max(initial=0.0)
            assert np.abs(first.y[~omega]).max(initial=0.0) <= 1e-15 * max(scale, 1.0)
            firsts.clear()
            state = admm_solve(m_obs, omega, replace(cfg, max_inner=5), warm=copy())
            assert firsts[-5:] == [True, False, False, False, False] and state.inner_iter == 5
            assert np.array_equal(state.y[~omega], first.y[~omega])


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
    # The copy of x that holds the rfft slices, one real and one complex,
    # takes one tensor size. While they shrink, each slice thread adds two
    # matrices of its slice's size and numpy's buffer for a broadcast
    # product; after them, the new x and one row block of the inverse FFT's
    # temporaries. Measured: 2.66 tensor sizes on one thread, 3.17-3.19 on
    # two, as with the slices in arrays of their own (3.95 and 3.96-5.26
    # when they were views of one complex stack, each rebuilt into a new
    # array)
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


@pytest.mark.parametrize("threads", [1, 2])
def test_svt_into_out_allocates_no_result(slice_threads, threads):
    # 64x64x32: 17 small rfft slices, one tensor size in all, written over
    # the argument's own rows. Into out, the SVT holds one rfft block, the
    # temporaries of the slices being shrunk and then one row block of the
    # inverse FFT's, and no new x. Measured 0.26 tensor sizes on one slice
    # thread and 0.26-0.32 on two; 2.26 when the result is a new array,
    # shrunk in a copy of x
    slice_threads(threads)
    rng = np.random.default_rng(9)
    x = rng.standard_normal((64, 64, 32))
    slices = t_algebra._spectrum(x)
    sv = np.concatenate([np.linalg.svd(f, compute_uv=False) for f in slices])
    tau = np.quantile(sv, 0.05)
    shrinking = sum(2 * f.nbytes + np.getbufsize() * f.itemsize
                    for f in sorted(slices, key=lambda f: -f.nbytes)[:threads])
    bound = max(shrinking, transforms.SLAB_ENTRIES * 8)
    out = np.empty_like(x)
    svt(x.copy(), tau, out=out)  # the lazy imports and caches
    spent = x.copy()
    assert _traced_peak(lambda: svt(spent, tau, out=out))[0] <= bound + 0.05 * x.nbytes


@pytest.mark.parametrize("threads", [1, 2])
def test_svt_consuming_x_holds_no_separate_spectrum(slice_threads, threads):
    # 128x128x3 into out: each block of rows' rfft is written over the
    # rows it read, so the call holds one rfft block, then only the
    # temporaries of the slices being shrunk, then one row block of the
    # inverse FFT's. Measured 1.65 tensor sizes on one slice thread and
    # 1.66-2.17 on two, set by the shrinking; the allocating call holds its
    # spectrum beside the shrinking, and then beside its new result
    slice_threads(threads)
    rng = np.random.default_rng(9)
    x = rng.standard_normal((128, 128, 3))
    slices = t_algebra._spectrum(x)
    sv = np.concatenate([np.linalg.svd(f, compute_uv=False) for f in slices])
    tau = np.quantile(sv, 0.05)
    shrinking = sum(2 * f.nbytes + np.getbufsize() * f.itemsize
                    for f in sorted(slices, key=lambda f: -f.nbytes)[:threads])
    bound = max(transforms.SLAB_ENTRIES * 8, shrinking)
    out = np.empty_like(x)
    svt(x.copy(), tau, out=out)  # the lazy imports and caches
    spent = x.copy()
    peak = _traced_peak(lambda: svt(spent, tau, out=out))[0]
    assert peak <= bound + 0.05 * x.nbytes
    if threads == 1:
        held = _traced_peak(lambda: svt(x, tau))[0]
        assert held - peak >= 0.8 * x.nbytes


def _solve_peak(g, omega, cfg, warmup_cfg=None):
    """The traced peak of one srtd_complete call, in sizes of g; a first
    call, with ``warmup_cfg`` if given, takes the lazy imports and caches."""
    m_obs = np.where(omega, g, 0.0)
    srtd_complete(m_obs, omega, warmup_cfg or cfg)
    peak, report = _traced_peak(lambda: srtd_complete(m_obs, omega, cfg))
    return peak / g.nbytes, report


def test_solve_peak_memory_in_tensor_sizes(slice_threads):
    # 48x40x24, r = 3: four tensors between sweeps, and the SVT's
    # spectrum written in its argument's own rows. Measured 5.43 tensors
    # (numpy 2.4, one slice thread), 5.57 when the outer loop held its
    # factors; CHANGES.md records how it came down from the allocating
    # sweep's 12.31. The bound keeps the margin of the
    # 64x64x32 guards, half a tensor
    slice_threads(1)
    rng = np.random.default_rng(0)
    g = tproduct(rng.random((48, 3, 24)), rng.random((3, 40, 24)))
    g *= 255.0 / g.max()
    omega = rng.random(g.shape) < 0.5
    peak, _ = _solve_peak(g, omega, SolverConfig(r=3, seed=0))
    assert peak <= 6.1


def _video_instance():
    # 64x64x32, tubal rank 4, half observed, as the benchmark's video workload
    rng = np.random.default_rng(0)
    g = tproduct(rng.random((64, 4, 32)), rng.random((4, 64, 32)))
    g *= 255.0 / g.max()
    return g, rng.random(g.shape) < 0.5


def test_sweep_writes_x_over_the_previous_x(slice_threads):
    # 64x64x32, r = 4, 40 sweeps (numpy 2.4, one slice thread). Four tensors live between sweeps (x, the next SVT's
    # argument, y and z); the SVT writes its spectrum over its argument's
    # rows and x over the previous x, and no sweep holds e or w whole.
    # Measured 4.50 tensors at lambda 0.01 and 4.32 at 0; 4.63 and 4.61
    # with the outer loop's factors held, 5.38 at either with the SVT's
    # rfft slices in arrays of their own, and 10.33 with a
    # sweep that allocated every iterate. The bound leaves about half a
    # tensor
    slice_threads(1)
    g, omega = _video_instance()
    for lam in (0.01, 0.0):
        cfg = SolverConfig(r=4, lam=lam, stop_mode="absolute", max_inner=40, seed=0)
        peak, report = _solve_peak(g, omega, cfg, replace(cfg, max_inner=2))
        assert report.inner_iters_total == 40
        assert peak <= 5.15


@pytest.mark.parametrize("threads", [1, 2])
def test_whole_video_solve_peak_memory(slice_threads, threads):
    # 64x64x32, r = 4, lambda 0.01, run to its stop as the benchmark's video
    # workload: 144 sweeps in one loop. Four tensors live between
    # sweeps, and a sweep adds slab-sized arrays to them, the SVT the
    # temporaries of the slices it shrinks. Measured 4.50 tensors on one
    # slice thread and on two; 4.63 with the outer loop's factors held,
    # 5.38 on either with the SVT's rfft slices in arrays of their own,
    # and 6.44 with five tensors between sweeps
    slice_threads(threads)
    g, omega = _video_instance()
    cfg = SolverConfig(r=4, lam=0.01, stop_mode="absolute", seed=0)
    peak, report = _solve_peak(g, omega, cfg, replace(cfg, max_inner=2))
    assert report.inner_iters_total == 144
    assert peak <= 5.15


def test_sweep_outside_the_svt_holds_no_e_or_w(slice_threads, monkeypatch):
    # the same solve, traced from each SVT's return to the next SVT call
    # or the end of its admm_solve call: the rest of every sweep, where the
    # E/Z and W/Y passes form e and w a slab at a time beside the four
    # tensors. Measured 4.51 tensors (numpy 2.4, one slice thread), 4.64
    # with the outer loop's factors held; 5.45 with a full-size e alive
    # from the E-update to the next argument.
    # The bound leaves about half a tensor
    slice_threads(1)
    g, omega = _video_instance()
    cfg = SolverConfig(r=4, lam=0.01, stop_mode="absolute", seed=0)
    peaks, svt, admm = [], solver.svt, solver.admm_solve
    in_sweep = False

    def note():
        if in_sweep and tracemalloc.is_tracing():
            peaks.append(tracemalloc.get_traced_memory()[1])

    def traced_svt(*args, **kwargs):
        nonlocal in_sweep
        note()
        result = svt(*args, **kwargs)
        tracemalloc.reset_peak()  # the SVT's own peak is not the sweep's
        in_sweep = True
        return result

    def traced_admm(*args, **kwargs):
        nonlocal in_sweep
        result = admm(*args, **kwargs)
        note()
        in_sweep = False
        return result

    monkeypatch.setattr(solver, "svt", traced_svt)
    monkeypatch.setattr(solver, "admm_solve", traced_admm)
    _, report = _solve_peak(g, omega, cfg, replace(cfg, max_inner=2))
    assert len(peaks) == report.inner_iters_total == 144
    assert max(peaks) / g.nbytes <= 5.15


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


@pytest.mark.parametrize("threads", [1, 2], ids=["1-thread", "2-threads"])
def test_solve_peak_memory_with_few_large_slices(slice_threads, threads):
    # 128x96x3, r = 4: two frequency slices, which two slice threads shrink
    # at once. Before the SVT's argument moved into w's buffer the solve
    # peaked at 10.84 tensors on one thread and 10.9-11.5 on two; after, at
    # 8.84 on one and 8.84-9.68 over 20 runs on two, as the two slices'
    # temporaries overlap more or less; with the slices held as contiguous
    # arrays and shrunk in place, at 8.27 on one and 8.27-8.61 over 190
    # runs on two (median 8.27); with the W-update's rank-r term kept as
    # its factors' spectra, at 7.34 on one and 7.37-7.93 on two (median
    # 7.93), where the outer T-SVD factored both slices at once; with its
    # slices factored one after another, at 7.34 on one and 7.34-7.41 over
    # 60 runs on two (median 7.34), and 7.19 on one and 7.19-7.27 on two
    # with the factors kept as spectra. With four tensors between sweeps, at 6.71 on one
    # and 6.82-7.53 over 40 runs on two (median 6.92; numpy 2.4). With the
    # SVT's slices shrunk in its spent argument's buffer, at 6.19 on one and
    # 6.20 in every one of 12 runs on two; with e and w formed a slab at a
    # time, at 5.97 on one and 6.09 on two; with one loop, which holds no
    # factors, at 5.78 on one and 6.04 on two. The bound leaves about half
    # a tensor on either thread count
    slice_threads(threads)
    rng = np.random.default_rng(0)
    g = tproduct(rng.random((128, 4, 3)), rng.random((4, 96, 3)))
    g *= 255.0 / g.max()
    omega = rng.random(g.shape) < 0.5
    peak, _ = _solve_peak(g, omega, SolverConfig(r=4, seed=0))
    assert peak <= 6.7
