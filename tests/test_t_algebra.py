"""t-product algebra: product vs block-circulant oracle, T-SVD invariants,
tubal rank, nuclear norms, SVT, and the trace inequality used by the solver.
The T-SVD, tubal rank, truncated norm and trace bound are the oracles in
``oracles.py``; their tests keep those references honest."""

import os
import subprocess
import sys
import threading
import time
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import srtd
from srtd import t_algebra, transforms
from srtd.errors import DimensionError, ParameterError
from srtd.t_algebra import svt, tnn, tproduct, trace_pair, tsvd_leading
from srtd.tensor_core import fro_norm, ttranspose

from oracles import (
    bcirc,
    fold,
    identity_tensor,
    tnn_via_tsvd,
    trace_bound_check,
    truncate_factors,
    tsvd,
    ttnn,
    ttrace,
    tubal_rank,
    unfold,
)


def _tproduct_oracle(a, b):
    return fold(bcirc(a) @ unfold(b), (a.shape[0], b.shape[1], a.shape[2]))


def _svt_oracle(x, tau):
    """SVT as one batched complex SVD over the rfft slices, every triplet
    kept with its shrunk singular value."""
    fx = np.moveaxis(np.fft.rfft(x, axis=2), 2, 0)
    fu, sv, fvh = np.linalg.svd(fx, full_matrices=False)
    sv = np.maximum(sv - tau, 0.0)
    return np.fft.irfft(np.moveaxis((fu * sv[:, None, :]) @ fvh, 0, 2), n=x.shape[2], axis=2)


def _w_gradient(u_r, v_r):
    """The solver's W-gradient tproduct(ttranspose(a_k), b_k) for
    a_k = ttranspose(u_r) and b_k = ttranspose(v_r)."""
    return tproduct(u_r, ttranspose(v_r))


_PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)


def _count_calls(monkeypatch, counts, *names):
    """Replace each np.linalg routine in ``names`` by a wrapper that counts
    its calls in ``counts``. Slice threads may call it at once, so the count
    is taken under a lock."""
    lock = threading.Lock()
    for name in names:
        def counted(*args, _fn=getattr(np.linalg, name), _name=name, **kwargs):
            with lock:
                counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)


def test_tproduct_single_slice_is_matmul():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 4, 1))
    b = rng.standard_normal((4, 2, 1))
    assert np.allclose(tproduct(a, b)[:, :, 0], a[:, :, 0] @ b[:, :, 0], atol=1e-12)


def test_tproduct_identity_law():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((3, 4, 2))
    assert np.abs(tproduct(a, identity_tensor(4, 2)) - a).max() <= 1e-12
    assert np.abs(tproduct(identity_tensor(3, 2), a) - a).max() <= 1e-12


def test_tproduct_matches_bcirc_oracle():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((2, 3, 4))
    b = rng.standard_normal((3, 2, 4))
    c = tproduct(a, b)
    oracle = _tproduct_oracle(a, b)
    assert fro_norm(c - oracle) <= 1e-10 * max(fro_norm(oracle), 1.0)


def test_tproduct_transpose_rule():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((3, 4, 5))
    b = rng.standard_normal((4, 2, 5))
    lhs = ttranspose(tproduct(a, b))
    rhs = tproduct(ttranspose(b), ttranspose(a))
    assert np.abs(lhs - rhs).max() <= 1e-12


def test_tproduct_dim_errors():
    with pytest.raises(DimensionError):
        tproduct(np.zeros((2, 3, 4)), np.zeros((2, 3, 4)))
    with pytest.raises(DimensionError):
        tproduct(np.zeros((2, 3, 4)), np.zeros((3, 2, 5)))


@pytest.mark.parametrize("n3", [1, 2, 3, 4, 5, 6])
@_PROPERTY
@given(n1=st.integers(1, 6), n2=st.integers(1, 6), n4=st.integers(1, 6), n5=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1))
def test_tproduct_is_associative(n3, n1, n2, n4, n5, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n1, n2, n3))
    b = rng.standard_normal((n2, n4, n3))
    c = rng.standard_normal((n4, n5, n3))
    lhs = tproduct(tproduct(a, b), c)
    rhs = tproduct(a, tproduct(b, c))
    assert fro_norm(lhs - rhs) <= 1e-12 * fro_norm(a) * fro_norm(b) * fro_norm(c)


def test_tsvd_of_identity():
    e = identity_tensor(3, 2)
    f = tsvd(e)
    assert np.abs(f.s - e).max() <= 1e-12


def test_tsvd_single_slice_matches_matrix_svd():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((4, 3, 1))
    f = tsvd(a)
    sv = np.linalg.svd(a[:, :, 0], compute_uv=False)
    assert np.allclose(np.diag(f.s[:, :, 0])[: len(sv)], sv, atol=1e-12)
    recon = f.u[:, :, 0] @ f.s[:, :, 0] @ f.v[:, :, 0].T
    assert np.abs(recon - a[:, :, 0]).max() <= 1e-12


def test_tsvd_shapes_and_invariants():
    rng = np.random.default_rng(5)
    for n1, n2, n3 in ((4, 3, 5), (3, 4, 4), (2, 6, 3)):
        a = rng.standard_normal((n1, n2, n3))
        f = tsvd(a)
        assert f.u.shape == (n1, n1, n3)
        assert f.s.shape == (n1, n2, n3)
        assert f.v.shape == (n2, n2, n3)
        recon = tproduct(tproduct(f.u, f.s), ttranspose(f.v))
        assert fro_norm(recon - a) <= 1e-9 * fro_norm(a)
        assert fro_norm(tproduct(ttranspose(f.u), f.u) - identity_tensor(n1, n3)) <= 1e-9
        assert fro_norm(tproduct(ttranspose(f.v), f.v) - identity_tensor(n2, n3)) <= 1e-9
        off = f.s.copy()
        k = np.arange(min(n1, n2))
        off[k, k, :] = 0.0
        assert np.abs(off).max() <= 1e-9 * max(fro_norm(f.s), 1.0)


@pytest.mark.parametrize("n3", [1, 2, 3, 4, 5, 6])
@_PROPERTY
@given(n1=st.integers(1, 7), n2=st.integers(1, 7), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_tsvd_reconstructs_its_input(n3, n1, n2, seed, data):
    # a tubal rank below min(n1, n2) leaves zero singular values, whose
    # singular vectors LAPACK picks freely; the product must still match
    rank = data.draw(st.integers(1, min(n1, n2)), label="rank")
    rng = np.random.default_rng(seed)
    a = tproduct(rng.standard_normal((n1, rank, n3)), rng.standard_normal((rank, n2, n3)))
    f = tsvd(a)
    recon = tproduct(tproduct(f.u, f.s), ttranspose(f.v))
    assert fro_norm(recon - a) <= 1e-9 * fro_norm(a)


def test_tubal_rank_zero_tensor():
    assert tubal_rank(np.zeros((3, 4, 2))) == 0


def test_tubal_rank_identity():
    assert tubal_rank(identity_tensor(4, 3)) == 4


def test_tubal_rank_of_thin_product():
    rng = np.random.default_rng(6)
    a = tproduct(rng.standard_normal((8, 3, 4)), rng.standard_normal((3, 8, 4)))
    assert tubal_rank(a, tol=1e-8) == 3


def test_tubal_rank_rejects_negative_tol():
    with pytest.raises(ParameterError):
        tubal_rank(np.zeros((2, 2, 2)), tol=-1.0)


def test_tnn_identity_and_zero():
    assert tnn(identity_tensor(5, 3)) == pytest.approx(5.0, rel=1e-12)
    assert tnn(np.zeros((3, 3, 3))) == 0.0


def test_tnn_absolute_homogeneity():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((3, 4, 5))
    assert tnn(-2.5 * a) == pytest.approx(2.5 * tnn(a), rel=1e-12)


def test_tnn_paths_agree():
    rng = np.random.default_rng(8)
    for n3 in (1, 2, 3, 6):
        a = rng.standard_normal((4, 5, n3))
        fast, slow = tnn(a), tnn_via_tsvd(a)
        assert abs(fast - slow) <= 1e-9 * max(fast, 1.0)


def test_trace_pair_identity():
    e = identity_tensor(3, 2)
    assert trace_pair(e, e) == pytest.approx(3.0, rel=1e-12)


def test_trace_pair_zero():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((3, 4, 2))
    assert trace_pair(a, np.zeros((4, 3, 2))) == 0.0


def test_trace_pair_matches_ttrace_of_tproduct():
    rng = np.random.default_rng(10)
    for _ in range(20):
        n1, n2, n3 = rng.integers(1, 5, size=3)
        a = rng.standard_normal((n1, n2, n3))
        b = rng.standard_normal((n2, n1, n3))
        val = trace_pair(a, b)
        oracle = ttrace(tproduct(a, b))
        assert abs(val - oracle) <= 1e-9 * max(abs(oracle), 1.0)


def test_trace_pair_dim_errors():
    with pytest.raises(DimensionError):
        trace_pair(np.zeros((2, 3, 2)), np.zeros((3, 4, 2)))  # product not square
    with pytest.raises(DimensionError):
        trace_pair(np.zeros((2, 3, 2)), np.zeros((3, 2, 3)))  # n3 mismatch


def test_ttnn_extremes():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((4, 4, 3))
    assert ttnn(a, 0) == pytest.approx(tnn(a), rel=1e-12)
    assert ttnn(a, 4) == 0.0


def test_ttnn_matches_direct_svd_oracle():
    rng = np.random.default_rng(12)
    a = rng.standard_normal((4, 4, 3))
    sv = np.linalg.svd(a.sum(axis=2), compute_uv=False)
    assert ttnn(a, 2) == pytest.approx(tnn(a) - sv[0] - sv[1], rel=1e-10)


def test_ttnn_range_check():
    a = np.zeros((4, 4, 3))
    with pytest.raises(ParameterError):
        ttnn(a, -1)
    with pytest.raises(ParameterError):
        ttnn(a, 5)


def test_svt_zero_threshold_is_identity():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((4, 5, 3))
    assert np.abs(svt(x, 0.0) - x).max() <= 1e-9


def test_svt_full_shrinkage_gives_zero():
    rng = np.random.default_rng(14)
    x = rng.standard_normal((4, 5, 3))
    fx = np.fft.fft(x, axis=2)
    smax = max(
        np.linalg.svd(fx[:, :, i], compute_uv=False)[0] for i in range(3)
    )
    assert np.abs(svt(x, 1.01 * smax)).max() <= 1e-9


def test_svt_matrix_hand_oracle():
    x = np.zeros((2, 2, 1))
    x[:, :, 0] = np.diag([3.0, 1.0])
    out = svt(x, 2.0)
    assert np.abs(out[:, :, 0] - np.diag([1.0, 0.0])).max() <= 1e-12


def test_svt_rejects_negative_threshold():
    with pytest.raises(ParameterError):
        svt(np.zeros((2, 2, 2)), -0.5)


@_PROPERTY
@given(n3=st.integers(1, 8), dims=st.sampled_from([(7, 4), (4, 7), (5, 5)]),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_svt_in_row_blocks_is_bitwise_one_block_and_writes_no_input(n3, dims, seed, data):
    # tall, wide and square slices; at tau = 1e-2 the zero-frequency slice
    # takes the SVD and the others eigh. The result's irfft runs in blocks
    # of 1 to n1 - 1 rows, and must equal the one-block result
    row = dims[1] * n3
    block = (data.draw(st.integers(1, dims[0] - 1), label="rows") * row
             + data.draw(st.integers(0, row - 1), label="spare"))
    x = _mixed_route_input((*dims, n3), seed)
    x_before = x.copy()
    smax = np.linalg.svd(np.moveaxis(np.fft.rfft(x, axis=2), 2, 0), compute_uv=False).max()
    counts = Counter()
    for tau in (0.0, 1e-2, 0.3 * smax, 2.0 * smax):
        whole = svt(x, tau)
        with pytest.MonkeyPatch.context() as mp:
            _count_calls(mp, counts, "eigh", "svd")
            mp.setattr(transforms, "SLAB_ENTRIES", block)
            assert len(transforms.slabs(x.shape)) > 1
            assert np.array_equal(svt(x, tau), whole)
    assert np.array_equal(x, x_before)
    assert counts["eigh"] >= 1 and counts["svd"] >= 1


@pytest.mark.parametrize("n3", [1, 2, 3, 4, 5, 6])
@_PROPERTY
@given(n1=st.integers(1, 7), n2=st.integers(1, 7), seed=st.integers(0, 2**32 - 1),
       frac=st.floats(0.0, 1.0))
def test_svt_matches_batched_oracle(n3, n1, n2, seed, frac):
    x = np.random.default_rng(seed).standard_normal((n1, n2, n3))
    smax = np.linalg.svd(np.moveaxis(np.fft.rfft(x, axis=2), 2, 0), compute_uv=False).max()
    for tau in (0.0, frac * smax, 1.01 * smax):
        assert fro_norm(svt(x, tau) - _svt_oracle(x, tau)) <= 1e-10 * fro_norm(x)


@pytest.mark.parametrize("n3", [1, 2, 3, 4, 5, 6])
@_PROPERTY
@given(n1=st.integers(1, 8), n2=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
       decades=st.floats(0.0, 8.0), level=st.floats(-9.0, 0.1))
def test_svt_graded_spectra_match_the_oracle_on_both_branches(n3, n1, n2, seed, decades, level):
    # column scales spread over up to 8 decades grade the singular values as
    # widely. At tau = 1e-9 sigma_max the slice holding sigma_max fails the
    # Gram guard and takes the SVD; above sigma_max every slice passes it
    rng = np.random.default_rng(seed)
    scales = np.logspace(0.0, -decades, n2)[rng.permutation(n2)]
    x = rng.standard_normal((n1, n2, n3)) * scales[None, :, None]
    smax = np.linalg.svd(np.moveaxis(np.fft.rfft(x, axis=2), 2, 0), compute_uv=False).max()
    taus = (1e-9 * smax, 10.0 ** level * smax, 1.01 * smax)
    oracles = [_svt_oracle(x, tau) for tau in taus]
    counts = Counter()
    with pytest.MonkeyPatch.context() as mp:
        _count_calls(mp, counts, "eigh", "svd")
        for tau, oracle in zip(taus, oracles):
            assert fro_norm(svt(x, tau) - oracle) <= 1e-10 * fro_norm(x)
    assert counts["eigh"] >= 1 and counts["svd"] >= 1


def test_svt_falls_back_to_the_svd_when_eigh_fails(monkeypatch):
    x = np.random.default_rng(19).standard_normal((5, 4, 4))
    expected = _svt_oracle(x, 0.5)
    eigh = np.linalg.eigh
    calls = []
    lock = threading.Lock()

    def fails_once(*args, **kwargs):
        with lock:
            calls.append(1)
            first = len(calls) == 1
        if first:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", fails_once)
    counts = Counter()
    _count_calls(monkeypatch, counts, "svd")
    got = svt(x, 0.5)
    assert len(calls) == 3 and counts["svd"] == 1  # three rfft slices, the one that failed by SVD
    assert fro_norm(got - expected) <= 1e-10 * fro_norm(x)


@pytest.mark.parametrize("shape", [(6, 4, 5), (4, 6, 4), (5, 5, 2)])
def test_svt_factors_each_slice_once(monkeypatch, shape):
    # a large tube-constant part lives in the zero-frequency slice only, so
    # at tau = 1e-2 that slice fails the Gram guard and the others pass it
    rng = np.random.default_rng(20)
    x = rng.standard_normal(shape) + 1e6 * rng.standard_normal(shape[:2])[:, :, None]
    smax = np.linalg.svd(np.moveaxis(np.fft.rfft(x, axis=2), 2, 0), compute_uv=False).max()
    taus = (0.0, 1e-2, 0.3 * smax, 2.0 * smax)
    oracles = [_svt_oracle(x, tau) for tau in taus]
    counts = Counter()
    _count_calls(monkeypatch, counts, "eigh", "svd")
    for tau, oracle in zip(taus, oracles):
        counts.clear()
        assert fro_norm(svt(x, tau) - oracle) <= 1e-10 * fro_norm(x)
        assert counts["eigh"] + counts["svd"] == shape[2] // 2 + 1
        if tau == 1e-2:
            assert counts["svd"] == 1


def test_svt_non_expansive():
    rng = np.random.default_rng(15)
    for _ in range(25):
        x = rng.standard_normal((4, 4, 3))
        y = rng.standard_normal((4, 4, 3))
        assert fro_norm(svt(x, 0.7) - svt(y, 0.7)) <= fro_norm(x - y) + 1e-9


def test_trace_bound_random_never_violated():
    rng = np.random.default_rng(16)
    x = rng.standard_normal((6, 5))
    for _ in range(50):
        r = int(rng.integers(1, 5))
        a = np.linalg.qr(rng.standard_normal((6, r)))[0].T
        b = np.linalg.qr(rng.standard_normal((5, r)))[0].T
        assert trace_bound_check(x, a, b)


def test_trace_bound_equality_at_singular_blocks():
    rng = np.random.default_rng(17)
    x = rng.standard_normal((6, 5))
    u, sv, vh = np.linalg.svd(x)
    r = 3
    a, b = u[:, :r].T, vh[:r]
    assert trace_bound_check(x, a, b)
    lhs = np.trace(a @ x @ b.T)
    assert abs(lhs - sv[:r].sum()) <= 1e-8


def test_trace_bound_empty_blocks():
    assert trace_bound_check(np.ones((3, 4)), np.zeros((0, 3)), np.zeros((0, 4)))


def test_trace_bound_rejects_non_orthonormal():
    x = np.ones((3, 3))
    bad = np.array([[1.0, 1.0, 0.0]])
    ok = np.array([[1.0, 0.0, 0.0]])
    with pytest.raises(ParameterError):
        trace_bound_check(x, bad, ok)
    with pytest.raises(ParameterError):
        trace_bound_check(x, ok, bad)


def test_trace_bound_shape_errors():
    with pytest.raises(DimensionError):
        trace_bound_check(np.ones(3), np.zeros((1, 3)), np.zeros((1, 3)))
    with pytest.raises(DimensionError):
        trace_bound_check(np.ones((3, 4)), np.zeros((1, 3)), np.zeros((2, 4)))


@pytest.mark.parametrize("n3", [1, 2, 3, 4, 5])
@_PROPERTY
@given(n1=st.integers(1, 7), n2=st.integers(1, 7), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_tsvd_leading_gives_the_truncated_tsvd_gradient(n3, n1, n2, seed, data):
    # the W-gradient does not depend on the phase of the singular vectors,
    # so it must agree with the full T-SVD route to rounding
    r = data.draw(st.integers(1, min(n1, n2)), label="r")
    x = np.random.default_rng(seed).standard_normal((n1, n2, n3))
    u_r, v_r = tsvd_leading(x, r)
    assert u_r.shape == (n1, r, n3) and v_r.shape == (n2, r, n3)
    a_k, b_k = truncate_factors(tsvd(x), r)
    reference = tproduct(ttranspose(a_k), b_k)
    assert fro_norm(_w_gradient(u_r, v_r) - reference) <= 1e-9 * fro_norm(reference)


def test_tsvd_leading_rank_check():
    x = np.zeros((3, 4, 2))
    with pytest.raises(ParameterError):
        tsvd_leading(x, 0)
    with pytest.raises(ParameterError):
        tsvd_leading(x, 4)


@pytest.mark.parametrize("routine", [
    lambda x: svt(x, 0.5),
    lambda x: tsvd(x).s,
    lambda x: _w_gradient(*tsvd_leading(x, 2)),
], ids=["svt", "tsvd", "tsvd_leading"])
def test_slice_svd_falls_back_to_gesvd(monkeypatch, routine):
    monkeypatch.setattr(t_algebra, "GRAM_COND", 0.0)  # svt shrinks every slice by SVD
    x = np.random.default_rng(18).standard_normal((5, 4, 4))
    expected = routine(x)
    gesdd = np.linalg.svd
    calls = []
    lock = threading.Lock()

    def fails_once(*args, **kwargs):
        with lock:
            calls.append(1)
            first = len(calls) == 1
        if first:
            raise np.linalg.LinAlgError("SVD did not converge")
        return gesdd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", fails_once)
    got = routine(x)
    assert len(calls) == 3  # three rfft slices, the one that failed retried by gesvd
    assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()


def test_import_defers_scipy_linalg():
    # no scipy module is loaded by importing srtd or solving: scipy.linalg is
    # needed only for the gesvd retry, and any scipy import would add to the
    # start-up of every srtd process. The solve has lam > 0 and a 130-long
    # mode, so both DCT kernels and every ADMM update run.
    code = (
        "import sys, numpy as np, srtd, srtd.cli\n"
        "m = np.random.default_rng(0).random((130, 3, 2))\n"
        "omega = np.random.default_rng(1).random(m.shape) < 0.5\n"
        "srtd.srtd_complete(m * omega, omega, srtd.SolverConfig(r=1, lam=0.1, max_outer=2))\n"
        "print(sorted(k for k in sys.modules if k == 'scipy' or k.startswith('scipy.')))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(srtd.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_import_starts_no_thread_and_serial_slices_start_none():
    # importing srtd loads no concurrent.futures (about 10 ms of every
    # start-up) and starts no thread; with no BLAS thread count set, svt and
    # tsvd_leading keep to the calling thread
    code = (
        "import sys, threading, numpy as np, srtd\n"
        "from srtd.t_algebra import svt, tsvd_leading\n"
        "print('concurrent.futures' in sys.modules, threading.active_count())\n"
        "x = np.random.default_rng(0).standard_normal((6, 5, 8))\n"
        "svt(x, 0.5), tsvd_leading(x, 2)\n"
        "print('concurrent.futures' in sys.modules, threading.active_count())\n"
    )
    env = {k: v for k, v in os.environ.items() if k not in t_algebra._BLAS_THREAD_VARS}
    env["PYTHONPATH"] = str(Path(srtd.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=60)
    assert out.stdout.split("\n")[:2] == ["False 1", "False 1"]


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs two usable CPUs for a slice thread")
def test_pooled_slices_load_no_thread_pool():
    # one BLAS thread on two CPUs leaves a CPU for a slice thread; the
    # helper threads are started without concurrent.futures, which would
    # load logging as well, and none is left running once the calls return
    code = (
        "import sys, threading, numpy as np, srtd\n"
        "from srtd import t_algebra\n"
        "threads, take = set(), t_algebra._shrink\n"
        "def spy(*args):\n"
        "    threads.add(threading.current_thread().name)\n"
        "    return take(*args)\n"
        "t_algebra._shrink = spy\n"
        "x = np.random.default_rng(0).standard_normal((6, 5, 8))\n"
        "t_algebra.svt(x, 0.5)\n"
        "omega = np.random.default_rng(1).random(x.shape) < 0.5\n"
        "srtd.srtd_complete(x * omega, omega, srtd.SolverConfig(r=1, max_outer=2))\n"
        "print('srtd-slice' in threads, threading.active_count(),"
        " sorted(k for k in ('concurrent.futures', 'logging') if k in sys.modules))\n"
    )
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(srtd.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=60)
    assert out.stdout.strip() == "True 1 []"


def _mixed_route_input(shape, seed):
    # a large tube-constant part lives in the zero-frequency slice only, so
    # at tau = 1e-2 that slice takes the SVD and the others take eigh
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1e6 * rng.standard_normal(shape[:2])[:, :, None]


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("n3", [1, 2, 5, 8])
@pytest.mark.parametrize("n1,n2", [(7, 4), (4, 7), (5, 5)], ids=["tall", "wide", "square"])
def test_pooled_slices_are_bitwise_serial(slice_threads, workers, n1, n2, n3):
    x = _mixed_route_input((n1, n2, n3), 21)
    smax = np.linalg.svd(np.moveaxis(np.fft.rfft(x, axis=2), 2, 0), compute_uv=False).max()
    taus = (0.0, 1e-2, 0.3 * smax, 2.0 * smax)

    def run():
        return [svt(x, tau) for tau in taus] + list(tsvd_leading(x, 2))

    slice_threads(1)
    serial = run()
    slice_threads(workers + 1)
    for _ in range(3):
        for got, want in zip(run(), serial):
            assert np.array_equal(got, want)


def test_each_slice_runs_slices_at_once(slice_threads):
    # each of the first two slices waits for the other one to start, which
    # only a second thread can do
    slice_threads(2)
    both = threading.Barrier(2, timeout=30)
    done = []

    def fn(i):
        if i < 2:
            both.wait()
        done.append(i)

    t_algebra._each_slice(fn, 5)
    assert sorted(done) == [0, 1, 2, 3, 4]


def test_worker_exception_is_raised_and_the_next_call_works(slice_threads, monkeypatch):
    # the calling thread holds its first slice until a helper thread has
    # failed on another one, so the exception comes from a helper thread
    slice_threads(2)
    monkeypatch.setattr(t_algebra, "GRAM_COND", 0.0)  # every slice through _slice_svd
    x = np.random.default_rng(22).standard_normal((5, 4, 6))
    expected = svt(x, 0.5)
    slice_svd = t_algebra._slice_svd
    failed = threading.Event()

    def fails_on_a_helper_thread(m, *args, **kwargs):
        if threading.current_thread() is threading.main_thread():
            failed.wait(timeout=30)
        else:
            failed.set()
            raise np.linalg.LinAlgError("slice failed")
        return slice_svd(m, *args, **kwargs)

    monkeypatch.setattr(t_algebra, "_slice_svd", fails_on_a_helper_thread)
    with pytest.raises(np.linalg.LinAlgError, match="slice failed"):
        svt(x, 0.5)
    assert failed.is_set()
    monkeypatch.setattr(t_algebra, "_slice_svd", slice_svd)
    assert np.array_equal(svt(x, 0.5), expected)


def test_no_slice_thread_outlives_its_call(slice_threads):
    # a call joins its helpers before it returns, also when fn raises
    slice_threads(2)
    both = threading.Barrier(2, timeout=30)

    def helpers_alive():
        return [t for t in threading.enumerate() if t.name == "srtd-slice"]

    ran = []

    def fn(i):
        if i < 2:
            both.wait()  # the first two slices run at once, one on the helper
        ran.append(threading.current_thread().name)

    t_algebra._each_slice(fn, 4)
    assert "srtd-slice" in ran and not helpers_alive()

    def fails(i):
        if i < 2:
            both.wait()
        if threading.current_thread().name == "srtd-slice":
            raise ValueError("slice failed")

    with pytest.raises(ValueError, match="slice failed"):
        t_algebra._each_slice(fails, 4)
    assert not helpers_alive()


def test_concurrent_solves_match_their_serial_runs(slice_threads):
    # two solves at once, as `srtd sweep --jobs 2` runs them, each with a
    # slice helper of its own: each matches its serial run
    instances = []
    for seed in (23, 24):
        rng = np.random.default_rng(seed)
        g = tproduct(rng.standard_normal((16, 2, 9)), rng.standard_normal((2, 14, 9)))
        omega = srtd.random_mask(g.shape, 0.6, seed)
        instances.append((g * omega, omega, srtd.SolverConfig(r=2, seed=seed, max_outer=3)))
    slice_threads(1)
    serial = [srtd.srtd_complete(*inst).recovered for inst in instances]
    slice_threads(2)
    results = [None, None]

    def solve(k):
        results[k] = srtd.srtd_complete(*instances[k]).recovered

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=solve, args=(k,)) for k in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for got, want in zip(results, serial):
        assert got is not None and np.array_equal(got, want)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_svt_completes_in_a_forked_child(slice_threads):
    # a child forked after a call with a helper starts helpers of its own
    slice_threads(2)
    x = np.random.default_rng(25).standard_normal((6, 5, 8))
    expected = svt(x, 0.5)  # starts and joins a helper in the parent
    assert not any(t.name == "srtd-slice" for t in threading.enumerate())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # fork of a threaded process
        pid = os.fork()
    if pid == 0:
        status = 1
        try:
            status = 0 if np.array_equal(svt(x, 0.5), expected) else 3
        finally:
            os._exit(status)
    deadline = time.monotonic() + 60
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done or time.monotonic() > deadline:
            break
        time.sleep(0.01)
    if not done:
        os.kill(pid, 9)
        os.waitpid(pid, 0)
    assert done and os.waitstatus_to_exitcode(status) == 0


def test_slice_threads_are_the_cpus_blas_leaves_free(monkeypatch):
    for name in t_algebra._BLAS_THREAD_VARS:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert t_algebra._slice_threads() == 1  # BLAS is taken to use every CPU
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    assert t_algebra._slice_threads() == 2
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    assert t_algebra._slice_threads() == 1
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "8")
    assert t_algebra._slice_threads() == 1
    # the first variable holding a positive integer counts
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "0")
    monkeypatch.setenv("OMP_NUM_THREADS", "auto")
    monkeypatch.setenv("MKL_NUM_THREADS", "1")
    assert t_algebra._slice_threads() == 2
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert t_algebra._slice_threads() == 4
