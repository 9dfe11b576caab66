"""The solver's mode-3 rfft pair (``t_algebra._spectrum`` and
``_from_spectrum``) and the orthonormal 3-D DCT pair, checked against
explicit transform-matrix oracles built independently of any FFT library,
and the rfft pair also tube by tube against numpy's own rfft and irfft."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from srtd import transforms
from srtd.errors import DimensionError, ParameterError
from srtd.t_algebra import _from_spectrum, _spectrum
from srtd.tensor_core import fro_norm
from srtd.transforms import MATRIX_MAX_N, dct3, idct3, slabs

from oracles import inner_product

_PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)

# Mode lengths on both sides of the matrix/FFT crossover, of both parities.
_MODE_LENGTHS = (1, 2, 3, 63, 64, 65, 66, 127, 128, 129, 130, 256)


def _dft_matrix(n):
    k = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(k, k) / n)


def _dct_matrix(n):
    # orthonormal DCT-II: C[k, j] = s_k * cos(pi * (2j+1) * k / (2n))
    k = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    c = np.cos(np.pi * (2 * j + 1) * k / (2 * n))
    c[0, :] *= np.sqrt(1.0 / n)
    c[1:, :] *= np.sqrt(2.0 / n)
    return c


def _is_real_slice(f, n3):
    return f == 0 or 2 * f == n3


def test_dft_single_slice_is_identity():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 4, 1))
    s = _spectrum(a)
    assert len(s) == 1 and s[0].dtype == np.float64
    assert np.array_equal(s[0], a[:, :, 0])


def test_dft_constant_tube():
    a = np.array([1.0, 1.0]).reshape(1, 1, 2)
    s = _spectrum(a)
    assert np.allclose([f.item() for f in s], [2.0, 0.0], atol=1e-14)


def test_dft_impulse_tube():
    a = np.zeros((1, 1, 4))
    a[0, 0, 0] = 1.0
    assert np.allclose([f.item() for f in _spectrum(a)], np.ones(3), atol=1e-14)


def test_dft_matches_matrix_oracle():
    rng = np.random.default_rng(1)
    for n3 in (2, 3, 5):
        a = rng.standard_normal((3, 2, n3))
        oracle = a @ _dft_matrix(n3).T  # contract mode 3 against the DFT matrix
        # the first n3 // 2 + 1 frequencies, one (n1, n2) slice each
        s = _spectrum(a)
        assert len(s) == n3 // 2 + 1
        for f, fs in enumerate(s):
            assert np.allclose(fs, oracle[:, :, f], atol=1e-12)


def test_dft_conjugate_symmetry():
    # a real tensor's spectrum is conjugate-symmetric, so the zero-frequency
    # slice, and the Nyquist slice when n3 is even, are real; the pair holds
    # exactly these as real arrays, and every slice as a contiguous one
    rng = np.random.default_rng(2)
    for n3 in (2, 3, 4, 7):
        a = rng.standard_normal((4, 3, n3))
        whole = np.fft.rfft(a, axis=2)
        for f, fs in enumerate(_spectrum(a)):
            if _is_real_slice(f, n3):
                assert np.abs(whole[:, :, f].imag).max() <= 1e-12
            assert np.isrealobj(fs) == _is_real_slice(f, n3)
            assert fs.shape == (4, 3) and fs.flags.c_contiguous


def test_idft_roundtrip():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((3, 3, 5))
    assert np.abs(_from_spectrum(_spectrum(a), 5) - a).max() <= 1e-12


def test_idft_known_tube():
    s = [np.array([[2.0]]), np.array([[0.0]])]
    assert np.allclose(_from_spectrum(s, 2), np.ones((1, 1, 2)), atol=1e-14)


def test_idft_zero_spectrum():
    zero = [np.zeros((2, 2)), np.zeros((2, 2), dtype=complex)]  # the 2 slices of n3 = 3
    assert np.array_equal(_from_spectrum(zero, 3), np.zeros((2, 2, 3)))


@pytest.mark.parametrize("n3", [1, 2, 3, 4, 5, 32])
def test_rfft_pair_is_bitwise_numpys_rfft_tube_by_tube(monkeypatch, n3):
    # both directions run in several row blocks, and each tube must come out
    # as numpy's rfft and irfft give it for that tube alone; the real
    # slices hold the real parts, where the rfft's imaginary parts are 0
    rng = np.random.default_rng(n3)
    a = rng.standard_normal((7, 5, n3))
    spectrum = [fs + (1j * rng.standard_normal(fs.shape) if np.iscomplexobj(fs) else 0.0)
                for fs in _spectrum(rng.standard_normal(a.shape))]
    monkeypatch.setattr(transforms, "SLAB_ENTRIES", 2 * 5 * n3 + 1)
    s = _spectrum(a)
    back = _from_spectrum(spectrum, n3)
    assert len(s) == n3 // 2 + 1
    for f, fs in enumerate(s):
        assert np.isrealobj(fs) == _is_real_slice(f, n3)
    for i in range(7):
        for j in range(5):
            tube = np.fft.rfft(a[i, j])
            assert np.array_equal(np.array([fs[i, j] for fs in s]), tube)
            assert not tube[[f for f in range(len(s)) if _is_real_slice(f, n3)]].imag.any()
            assert np.array_equal(back[i, j], np.fft.irfft(
                np.array([fs[i, j] for fs in spectrum], dtype=complex), n=n3))


@_PROPERTY
@given(n1=st.integers(2, 9), n2=st.integers(1, 9), n3=st.integers(1, 8),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_idft_in_row_blocks_is_bitwise_the_whole_array_irfft(n1, n2, n3, seed, data):
    # an arbitrary spectrum, real on the slices svt holds as real; the irfft
    # runs in blocks of 1 to n1 - 1 rows of the result, and each tube must
    # come out as in the whole-array irfft
    rng = np.random.default_rng(seed)
    spectrum = [rng.standard_normal((n1, n2)) if _is_real_slice(f, n3)
                else rng.standard_normal((n1, n2)) + 1j * rng.standard_normal((n1, n2))
                for f in range(n3 // 2 + 1)]
    row = n2 * n3
    block = (data.draw(st.integers(1, n1 - 1), label="rows") * row
             + data.draw(st.integers(0, row - 1), label="spare"))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transforms, "SLAB_ENTRIES", block)
        assert len(slabs((n1, n2, n3))) > 1
        blocked = _from_spectrum(spectrum, n3)
    assert np.array_equal(blocked, np.fft.irfft(np.stack(spectrum, axis=2), n=n3, axis=2))


@pytest.mark.parametrize("block", [1, 5, 12, 13, 1 << 15])
@pytest.mark.parametrize("shape", [(7, 4, 3), (1, 5, 2), (4, 0, 3), (0, 3, 3)])
def test_slabs_cut_an_axis_into_whole_rows_of_about_slab_entries(monkeypatch, shape, block):
    # the slabs cover the cut axis once, in order; each holds as many whole
    # rows as fit in ``block`` entries, and at least one
    monkeypatch.setattr(transforms, "SLAB_ENTRIES", block)
    for cut in range(3):
        row = int(np.prod(shape)) // shape[cut] if shape[cut] else 0
        got = slabs(shape, cut)
        assert [i for s in got for i in range(shape[cut])[s]] == list(range(shape[cut]))
        for s in got[:-1]:
            rows = s.stop - s.start
            assert rows == 1 or rows * row <= block < (rows + 1) * row


@pytest.mark.parametrize("block", [1, 5, 12, 13, 1 << 15])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 8])
def test_slabs_with_a_least_count_leave_no_shorter_slab(monkeypatch, n, block):
    # the slabs still cover the axis once, in order, and none is shorter
    # than ``least`` unless the axis is: a short last slab joins the one
    # before it, which then holds fewer than ``least`` indices more
    monkeypatch.setattr(transforms, "SLAB_ENTRIES", block)
    for least in (1, 2, 3):
        got = slabs((n, 4), 0, least)
        assert [i for s in got for i in range(n)[s]] == list(range(n))
        assert all(len(range(n)[s]) >= min(least, n) for s in got)
        assert all(len(range(n)[s]) < max(least, block // 4) + least for s in got)
    assert slabs((n, 4), 0, 1) == slabs((n, 4))


def test_dct_constant_tensor_has_single_dc_coefficient():
    c = 2.5
    out = dct3(np.full((4, 4, 4), c))
    assert out[0, 0, 0] == pytest.approx(c * 8.0, rel=1e-12)
    rest = out.copy()
    rest[0, 0, 0] = 0.0
    assert np.abs(rest).max() <= 1e-12


def test_dct_scalar_identity():
    assert dct3(np.full((1, 1, 1), 3.7))[0, 0, 0] == pytest.approx(3.7, rel=1e-14)


def test_idct_of_dc_coefficient_is_constant():
    e = np.zeros((4, 4, 4))
    e[0, 0, 0] = 8.0
    assert np.abs(idct3(e) - 1.0).max() <= 1e-12


def test_dct_matches_separable_matrix_oracle():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((3, 4, 5))
    c1, c2, c3 = _dct_matrix(3), _dct_matrix(4), _dct_matrix(5)
    for c in (c1, c2, c3):  # oracle matrices really are orthogonal
        assert np.abs(c @ c.T - np.eye(c.shape[0])).max() <= 1e-12
    oracle = np.einsum("ip,jq,kr,pqr->ijk", c1, c2, c3, a)
    assert np.abs(dct3(a) - oracle).max() <= 1e-12


def test_dct_parseval():
    rng = np.random.default_rng(5)
    for _ in range(100):
        a = rng.standard_normal(tuple(rng.integers(1, 7, size=3)))
        n = fro_norm(a)
        assert abs(fro_norm(dct3(a)) - n) <= 1e-10 * max(n, 1.0)


def test_dct_preserves_inner_products():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((4, 5, 3))
    b = rng.standard_normal((4, 5, 3))
    assert inner_product(dct3(a), dct3(b)) == pytest.approx(inner_product(a, b), rel=1e-10)


def test_dct_linearity():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((3, 4, 2))
    b = rng.standard_normal((3, 4, 2))
    lhs = dct3(1.7 * a - 0.4 * b)
    rhs = 1.7 * dct3(a) - 0.4 * dct3(b)
    assert np.abs(lhs - rhs).max() <= 1e-10


def test_dct_roundtrips_both_ways():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((4, 5, 6))
    assert np.abs(idct3(dct3(a)) - a).max() <= 1e-10
    e = rng.standard_normal((4, 5, 6))
    assert np.abs(dct3(idct3(e)) - e).max() <= 1e-10


def test_dct_rejects_non_third_order():
    with pytest.raises(DimensionError):
        dct3(np.zeros((4, 4)))


def test_mode_lengths_straddle_the_kernel_crossover():
    # the FFT route is only reached by modes longer than MATRIX_MAX_N, so the
    # property tests below must draw odd and even lengths on both sides
    assert {MATRIX_MAX_N, MATRIX_MAX_N + 1} <= set(_MODE_LENGTHS)
    for side in (lambda n: n <= MATRIX_MAX_N, lambda n: n > MATRIX_MAX_N):
        assert {n % 2 for n in _MODE_LENGTHS if side(n)} == {0, 1}


def _separable_oracle(a, inverse=False):
    # the oracle matrix applied along each mode in turn by plain products
    c1, c2, c3 = (_dct_matrix(n).T if inverse else _dct_matrix(n) for n in a.shape)
    return np.matmul(c2, np.tensordot(c1, a, axes=(1, 0))) @ c3.T


@_PROPERTY
@given(n=st.sampled_from(_MODE_LENGTHS), axis=st.integers(0, 2),
       rest=st.tuples(st.integers(1, 4), st.integers(1, 4)), seed=st.integers(0, 2**32 - 1))
def test_dct_pair_matches_matrix_oracle_on_any_mode_length(n, axis, rest, seed):
    # one mode of any tested length, in any position, the other two short
    shape = list(rest)
    shape.insert(axis, n)
    a = np.random.default_rng(seed).standard_normal(shape)
    scale = fro_norm(a)
    assert fro_norm(dct3(a) - _separable_oracle(a)) <= 1e-12 * scale
    assert fro_norm(idct3(a) - _separable_oracle(a, inverse=True)) <= 1e-12 * scale
    assert fro_norm(idct3(dct3(a)) - a) <= 1e-12 * scale
    assert fro_norm(dct3(idct3(a)) - a) <= 1e-12 * scale


@_PROPERTY
@given(shape=st.tuples(*[st.sampled_from(_MODE_LENGTHS)] * 3).filter(
    lambda s: np.prod(s) <= 300_000), seed=st.integers(0, 2**32 - 1))
@example(shape=(256, 256, 3), seed=0)
@example(shape=(129, 130, 3), seed=1)
@example(shape=(3, 130, 256), seed=2)
@example(shape=(65, 66, 63), seed=3)
def test_dct_pair_matches_matrix_oracle_on_mixed_shapes(shape, seed):
    # several long modes at once, so the kernels run after one another on
    # the same buffer
    a = np.random.default_rng(seed).standard_normal(shape)
    scale = fro_norm(a)
    assert fro_norm(dct3(a) - _separable_oracle(a)) <= 1e-12 * scale
    assert fro_norm(idct3(dct3(a)) - a) <= 1e-12 * scale
    assert fro_norm(dct3(idct3(a)) - a) <= 1e-12 * scale


def test_dct_does_not_modify_its_input_and_accepts_views():
    rng = np.random.default_rng(9)
    base = rng.standard_normal((140, 9, 12))
    view = base[::-1, 1:8, ::3]  # negative and non-unit strides
    kept = base.copy()
    for f in (dct3, idct3):
        assert fro_norm(f(view) - f(np.ascontiguousarray(view))) <= 1e-12 * fro_norm(view)
    assert np.array_equal(base, kept)


def test_dct_of_empty_tensor_is_empty():
    assert dct3(np.zeros((0, 3, 200))).shape == (0, 3, 200)
    assert idct3(np.zeros((4, 0, 2))).shape == (4, 0, 2)


@pytest.mark.parametrize("shape", [(7, 5, 3), (130, 4, 2), (3, 140, 5), (4, 3, 129)])
def test_dct_into_out_is_bitwise_the_allocating_result(shape):
    # both kernels, with the long mode in each position
    a = np.random.default_rng(sum(shape)).standard_normal(shape)
    for f in (dct3, idct3):
        out = np.full(shape, np.nan)
        assert f(a, out=out) is out
        assert np.array_equal(out, f(a))
        # in place, where the first mode also runs slab by slab
        b = a.copy()
        assert f(b, out=b) is b
        assert np.array_equal(b, f(a))


def test_dct_rejects_an_out_it_cannot_fill():
    base = np.zeros(30)
    a = base[:24].reshape(4, 3, 2)
    # partial overlaps (the second one contiguous), a wrong shape or dtype,
    # and a strided out, which the kernels' reshapes would copy instead of
    # write
    shifted = base[6:].reshape(4, 3, 2)
    strided = np.empty((3, 4, 2)).transpose(1, 0, 2)
    for f in (dct3, idct3):
        for out in (a[:, :, ::-1], shifted, np.empty((4, 3, 3)), np.empty((4, 3, 2), np.float32),
                    strided):
            with pytest.raises(ParameterError):
                f(a, out=out)
