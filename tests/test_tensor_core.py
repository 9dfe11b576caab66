"""Tensor primitives: the Frobenius norm, and the layout of the
transpose, fold/unfold/bcirc, identity, inner product and trace oracles."""

import numpy as np
import pytest

from srtd.errors import DimensionError, ParameterError
from srtd.tensor_core import fro_norm

from oracles import bcirc, fold, identity_tensor, inner_product, ttrace, ttranspose, unfold


def test_unfold_degenerate_shape():
    a = np.full((1, 1, 1), 5.0)
    m = unfold(a)
    assert m.shape == (1, 1)
    assert m[0, 0] == 5.0


def test_unfold_stacks_frontal_slices():
    a = np.empty((2, 2, 2))
    a[:, :, 0] = [[1, 2], [3, 4]]
    a[:, :, 1] = [[5, 6], [7, 8]]
    expect = np.array([[1, 2], [3, 4], [5, 6], [7, 8]], dtype=float)
    assert np.array_equal(unfold(a), expect)


def test_fold_inverts_unfold_exactly():
    rng = np.random.default_rng(0)
    for _ in range(20):
        dims = tuple(rng.integers(1, 6, size=3))
        a = rng.standard_normal(dims)
        assert np.array_equal(fold(unfold(a), dims), a)


def test_unfold_inverts_fold_exactly():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((12, 5))
    assert np.array_equal(unfold(fold(m, (4, 5, 3))), m)


def test_fold_zero_matrix():
    assert np.array_equal(fold(np.zeros((6, 2)), (2, 2, 3)), np.zeros((2, 2, 3)))


def test_fold_shape_mismatch():
    with pytest.raises(DimensionError):
        fold(np.zeros((5, 2)), (2, 2, 3))
    with pytest.raises(DimensionError):
        fold(np.zeros((6, 3)), (2, 2, 3))


def test_unfold_rejects_non_third_order():
    with pytest.raises(DimensionError):
        unfold(np.zeros((3, 3)))


def test_bcirc_single_slice_is_the_slice():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((3, 4, 1))
    assert np.array_equal(bcirc(a), a[:, :, 0])


def test_bcirc_tube_circulant():
    a = np.array([1.0, 2.0, 3.0]).reshape(1, 1, 3)
    expect = np.array([[1, 3, 2], [2, 1, 3], [3, 2, 1]], dtype=float)
    assert np.array_equal(bcirc(a), expect)


def test_bcirc_first_block_column_is_unfold():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((2, 2, 3))
    c = bcirc(a)
    assert c.shape == (6, 6)
    assert np.array_equal(c[:, :2], unfold(a))
    # block column j is the frontal slices shifted down circularly by j
    for j in range(3):
        for i in range(3):
            block = c[i * 2:(i + 1) * 2, j * 2:(j + 1) * 2]
            assert np.array_equal(block, a[:, :, (i - j) % 3])


def test_ttranspose_matches_matrix_transpose_for_single_slice():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((3, 5, 1))
    assert np.array_equal(ttranspose(a)[:, :, 0], a[:, :, 0].T)


def test_ttranspose_slice_rule():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((3, 4, 5))
    at = ttranspose(a)
    assert at.shape == (4, 3, 5)
    assert np.array_equal(at[:, :, 0], a[:, :, 0].T)
    # slice i (1-based, i >= 2) of the transpose is slice n3-i+2 transposed
    for i in range(1, 5):
        assert np.array_equal(at[:, :, i], a[:, :, 5 - i].T)


def test_ttranspose_involution():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((3, 4, 5))
    assert np.array_equal(ttranspose(ttranspose(a)), a)


def test_identity_is_its_own_ttranspose():
    e = identity_tensor(4, 3)
    assert np.array_equal(ttranspose(e), e)


def test_identity_tensor_layout():
    assert np.array_equal(identity_tensor(1, 1), np.ones((1, 1, 1)))
    e = identity_tensor(2, 3)
    assert np.array_equal(e[:, :, 0], np.eye(2))
    assert np.array_equal(e[:, :, 1:], np.zeros((2, 2, 2)))


def test_identity_tensor_rejects_bad_sizes():
    with pytest.raises(ParameterError):
        identity_tensor(0, 3)
    with pytest.raises(ParameterError):
        identity_tensor(3, 0)


def test_norms_zero_tensor():
    z = np.zeros((2, 3, 4))
    assert fro_norm(z) == 0.0
    assert np.abs(z).sum() == 0.0


def test_norms_345_triangle_tube():
    a = np.array([3.0, 4.0]).reshape(1, 1, 2)
    assert fro_norm(a) == pytest.approx(5.0, rel=1e-12)
    assert np.abs(a).sum() == pytest.approx(7.0, rel=1e-12)


def test_inner_product_matches_summation_oracle():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((2, 3, 4))
    b = rng.standard_normal((2, 3, 4))
    oracle = sum(
        a[i, j, k] * b[i, j, k]
        for i in range(2) for j in range(3) for k in range(4)
    )
    assert inner_product(a, b) == pytest.approx(oracle, rel=1e-12)
    assert inner_product(a, a) == pytest.approx(fro_norm(a) ** 2, rel=1e-12)


def test_inner_product_dim_mismatch():
    with pytest.raises(DimensionError):
        inner_product(np.zeros((2, 3, 4)), np.zeros((2, 3, 5)))


def test_norm_ordering():
    rng = np.random.default_rng(8)
    for _ in range(20):
        a = rng.standard_normal(tuple(rng.integers(1, 5, size=3)))
        assert np.abs(a).sum() >= fro_norm(a) >= 0.0


def test_ttrace_sums_slice_traces():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((4, 4, 3))
    oracle = sum(np.trace(a[:, :, k]) for k in range(3))
    assert ttrace(a) == pytest.approx(oracle, rel=1e-12)


def test_ttrace_requires_square_slices():
    with pytest.raises(DimensionError):
        ttrace(np.zeros((3, 4, 2)))
