"""Observation masks and the two PSNR conventions."""

import math

import numpy as np
import pytest

from srtd.errors import DimensionError, FormatError, ParameterError
from srtd.evalkit import mask_from_image, psnr, random_mask
from srtd.pnm import save_image


def test_random_mask_exact_count():
    omega = random_mask((10, 10, 3), 0.5, 0)
    assert omega.shape == (10, 10, 3)
    assert omega.dtype == np.bool_
    assert omega.sum() == 150


def test_random_mask_full_rate():
    assert random_mask((4, 5, 2), 1.0, 7).all()


def test_random_mask_deterministic_per_seed():
    a = random_mask((6, 6, 3), 0.4, 42)
    b = random_mask((6, 6, 3), 0.4, 42)
    assert np.array_equal(a, b)


def test_random_mask_varies_across_seeds():
    base = random_mask((6, 6, 3), 0.4, 0)
    differing = sum(
        not np.array_equal(base, random_mask((6, 6, 3), 0.4, seed))
        for seed in range(1, 11)
    )
    assert differing >= 1


def test_random_mask_rejects_bad_rate():
    for sr in (0.0, -0.2, 1.5):
        with pytest.raises(ParameterError):
            random_mask((4, 4, 2), sr, 0)


def test_random_mask_rejects_bad_seed():
    # numpy's generator raises ValueError on a negative seed and takes a bool
    for seed in (-1, True, 1.0):
        with pytest.raises(ParameterError):
            random_mask((4, 4, 2), 0.5, seed)


def test_random_mask_rejects_bad_dims():
    with pytest.raises(DimensionError):
        random_mask((4, 4), 0.5, 0)
    with pytest.raises(DimensionError):
        random_mask((4, 0, 2), 0.5, 0)


def test_mask_from_image_all_observed(tmp_path):
    path = tmp_path / "clear.pgm"
    save_image(np.zeros((4, 5, 1)), path)
    omega = mask_from_image(path, depth=3)
    assert omega.shape == (4, 5, 3)
    assert omega.all()


def test_mask_from_image_all_missing(tmp_path):
    path = tmp_path / "solid.pgm"
    save_image(np.full((4, 5, 1), 255.0), path)
    assert not mask_from_image(path).any()


def test_mask_from_image_checkerboard(tmp_path):
    board = np.zeros((2, 2, 1))
    board[0, 1, 0] = board[1, 0, 0] = 255.0
    path = tmp_path / "board.pgm"
    save_image(board, path)
    omega = mask_from_image(path, depth=2)
    expect = np.array([[True, False], [False, True]])
    for k in range(2):
        assert np.array_equal(omega[:, :, k], expect)


def test_mask_from_image_rejects_color(tmp_path):
    path = tmp_path / "color.ppm"
    save_image(np.zeros((2, 2, 3)), path)
    with pytest.raises(FormatError):
        mask_from_image(path)


def test_mask_from_image_rejects_bad_depth(tmp_path):
    path = tmp_path / "clear.pgm"
    save_image(np.zeros((2, 2, 1)), path)
    with pytest.raises(ParameterError):
        mask_from_image(path, depth=0)


def test_psnr_identical_inputs_is_infinite():
    m = np.full((4, 4, 2), 100.0)
    assert psnr(m, m.copy()) == math.inf
    omega = random_mask(m.shape, 0.5, 0)
    assert psnr(m, m.copy(), omega, mode="paper") == math.inf


def test_psnr_standard_full_scale_error_is_zero_db():
    m = np.zeros((4, 4, 2))
    assert psnr(m + 255.0, m) == pytest.approx(0.0, abs=1e-12)


def test_psnr_standard_formula():
    rng = np.random.default_rng(2)
    m = rng.random((5, 4, 3)) * 255
    x = m + rng.standard_normal(m.shape)
    mse = np.mean((x - m) ** 2)
    assert psnr(x, m) == pytest.approx(10 * math.log10(255.0 ** 2 / mse), rel=1e-12)


def test_psnr_standard_decreasing_in_error():
    m = np.zeros((4, 4, 2))
    values = [psnr(m + s, m) for s in (1.0, 2.0, 5.0, 50.0)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_psnr_paper_single_entry_formula():
    # one missing entry off by d: MSE = d / T, unsquared by convention
    m = np.zeros((4, 5, 3))
    omega = np.ones(m.shape, dtype=bool)
    omega[1, 2, 0] = False
    d = 3.7
    x = m.copy()
    x[1, 2, 0] = d
    expect = 10 * math.log10(255.0 ** 2 * m.size / d)
    assert psnr(x, m, omega, mode="paper") == pytest.approx(expect, rel=1e-12)


def test_psnr_paper_ignores_observed_error():
    m = np.zeros((4, 4, 2))
    omega = np.ones(m.shape, dtype=bool)
    x = m.copy()
    x[0, 0, 0] = 50.0  # observed entry, invisible to paper mode
    assert psnr(x, m, omega, mode="paper") == math.inf


def test_psnr_paper_requires_mask():
    m = np.zeros((3, 3, 1))
    with pytest.raises(ParameterError):
        psnr(m + 1, m, mode="paper")


def test_psnr_rejects_unknown_mode():
    m = np.zeros((3, 3, 1))
    with pytest.raises(ParameterError):
        psnr(m, m, mode="rmse")


def test_psnr_dim_mismatch():
    with pytest.raises(DimensionError):
        psnr(np.zeros((3, 3, 1)), np.zeros((3, 3, 2)))
    with pytest.raises(DimensionError):
        psnr(np.zeros((3, 3, 2)), np.zeros((3, 3, 2)), np.ones((3, 3, 1), dtype=bool),
             mode="paper")


@pytest.mark.parametrize("dtype", [np.int64, np.uint8, np.float64])
def test_psnr_paper_rejects_a_non_boolean_mask(dtype):
    # an integer 0/1 mask would index entries 0 and 1 instead of selecting
    # the missing set, and read a wrong PSNR without a word
    rng = np.random.default_rng(0)
    m = rng.random((4, 5, 2)) * 255.0
    omega = random_mask(m.shape, 0.5, 0)
    x = m + rng.standard_normal(m.shape)
    psnr(x, m, omega, mode="paper")
    with pytest.raises(ParameterError):
        psnr(x, m, omega.astype(dtype), mode="paper")
