"""Tests for the per-block regression predictor."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.regression import design_matrix, fit_blocks, \
    predict_blocks
from repro.errors import DataShapeError


def test_design_matrix_shape():
    X = design_matrix((4, 4))
    assert X.shape == (16, 3)  # [1, i, j]
    assert np.all(X[:, 0] == 1.0)


def test_design_matrix_3d():
    X = design_matrix((2, 3, 4))
    assert X.shape == (24, 4)


def test_design_matrix_empty_rejected():
    with pytest.raises(DataShapeError):
        design_matrix(())


def test_exact_fit_on_planes(rng):
    """Blocks that ARE hyperplanes fit with ~zero residual."""
    gy, gx = np.meshgrid(np.linspace(-1, 1, 8), np.linspace(-1, 1, 8),
                         indexing="ij")
    blocks = np.stack([
        2.0 + 3.0 * gy - 1.0 * gx,
        -5.0 + 0.5 * gy + 4.0 * gx,
    ])
    coef = fit_blocks(blocks)
    pred = predict_blocks(coef, (8, 8))
    assert np.max(np.abs(pred - blocks)) < 1e-3  # float32 coef rounding


def test_fit_reduces_residual_vs_mean(rng):
    blocks = rng.normal(size=(10, 8, 8)) + \
        np.linspace(0, 5, 8)[None, :, None]
    coef = fit_blocks(blocks)
    pred = predict_blocks(coef, (8, 8))
    res = blocks - pred
    res_mean = blocks - blocks.mean(axis=(1, 2), keepdims=True)
    assert (res ** 2).sum() < (res_mean ** 2).sum()


def test_coefficients_are_float32(rng):
    coef = fit_blocks(rng.normal(size=(3, 4, 4)))
    assert coef.dtype == np.float32


def test_prediction_uses_rounded_coefficients(rng):
    """Encoder/decoder symmetry: predicting from the stored (rounded)
    coefficients must be reproducible bit-for-bit."""
    blocks = rng.normal(size=(5, 8, 8))
    coef = fit_blocks(blocks)
    p1 = predict_blocks(coef, (8, 8))
    p2 = predict_blocks(coef.copy(), (8, 8))
    np.testing.assert_array_equal(p1, p2)


def test_1d_blocks(rng):
    blocks = rng.normal(size=(4, 16)) + np.linspace(0, 3, 16)
    coef = fit_blocks(blocks)
    assert coef.shape == (4, 2)
    pred = predict_blocks(coef, (16,))
    assert pred.shape == (4, 16)


def test_bad_block_array_rejected(rng):
    with pytest.raises(DataShapeError):
        fit_blocks(rng.normal(size=8))


def test_batched_fit_and_predict_match_each_item_alone():
    rng = np.random.default_rng(4)
    batch = rng.normal(size=(5, 7, 6, 6, 6))
    coef = fit_blocks(batch, lead=2)
    assert coef.shape == (5, 7, 4)
    pred = predict_blocks(coef, (6, 6, 6))
    for item, c, p in zip(batch, coef, pred):
        np.testing.assert_array_equal(c, fit_blocks(item))
        np.testing.assert_array_equal(p, predict_blocks(c, (6, 6, 6)))
