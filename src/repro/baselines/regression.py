"""Per-block linear-regression predictor (SZ 2.0's second predictor).

SZ 2.0 splits the array into small blocks and, per block, chooses
between the Lorenzo predictor and a fitted hyperplane
``f(i, j, k) = c0 + c1*i + c2*j + c3*k``; smooth regions regress well
and rough regions fall back to Lorenzo.  This module provides the
regression half, fully vectorized across blocks:

* one shared design matrix (and its pseudo-inverse) serves every block
  of a given shape, so fitting all blocks is a single matmul;
* fitted coefficients are rounded to float32 *before* residuals are
  computed, so encoder and decoder predict from identical coefficients;
* residuals are snapped to the error-bound lattice, preserving the
  ``max |x - x_hat| <= eps`` contract.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DataShapeError

__all__ = ["design_matrix", "fit_blocks", "predict_blocks"]

_PINV_CACHE: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]] = {}


def design_matrix(block_shape: tuple[int, ...]) -> np.ndarray:
    """Regression design matrix for one block: columns [1, i, j, ...].

    Coordinates are centered and scaled to [-1, 1] so coefficient
    magnitudes stay comparable across block sizes (important because
    coefficients are stored as float32).
    """
    if not block_shape:
        raise DataShapeError("block shape must be non-empty")
    grids = np.meshgrid(
        *[np.linspace(-1.0, 1.0, n) if n > 1 else np.zeros(1)
          for n in block_shape],
        indexing="ij",
    )
    cols = [np.ones(int(np.prod(block_shape)))]
    cols.extend(g.reshape(-1) for g in grids)
    return np.stack(cols, axis=1)


def _design_and_pinv(block_shape: tuple[int, ...]) -> tuple[np.ndarray,
                                                            np.ndarray]:
    key = tuple(block_shape)
    cached = _PINV_CACHE.get(key)
    if cached is None:
        X = design_matrix(block_shape)
        cached = (X, np.linalg.pinv(X))
        if len(_PINV_CACHE) > 16:
            _PINV_CACHE.clear()
        _PINV_CACHE[key] = cached
    return cached


def fit_blocks(blocks: np.ndarray, *, lead: int = 1) -> np.ndarray:
    """Least-squares hyperplane fit for every block at once.

    Parameters
    ----------
    blocks:
        ``(n_blocks, *block_shape)`` array; with ``lead=2``, a batch
        ``(n_items, n_blocks, *block_shape)``.  Each item's fit is the
        same matrix product it would get alone.

    Returns
    -------
    ``(*blocks.shape[:lead], 1 + ndim)`` float32 coefficients (rounded
    for storage; use these same values for prediction).
    """
    if blocks.ndim < lead + 1:
        raise DataShapeError("blocks array must be (n_blocks, *block_shape)")
    block_shape = blocks.shape[lead:]
    _, pinv = _design_and_pinv(block_shape)
    flat = blocks.reshape(blocks.shape[:lead] + (-1,)).astype(np.float64)
    coef = flat @ pinv.T
    return coef.astype(np.float32)


def predict_blocks(coef: np.ndarray,
                   block_shape: tuple[int, ...]) -> np.ndarray:
    """Evaluate the fitted hyperplanes: ``(*coef.shape[:-1], *block_shape)``.

    ``coef`` is the float32 output of :func:`fit_blocks` (or the same
    values recovered from a container).
    """
    X, _ = _design_and_pinv(tuple(block_shape))
    pred = coef.astype(np.float64) @ X.T
    return pred.reshape(coef.shape[:-1] + tuple(block_shape))
