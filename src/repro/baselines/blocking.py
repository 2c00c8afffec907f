"""Shared fixed-size block partitioning for the baseline codecs.

Both the SZ-style (block edge 6-8) and ZFP-style (block edge 4) coders
partition the input into equal hypercubes, padding the boundary by edge
replication.  Edge replication (rather than zero padding) keeps padded
samples statistically similar to their block, which matters for both
regression fits and block-floating-point exponents.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DataShapeError

__all__ = ["split_blocks", "merge_blocks"]


def split_blocks(arr: np.ndarray, bs: int, *,
                 lead: int = 0) -> tuple[np.ndarray, tuple[int, ...]]:
    """Pad (edge-replicate) and split into ``(n_blocks, bs, ..., bs)``.

    Blocks are ordered C-style over the block grid.  Returns the block
    stack and the padded array shape (needed to invert).  The first
    ``lead`` axes are a batch: they are kept in front of the block axis
    (``(*batch, n_blocks, bs, ..., bs)``) and every item is blocked
    exactly as it would be alone.
    """
    if arr.ndim <= lead:
        raise DataShapeError("cannot block a 0-D array")
    if bs < 1:
        raise DataShapeError(f"block size must be >= 1, got {bs}")
    batch = list(arr.shape[:lead])
    pad = [(0, 0)] * lead + [(0, (-n) % bs) for n in arr.shape[lead:]]
    padded = np.pad(arr, pad, mode="edge") if any(p[1] for p in pad) else arr
    shape = padded.shape[lead:]
    d = len(shape)
    counts = [n // bs for n in shape]
    view = padded.reshape(batch + [v for n in counts for v in (n, bs)])
    order = (list(range(lead)) + list(range(lead, lead + 2 * d, 2))
             + list(range(lead + 1, lead + 2 * d, 2)))
    blocks = view.transpose(order).reshape(
        *batch, int(np.prod(counts)), *([bs] * d))
    return np.ascontiguousarray(blocks), shape


def merge_blocks(blocks: np.ndarray, padded_shape: tuple[int, ...],
                 orig_shape: tuple[int, ...]) -> np.ndarray:
    """Inverse of :func:`split_blocks`, cropping away the padding."""
    d = len(padded_shape)
    bs = blocks.shape[1]
    counts = [n // bs for n in padded_shape]
    arr = blocks.reshape(counts + [bs] * d)
    order: list[int] = []
    for i in range(d):
        order.extend([i, d + i])
    arr = arr.transpose(order).reshape(padded_shape)
    return arr[tuple(slice(0, n) for n in orig_shape)]
