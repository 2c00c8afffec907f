"""Tests for the shared block partitioner."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.baselines.blocking import merge_blocks, split_blocks
from repro.errors import DataShapeError


@pytest.mark.parametrize("shape,bs", [
    ((16,), 4), ((17,), 4), ((8, 12), 4), ((9, 10), 4),
    ((8, 8, 8), 4), ((5, 6, 7), 4), ((10, 11), 3),
])
def test_roundtrip(shape, bs, rng):
    arr = rng.normal(size=shape)
    blocks, padded = split_blocks(arr, bs)
    out = merge_blocks(blocks, padded, shape)
    np.testing.assert_array_equal(out, arr)


def test_block_count_and_shape(rng):
    arr = rng.normal(size=(9, 10))
    blocks, padded = split_blocks(arr, 4)
    assert padded == (12, 12)
    assert blocks.shape == (9, 4, 4)


def test_exact_fit_no_padding(rng):
    arr = rng.normal(size=(8, 8))
    blocks, padded = split_blocks(arr, 4)
    assert padded == (8, 8)
    # First block is the top-left corner.
    np.testing.assert_array_equal(blocks[0], arr[:4, :4])


def test_edge_replication_padding():
    arr = np.arange(5, dtype=np.float64)
    blocks, padded = split_blocks(arr, 4)
    assert padded == (8,)
    np.testing.assert_array_equal(blocks[1], [4, 4, 4, 4])


def test_block_ordering_is_c_order(rng):
    arr = rng.normal(size=(8, 12))
    blocks, _ = split_blocks(arr, 4)
    # Row-major over the 2x3 block grid.
    np.testing.assert_array_equal(blocks[1], arr[:4, 4:8])
    np.testing.assert_array_equal(blocks[3], arr[4:, :4])


def test_invalid_inputs(rng):
    with pytest.raises(DataShapeError):
        split_blocks(np.float64(3.0), 4)
    with pytest.raises(DataShapeError):
        split_blocks(np.zeros(4), 0)


@given(st.integers(1, 40), st.integers(1, 40), st.integers(2, 6))
def test_roundtrip_property_2d(h, w, bs):
    arr = np.arange(h * w, dtype=np.float64).reshape(h, w)
    blocks, padded = split_blocks(arr, bs)
    np.testing.assert_array_equal(merge_blocks(blocks, padded, (h, w)), arr)


@pytest.mark.parametrize("shape,bs", [((5, 6, 7), 4), ((8, 8), 4), ((9,), 3)])
def test_leading_batch_axis_blocks_each_item_alone(shape, bs, rng):
    batch = rng.normal(size=(3,) + shape)
    blocks, padded = split_blocks(batch, bs, lead=1)
    for item, got in zip(batch, blocks):
        want, want_padded = split_blocks(item, bs)
        np.testing.assert_array_equal(got, want)
        assert padded == want_padded
