"""Tests for canonical, length-limited Huffman coding."""

from __future__ import annotations

import heapq
from typing import cast

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.codecs.huffman import (
    MAX_CODE_LENGTH,
    HuffmanTable,
    _huffman_code_lengths,
    _limit_lengths,
    _pack_codewords,
    huffman_decode,
    huffman_encode,
    huffman_encode_many,
)
from repro.errors import CodecError


def roundtrip(symbols: np.ndarray, alphabet: int | None = None):
    table = HuffmanTable.from_symbols(symbols, alphabet_size=alphabet)
    blob = huffman_encode(symbols, table)
    out, end = huffman_decode(blob, table)
    assert end == len(blob)
    np.testing.assert_array_equal(out, symbols)
    return table, blob


class TestTableConstruction:
    def test_two_symbol_code(self):
        table = HuffmanTable.from_counts(np.array([5, 5]))
        assert list(table.lengths) == [1, 1]
        assert sorted(table.codes.tolist()) == [0, 1]

    def test_single_symbol_gets_length_one(self):
        table = HuffmanTable.from_counts(np.array([0, 9, 0]))
        assert table.lengths[1] == 1
        assert table.lengths[0] == table.lengths[2] == 0

    def test_skewed_counts_give_short_code_to_common_symbol(self):
        counts = np.array([1000, 10, 10, 10, 10])
        table = HuffmanTable.from_counts(counts)
        assert table.lengths[0] == min(table.lengths[table.lengths > 0])

    def test_kraft_inequality_holds(self):
        rng = np.random.default_rng(3)
        counts = rng.integers(0, 1000, 300)
        table = HuffmanTable.from_counts(counts)
        used = table.lengths[table.lengths > 0]
        assert np.sum(2.0 ** (-used)) <= 1.0 + 1e-12

    def test_length_limit_respected(self):
        # Fibonacci-like counts force very long unrestricted codes.
        counts = np.array([1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144,
                           233, 377, 610, 987, 1597, 2584, 4181, 6765,
                           10946, 17711, 28657, 46368, 75025, 121393,
                           196418, 317811], dtype=np.int64)
        table = HuffmanTable.from_counts(counts, max_len=10)
        assert table.max_length <= 10
        used = table.lengths[table.lengths > 0]
        assert np.sum(2.0 ** (-used)) <= 1.0 + 1e-12

    def test_prefix_free(self):
        rng = np.random.default_rng(5)
        counts = rng.integers(1, 100, 40)
        table = HuffmanTable.from_counts(counts)
        codes = [
            format(int(c), f"0{int(ln)}b")
            for c, ln in zip(table.codes, table.lengths) if ln > 0
        ]
        for i, a in enumerate(codes):
            for j, b in enumerate(codes):
                if i != j:
                    assert not b.startswith(a)

    def test_negative_counts_rejected(self):
        with pytest.raises(CodecError):
            HuffmanTable.from_counts(np.array([1, -1]))

    def test_2d_counts_rejected(self):
        with pytest.raises(CodecError):
            HuffmanTable.from_counts(np.ones((2, 2)))

    def test_expected_bits(self):
        counts = np.array([8, 4, 2, 2])
        table = HuffmanTable.from_counts(counts)
        assert table.expected_bits(counts) == int(
            np.sum(counts * table.lengths)
        )


class TestSerialization:
    def test_table_roundtrip(self):
        rng = np.random.default_rng(7)
        counts = rng.integers(0, 500, 100)
        table = HuffmanTable.from_counts(counts)
        restored, pos = HuffmanTable.from_bytes(table.to_bytes())
        assert pos == len(table.to_bytes())
        np.testing.assert_array_equal(restored.lengths, table.lengths)
        np.testing.assert_array_equal(restored.codes, table.codes)

    def test_table_roundtrip_with_offset(self):
        table = HuffmanTable.from_counts(np.array([3, 1, 4]))
        buf = b"xx" + table.to_bytes() + b"tail"
        restored, pos = HuffmanTable.from_bytes(buf, 2)
        np.testing.assert_array_equal(restored.lengths, table.lengths)
        assert buf[pos:] == b"tail"


class TestEncodeDecode:
    def test_simple_roundtrip(self):
        roundtrip(np.array([0, 1, 2, 1, 0, 0, 0], dtype=np.int64))

    def test_empty_roundtrip(self):
        table = HuffmanTable.from_counts(np.array([1]))
        blob = huffman_encode(np.array([], dtype=np.int64), table)
        out, _ = huffman_decode(blob, table)
        assert out.size == 0

    def test_single_symbol_stream(self):
        roundtrip(np.zeros(500, dtype=np.int64), alphabet=1)

    def test_large_skewed_stream(self):
        rng = np.random.default_rng(11)
        symbols = rng.choice(64, size=20_000,
                             p=np.arange(64, 0, -1) / np.sum(np.arange(1, 65)))
        table, blob = roundtrip(symbols.astype(np.int64))
        # Entropy coding must beat the trivial 6-bit packing comfortably.
        assert len(blob) * 8 < 6 * symbols.size

    def test_out_of_alphabet_symbol_rejected(self):
        table = HuffmanTable.from_counts(np.array([1, 1]))
        with pytest.raises(CodecError):
            huffman_encode(np.array([2]), table)

    def test_symbol_without_code_rejected(self):
        table = HuffmanTable.from_counts(np.array([1, 0, 1]))
        with pytest.raises(CodecError):
            huffman_encode(np.array([1]), table)

    def test_decode_with_offset_and_concatenation(self):
        syms1 = np.array([0, 1, 0, 2], dtype=np.int64)
        syms2 = np.array([2, 2, 1], dtype=np.int64)
        table = HuffmanTable.from_symbols(np.concatenate([syms1, syms2]))
        blob = huffman_encode(syms1, table) + huffman_encode(syms2, table)
        out1, pos = huffman_decode(blob, table)
        out2, end = huffman_decode(blob, table, pos)
        np.testing.assert_array_equal(out1, syms1)
        np.testing.assert_array_equal(out2, syms2)
        assert end == len(blob)

    def test_truncated_stream_raises(self):
        symbols = np.arange(100, dtype=np.int64) % 7
        table = HuffmanTable.from_symbols(symbols)
        blob = huffman_encode(symbols, table)
        with pytest.raises(CodecError):
            huffman_decode(blob[: len(blob) // 4], table)

    @given(st.lists(st.integers(0, 30), min_size=1, max_size=500))
    def test_roundtrip_property(self, values):
        roundtrip(np.asarray(values, dtype=np.int64))

    @given(st.integers(2, 600), st.integers(0, 2 ** 32))
    def test_random_alphabet_property(self, alphabet, seed):
        rng = np.random.default_rng(seed)
        symbols = rng.integers(0, alphabet, size=200)
        roundtrip(symbols.astype(np.int64), alphabet=alphabet)

    def test_max_code_length_constant_sane(self):
        assert 10 <= MAX_CODE_LENGTH <= 24


# -- tree build: the heap construction is the oracle ------------------------


def _heap_code_lengths(counts: np.ndarray) -> np.ndarray:
    """The classic heap build: (weight, tiebreak, node) entries, leaves
    tied by symbol, internal nodes by creation order, then a DFS over
    the tree for the depths."""
    used = np.flatnonzero(counts)
    lengths = np.zeros(counts.size, dtype=np.int64)
    if used.size == 0:
        return lengths
    if used.size == 1:
        lengths[used[0]] = 1
        return lengths
    heap: list[tuple[int, int, object]] = [
        (int(counts[s]), int(s), int(s)) for s in used]
    heapq.heapify(heap)
    tiebreak = int(counts.size)
    while len(heap) > 1:
        w1, _, n1 = heapq.heappop(heap)
        w2, _, n2 = heapq.heappop(heap)
        heapq.heappush(heap, (w1 + w2, tiebreak, [n1, n2]))
        tiebreak += 1
    stack = [(heap[0][2], 0)]
    while stack:
        node, depth = stack.pop()
        if isinstance(node, int):
            lengths[node] = max(depth, 1)
        else:
            children = cast("list[object]", node)
            stack.append((children[0], depth + 1))
            stack.append((children[1], depth + 1))
    return lengths


def _seeded_counts(seed: int) -> np.ndarray:
    """Count vectors mixing heavy ties, zeros and skew."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 400))
    kind = seed % 4
    if kind == 0:     # heavy ties: a handful of distinct weights
        counts = rng.choice([1, 2, 3, 5], size=n)
    elif kind == 1:   # many zeros
        counts = rng.integers(0, 50, n) * (rng.random(n) < 0.3)
    elif kind == 2:   # SZ-like: geometric decay from a peak
        counts = (1e5 * np.exp(-np.arange(n) / rng.uniform(1, 40))).astype(
            np.int64)
    else:             # wide range
        counts = rng.integers(0, 10 ** 6, n)
    return counts.astype(np.int64)


class TestTreeBuildOracle:
    @pytest.mark.parametrize("seed", range(40))
    def test_lengths_match_heap_build(self, seed):
        counts = _seeded_counts(seed)
        np.testing.assert_array_equal(_huffman_code_lengths(counts),
                                      _heap_code_lengths(counts))

    @pytest.mark.parametrize("counts", [
        [0, 0, 0],
        [0, 7, 0],
        [3, 0, 3],
        [1, 1],
        [0, 5, 0, 0, 2],
        [4] * 64,
        [1] * 257,
        [2, 1, 1, 2, 1, 1, 2],
    ], ids=["none", "one", "two-tied", "two", "two-sparse", "equal-64",
            "equal-257", "mixed-ties"])
    def test_small_and_tied_alphabets(self, counts):
        counts = np.asarray(counts, dtype=np.int64)
        np.testing.assert_array_equal(_huffman_code_lengths(counts),
                                      _heap_code_lengths(counts))

    @pytest.mark.parametrize("max_len", [8, 12, MAX_CODE_LENGTH])
    def test_repair_path_matches_heap_build(self, max_len):
        # Fibonacci counts give a chain tree deeper than the cap, so
        # the tables go through the Kraft repair.
        fib = [1, 1]
        while len(fib) < 40:
            fib.append(fib[-1] + fib[-2])
        counts = np.asarray(fib, dtype=np.int64)
        oracle = _heap_code_lengths(counts)
        assert oracle.max() > max_len
        table = HuffmanTable.from_counts(counts, max_len=max_len)
        np.testing.assert_array_equal(table.lengths,
                                      _limit_lengths(oracle, max_len))
        assert table.max_length <= max_len


class TestFromCountsLimits:
    def test_too_many_symbols_for_max_len_rejected(self):
        with pytest.raises(CodecError, match="cannot fit"):
            HuffmanTable.from_counts(np.array([5, 4, 3, 2, 1]), max_len=2)

    @pytest.mark.parametrize("max_len", [0, -3])
    def test_max_len_below_one_rejected(self, max_len):
        with pytest.raises(CodecError, match="max_len"):
            HuffmanTable.from_counts(np.array([1, 1]), max_len=max_len)

    def test_exactly_full_code_allowed(self):
        table = HuffmanTable.from_counts(np.array([5, 4, 3, 2]), max_len=2)
        assert list(table.lengths) == [2, 2, 2, 2]
        table = HuffmanTable.from_counts(np.array([0, 9, 0]), max_len=1)
        assert list(table.lengths) == [0, 1, 0]


# -- bit writer ---------------------------------------------------------------


def _pack_reference(codes, lens, starts, nbytes: int) -> bytes:
    """Per-bit reference writer: set every codeword bit one at a time."""
    bits = np.zeros(8 * nbytes, dtype=np.uint8)
    for code, ln, at in zip(codes.tolist(), lens.tolist(), starts.tolist()):
        for j in range(ln):
            bits[at + j] = (code >> (ln - 1 - j)) & 1
    return np.packbits(bits).tobytes()


class TestPackCodewords:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_per_bit_writer(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 300))
        top = int(rng.choice([3, 20, 33, 64]))
        lens = rng.integers(1, top + 1, n).astype(np.int64)
        codes = np.array([int.from_bytes(rng.bytes(8), "big") % 2 ** ln
                          for ln in lens.tolist()], dtype=np.uint64)
        # Gaps of 0-9 bits between codewords, as stream padding leaves.
        gaps = rng.integers(0, 10, n) * (rng.random(n) < 0.2)
        starts = np.cumsum(gaps) + np.concatenate(([0], np.cumsum(lens)[:-1]))
        nbytes = (int(starts[-1] + lens[-1]) + 7) // 8 + int(rng.integers(0, 3))
        assert _pack_codewords(codes, lens, starts, nbytes) == \
            _pack_reference(codes, lens, starts, nbytes)

    def test_word_straddles_and_64_bit_codes(self):
        lens = np.array([64, 1, 64, 63, 2], dtype=np.int64)
        codes = np.array([2 ** 64 - 1, 1, 0x8000000000000001,
                          2 ** 63 - 2, 2], dtype=np.uint64)
        starts = np.concatenate(([0], np.cumsum(lens)[:-1]))
        nbytes = (int(lens.sum()) + 7) // 8
        assert _pack_codewords(codes, lens, starts, nbytes) == \
            _pack_reference(codes, lens, starts, nbytes)

    def test_no_codewords_gives_zero_bytes(self):
        empty = np.zeros(0, dtype=np.int64)
        assert _pack_codewords(empty.astype(np.uint64), empty, empty,
                               5) == bytes(5)


class TestEncodeMany:
    def test_matches_one_stream_at_a_time(self):
        rng = np.random.default_rng(21)
        streams, tables = [], []
        for k in range(9):
            n = 0 if k in (2, 7) else int(rng.integers(1, 700))
            alphabet = int(rng.integers(1, 300))
            syms = (np.abs(rng.laplace(0, 1 + 10 * k, n)).astype(np.int64)
                    % alphabet)
            streams.append(syms)
            tables.append(HuffmanTable.from_symbols(
                syms, alphabet_size=alphabet) if n
                else HuffmanTable.from_counts(np.ones(alphabet)))
        out = huffman_encode_many(streams, tables)
        assert out == [huffman_encode(s, t) for s, t in zip(streams, tables)]
        pos = 0
        blob = b"".join(out)
        for s, t in zip(streams, tables):
            got, pos = huffman_decode(blob, t, pos)
            np.testing.assert_array_equal(got, s)
        assert pos == len(blob)

    def test_one_span_per_call(self):
        from repro.observability import Tracer, use_tracer

        table = HuffmanTable.from_counts(np.array([3, 2, 1]))
        streams = [np.array([0, 1, 2]), np.array([1, 1]), np.array([2])]
        with use_tracer(Tracer()) as tracer:
            huffman_encode_many(streams, [table] * 3)
        spans = [s for s in tracer.spans if s.name == "huffman.encode"]
        assert [(s.meta["n_symbols"], s.meta["n_streams"])
                for s in spans] == [(6, 3)]

    def test_bad_symbol_in_any_stream_rejected(self):
        table = HuffmanTable.from_counts(np.array([1, 0, 1]))
        ok = np.array([0, 2])
        with pytest.raises(CodecError, match="alphabet"):
            huffman_encode_many([ok, np.array([3])], [table, table])
        with pytest.raises(CodecError, match="zero length"):
            huffman_encode_many([ok, np.array([1])], [table, table])

    def test_stream_table_count_mismatch_rejected(self):
        table = HuffmanTable.from_counts(np.array([1, 1]))
        with pytest.raises(CodecError, match="tables"):
            huffman_encode_many([np.array([0])], [table, table])
