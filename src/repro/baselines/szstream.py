"""Symbol coding and container format for the SZ-style baseline.

Residual coding
---------------
Lattice residuals are signed integers sharply peaked at zero.  They are
zigzag-mapped to unsigned, values below the escape threshold become
Huffman symbols, and rarer large values are replaced by a reserved
escape symbol whose true magnitudes travel in a zlib-framed uvarint
side stream -- the same "unpredictable data" split real SZ performs.

Container
---------
A tiny section-based format: ``magic || version ||
uvarint(n_sections) || (uvarint(len) || bytes)*``.  Sections are
opaque byte strings whose meaning is positional, defined by
:mod:`repro.baselines.sz`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.codecs.huffman import (
    HuffmanTable,
    huffman_decode,
    huffman_encode_many,
)
from repro.codecs.varint import (
    decode_uvarint,
    encode_uvarint,
    zigzag_decode,
    zigzag_encode,
)
from repro.codecs.zlibc import zlib_compress, zlib_decompress
from repro.codecs.container import pack_sections, unpack_sections
from repro.errors import CodecError

__all__ = [
    "encode_residuals",
    "encode_residuals_many",
    "decode_residuals",
    "pack_sections",
    "unpack_sections",
    "DEFAULT_ALPHABET",
]

#: Symbol alphabet size (including the escape symbol).  65536 mirrors
#: SZ's default of 65536 quantization intervals.
DEFAULT_ALPHABET = 65536


def encode_residuals(residuals: np.ndarray,
                     alphabet: int = DEFAULT_ALPHABET) -> bytes:
    """Entropy-code an int64 residual array.

    Layout: ``uvarint(alphabet) || huffman_table || huffman_payload ||
    uvarint(len(escapes_frame)) || escapes_frame``.  The one-array case
    of :func:`encode_residuals_many`.
    """
    return encode_residuals_many([residuals], alphabet)[0]


def encode_residuals_many(residuals: Sequence[np.ndarray],
                          alphabet: int = DEFAULT_ALPHABET) -> list[bytes]:
    """Entropy-code several residual arrays, each with its own table.

    Returns exactly what :func:`encode_residuals` returns for each
    array alone.  The symbol mapping runs once over the concatenation,
    and every item's bitstream is written by one
    :func:`~repro.codecs.huffman.huffman_encode_many` call; only the
    table builds and the small side frames are per item.
    """
    if alphabet < 2:
        raise CodecError(f"alphabet must be >= 2, got {alphabet}")
    flats = [np.asarray(r, dtype=np.int64).reshape(-1) for r in residuals]
    if not flats:
        return []
    unsigned = zigzag_encode(np.concatenate(flats))
    escape = alphabet - 1
    over = unsigned >= escape
    symbols = np.where(over, np.uint64(escape), unsigned).astype(np.int64)
    bounds = np.cumsum([0] + [f.size for f in flats]).tolist()
    esc_at = np.flatnonzero(over)
    esc_bounds = np.searchsorted(esc_at, bounds).tolist()

    streams, tables, heads, sides = [], [], [], []
    for k in range(len(flats)):
        a, b = bounds[k], bounds[k + 1]
        stream = symbols[a:b]
        counts = np.bincount(stream) if b > a else np.zeros(1, np.int64)
        table = HuffmanTable.from_counts(counts)
        streams.append(stream)
        tables.append(table)
        heads.append(encode_uvarint(counts.size) + table.to_bytes())
        e0, e1 = esc_bounds[k], esc_bounds[k + 1]
        side = bytearray(encode_uvarint(e1 - e0))
        for v in unsigned[esc_at[e0:e1]].tolist():
            side += encode_uvarint(v)
        sides.append(zlib_compress(bytes(side)))
    payloads = huffman_encode_many(streams, tables)
    return [head + payload + encode_uvarint(len(side)) + side
            for head, payload, side in zip(heads, payloads, sides)]


def decode_residuals(data: bytes, count: int,
                     alphabet: int = DEFAULT_ALPHABET) -> np.ndarray:
    """Inverse of :func:`encode_residuals`; ``count`` is the residual count."""
    used, pos = decode_uvarint(data, 0)
    table, pos = HuffmanTable.from_bytes(data, pos)
    if table.alphabet_size != used:
        raise CodecError("Huffman table alphabet mismatch")
    symbols, pos = huffman_decode(data, table, pos)
    if symbols.size != count:
        raise CodecError(
            f"decoded {symbols.size} residual symbols, expected {count}"
        )
    side_len, pos = decode_uvarint(data, pos)
    side = zlib_decompress(data[pos : pos + side_len])
    n_esc, spos = decode_uvarint(side, 0)
    escape = alphabet - 1
    unsigned = symbols.astype(np.uint64)
    if n_esc:
        esc_vals = np.empty(n_esc, dtype=np.uint64)
        for i in range(n_esc):
            v, spos = decode_uvarint(side, spos)
            esc_vals[i] = v
        idx = np.flatnonzero(symbols == escape)
        if idx.size != n_esc:
            raise CodecError(
                f"escape count mismatch: {idx.size} markers, {n_esc} values"
            )
        unsigned[idx] = esc_vals
    return zigzag_decode(unsigned)
