"""Canonical, length-limited Huffman coding.

This is the entropy-coding workhorse of the SZ-style baseline (SZ
Huffman-codes its quantization bins) and is exposed as a general codec
for any small-alphabet integer array.

Design notes
------------
* **Canonical codes.**  Only code *lengths* are serialized; both sides
  reconstruct identical codewords by assigning consecutive values to
  symbols sorted by (length, symbol).  The table header is therefore a
  few hundred bytes even for large alphabets.
* **Length limiting.**  Code lengths are capped at
  :data:`MAX_CODE_LENGTH` bits using the classic Kraft-repair
  heuristic (clamp, then lengthen the cheapest codes until the Kraft
  sum is <= 1, then shorten greedily where slack remains).  The cap
  enables a single flat ``2**L``-entry decode table.
* **Two-queue tree build.**  Code lengths come from the linear
  two-queue Huffman construction over leaves sorted by (count,
  symbol), which picks exactly the nodes a (weight, tiebreak) heap
  would, so the lengths -- and the bytes -- are the heap build's.
* **Word-packed encode.**  Symbols are mapped to (code, length)
  arrays, and :func:`_pack_codewords` shifts each left-aligned
  codeword into the 64-bit word holding its first bit (plus one entry
  for a spill into the next word) and merges them with
  ``np.bitwise_or.reduceat``: work per symbol, not per bit.
  :func:`huffman_encode_many` encodes several streams, each with its
  own table and each starting on a byte boundary, in one such pass;
  :func:`huffman_encode` is its one-stream case.
* **Two decoders, chosen by symbol count.**  Below
  :data:`_JUMP_CUTOFF` symbols (every store chunk) a pointer-jumping
  decoder (:func:`_decode_jump`) works one bounded window of bits at a
  time: one table gather gives every bit position its successor, a
  few doubling levels ``nxt = nxt[nxt]`` plus a short scalar walk
  list the true symbol chain, and the next window starts where the
  chain leaves this one.  Its cost follows the number of bits, not
  the number of symbols per round, and a 16^3 chunk fits in one
  window.  From the cutoff on, the chunked speculative decoder
  (:func:`_decode_vectorized`) runs instead: the bitstream is cut into
  fixed-width chunks decoded speculatively in lockstep; Huffman codes
  self-synchronize, so each chunk's chain converges onto the true one
  within a few symbols, and a merge pass stitches the chains
  together.  The scalar cursor loop (:func:`_decode_scalar`) is the
  differential-test oracle for both.  Decode tables are built with
  one ``np.repeat`` per table instance and cached.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Sequence, cast

import numpy as np
from numpy.typing import NDArray

from repro.codecs.varint import decode_uvarint, encode_uvarint
from repro.codecs.zlibc import zlib_compress, zlib_decompress
from repro.errors import CodecError
from repro.observability import counter_inc, observe, span

__all__ = ["HuffmanTable", "huffman_encode", "huffman_encode_many",
           "huffman_decode", "MAX_CODE_LENGTH"]

#: Hard cap on codeword length; the flat decode table has 2**len entries.
MAX_CODE_LENGTH = 20

#: Symbol count from which the chunked speculative decoder runs instead
#: of the pointer-jumping one: the largest power of two at which the
#: jump decoder was no slower on any measured SZ residual stream (its
#: work follows the bit count; speculative rounds amortize better on
#: long, high-entropy streams).
_JUMP_CUTOFF = 1 << 16

#: Bits per pointer-jumping window: a whole 16^3 SZ chunk fits in one,
#: and it bounds the decoder's working memory.
_WINDOW_BITS = 1 << 16

#: Window bits per scalar step of the jump decoder's skeleton walk: one
#: step costs about as much as a gather over this many elements.
_BITS_PER_STEP = 256

#: Right shifts that take a 64-bit word apart into bytes, MSB first.
_BYTE_SHIFTS = np.arange(56, -8, -8, dtype=np.uint64)

#: Target symbols per speculative chunk: sets the gather width
#: (``~n/256`` chunks per round) against the per-round Python overhead.
_CHUNK_SYMBOLS = 256


def _huffman_code_lengths(counts: NDArray[np.int64]) -> NDArray[np.int64]:
    """Compute unrestricted Huffman code lengths from symbol counts.

    Two-queue construction: leaves sorted by (count, symbol) form one
    queue, and internal nodes -- created in nondecreasing weight order
    -- form the other.  Each merge takes the two lightest heads; a tie
    between a leaf and an internal node takes the leaf.  That is the
    exact pop order of a heap keyed on (weight, tiebreak) with leaves
    tied by symbol and internal nodes by creation, so the tree (and
    every code length) is the classic heap build's.  Symbols with zero
    count get length 0 (absent from the code).  A degenerate alphabet
    of one used symbol gets length 1.
    """
    used = np.flatnonzero(counts)
    lengths = np.zeros(counts.size, dtype=np.int64)
    m = int(used.size)
    if m == 0:
        return lengths
    if m == 1:
        lengths[used[0]] = 1
        return lengths
    order = used[np.argsort(counts[used], kind="stable")]
    leaf: list[int] = counts[order].tolist()
    node = [0] * (m - 1)         # internal weights, in creation order
    parent = [0] * (2 * m - 2)   # leaves by rank, then internal nodes
    i = j = 0
    for k in range(m - 1):
        if i < m and (j == k or leaf[i] <= node[j]):
            w = leaf[i]
            parent[i] = k
            i += 1
        else:
            w = node[j]
            parent[m + j] = k
            j += 1
        if i < m and (j == k or leaf[i] <= node[j]):
            w += leaf[i]
            parent[i] = k
            i += 1
        else:
            w += node[j]
            parent[m + j] = k
            j += 1
        node[k] = w
    # Every parent is created after its children: one backward pass
    # from the root (internal node m - 2) assigns every depth.
    depth = [0] * (m - 1)
    for k in range(m - 3, -1, -1):
        depth[k] = depth[parent[m + k]] + 1
    lengths[order] = np.asarray(depth)[parent[:m]] + 1
    return lengths


def _limit_lengths(lengths: NDArray[np.int64],
                   max_len: int) -> NDArray[np.int64]:
    """Repair code lengths so none exceeds ``max_len`` and Kraft holds.

    The Kraft inequality ``sum(2**-len) <= 1`` is what makes a prefix
    code realizable; clamping long codes breaks it, so we lengthen the
    currently-shortest codes (cheapest in expected bits) until it holds
    again, then shorten codes while slack remains.
    """
    lens = lengths.copy()
    used = np.flatnonzero(lens)
    if used.size == 0:
        return lens
    lens[used] = np.minimum(lens[used], max_len)
    # Work in units of 2**-max_len so everything is integral.
    unit = 1 << max_len
    kraft = int(np.sum(unit >> lens[used]))
    if kraft > unit:
        # Lengthen codes, shortest first (each increment halves its
        # Kraft contribution, the largest available single reduction).
        order = sorted(used, key=lambda s: (lens[s], s))
        i = 0
        while kraft > unit:
            s = order[i % len(order)]
            if lens[s] < max_len:
                kraft -= (unit >> lens[s]) - (unit >> (lens[s] + 1))
                lens[s] += 1
            i += 1
    # Optional improvement: shorten high-count symbols while slack remains.
    if kraft < unit:
        order = sorted(used, key=lambda s: (-lens[s], s))
        for s in order:
            while lens[s] > 1 and kraft + (unit >> lens[s]) <= unit:
                kraft += unit >> lens[s]
                lens[s] -= 1
    return lens


def _canonical_codes_ref(lengths: NDArray[np.int64]) -> NDArray[np.uint64]:
    """Reference scalar canonical-code assignment.

    The pre-vectorization implementation: a Python loop over used
    symbols in (length, symbol) order.  Kept as the differential-test
    oracle for :func:`_canonical_codes` and as the fallback for
    adversarial length arrays too wide for int64 arithmetic.
    """
    codes = np.zeros(lengths.size, dtype=np.uint64)
    used = np.flatnonzero(lengths)
    if used.size == 0:
        return codes
    order = sorted(used, key=lambda s: (lengths[s], s))
    code = 0
    prev_len = int(lengths[order[0]])
    for s in order:
        ln = int(lengths[s])
        code <<= ln - prev_len
        codes[s] = code
        code += 1
        prev_len = ln
    if code > (1 << prev_len):
        raise CodecError("canonical code construction overflowed: bad lengths")
    return codes


def _canonical_codes(lengths: NDArray[np.int64]) -> NDArray[np.uint64]:
    """Assign canonical codewords given per-symbol code lengths.

    Symbols are processed in (length, symbol) order; each receives the
    next available codeword at its length.  Returns a uint64 array of
    codewords (MSB-first significance, ``lengths[s]`` bits each).

    Vectorized: scaled to the longest length ``M``, the next available
    codeword is the Kraft prefix sum of the symbols before it, so in
    that order ``code = cumsum_excl(2**(M - len)) >> (M - len)``.
    """
    codes = np.zeros(lengths.size, dtype=np.uint64)
    used = np.flatnonzero(lengths)
    if used.size == 0:
        return codes
    lens = lengths[used].astype(np.int64, copy=False)
    top = int(lens.max())
    if top > 60:
        return _canonical_codes_ref(lengths)
    order = np.argsort(lens, kind="stable")  # ties keep symbol order
    drop = top - lens[order]
    width = np.left_shift(1, drop)
    ends = np.cumsum(width)
    if int(ends[-1]) > 1 << top:
        raise CodecError("canonical code construction overflowed: bad lengths")
    codes[used[order]] = ((ends - width) >> drop).astype(np.uint64)
    return codes


@lru_cache(maxsize=128)
def _table_from_lengths_bytes(
        raw: bytes) -> tuple[NDArray[np.int64], NDArray[np.uint64]]:
    """Rebuild ``(lengths, codes)`` from a serialized uint8 length array.

    Cached so multi-section archives sharing one table header don't
    re-derive canonical codes per section.  The returned arrays are
    marked read-only because they are shared across table instances.
    """
    lengths = np.frombuffer(raw, dtype=np.uint8).astype(np.int64)
    codes = _canonical_codes(lengths)
    lengths.setflags(write=False)
    codes.setflags(write=False)
    return lengths, codes


@dataclass(frozen=True)
class HuffmanTable:
    """A canonical Huffman code over the alphabet ``0..len(lengths)-1``.

    Attributes
    ----------
    lengths:
        Per-symbol code lengths in bits (0 = symbol unused).
    codes:
        Per-symbol canonical codewords (uint64, MSB-significant).
    """

    lengths: NDArray[np.int64]
    codes: NDArray[np.uint64]

    @classmethod
    def from_counts(cls, counts: NDArray[Any],
                    max_len: int = MAX_CODE_LENGTH) -> "HuffmanTable":
        """Build an (approximately) optimal length-limited code.

        Parameters
        ----------
        counts:
            Non-negative symbol frequencies indexed by symbol value.
        max_len:
            Maximum codeword length; bounds decode-table memory at
            ``2**max_len`` entries.
        """
        counts = np.asarray(counts, dtype=np.int64)
        if counts.ndim != 1:
            raise CodecError("counts must be 1-D")
        if counts.size and counts.min() < 0:
            raise CodecError("negative symbol count")
        if max_len < 1:
            raise CodecError(f"max_len must be >= 1, got {max_len}")
        n_used = int(np.count_nonzero(counts))
        if n_used > 1 << min(max_len, 63):
            raise CodecError(
                f"{n_used} used symbols cannot fit a prefix code of at "
                f"most {max_len} bits ({1 << max_len} codewords)")
        lengths = _huffman_code_lengths(counts)
        if n_used and int(lengths.max()) > max_len:
            lengths = _limit_lengths(lengths, max_len)
        return cls(lengths=lengths, codes=_canonical_codes(lengths))

    @classmethod
    def from_symbols(cls, symbols: NDArray[Any],
                     alphabet_size: int | None = None,
                     max_len: int = MAX_CODE_LENGTH) -> "HuffmanTable":
        """Build a table from observed symbols (convenience)."""
        symbols = np.asarray(symbols).reshape(-1)
        if alphabet_size is None:
            alphabet_size = int(symbols.max()) + 1 if symbols.size else 1
        counts = np.bincount(symbols.astype(np.int64), minlength=alphabet_size)
        return cls.from_counts(counts, max_len=max_len)

    @property
    def alphabet_size(self) -> int:
        """Number of symbols in the alphabet (used or not)."""
        return int(self.lengths.size)

    @property
    def max_length(self) -> int:
        """Longest codeword in bits (0 for an empty code)."""
        return int(self.lengths.max()) if self.lengths.size else 0

    def expected_bits(self, counts: NDArray[Any]) -> int:
        """Total encoded payload size in bits for the given frequencies."""
        counts = np.asarray(counts, dtype=np.int64)
        return int(np.sum(counts * self.lengths))

    # -- serialization ---------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize the table (code lengths only, zlib-framed)."""
        if self.max_length > 255:  # pragma: no cover - impossible by cap
            raise CodecError("code length exceeds one byte")
        body = zlib_compress(self.lengths.astype(np.uint8).tobytes())
        return encode_uvarint(self.alphabet_size) + encode_uvarint(len(body)) + body

    @classmethod
    def from_bytes(cls, data: bytes, offset: int = 0) -> tuple["HuffmanTable", int]:
        """Deserialize a table; returns ``(table, next_offset)``."""
        size, pos = decode_uvarint(data, offset)
        blen, pos = decode_uvarint(data, pos)
        raw = zlib_decompress(data[pos : pos + blen])
        pos += blen
        lengths, codes = _table_from_lengths_bytes(raw)
        if lengths.size != size:
            raise CodecError("Huffman table length array size mismatch")
        return cls(lengths=lengths, codes=codes), pos

    # -- decode table ----------------------------------------------------

    def decode_tables(self) -> tuple[NDArray[Any], NDArray[np.uint8], int]:
        """Flat decode tables ``(symbol_at, length_at, L)``.

        Indexing either table with the next ``L`` stream bits (as an
        integer) yields the decoded symbol and its true code length; a
        length of 0 marks a window no codeword starts.  The tables hold
        the narrowest unsigned dtypes that fit.  Built once per table
        instance and cached: the tables are ``2**L`` entries, and
        multi-section decodes reuse them.

        Canonical codes taken in (length, symbol) order fill
        consecutive ``2**(L - len)`` ranges of the window space from 0,
        so both tables are one ``np.repeat`` each; the tail past the
        Kraft sum stays 0.
        """
        cached = self.__dict__.get("_decode_cache")
        if cached is not None:
            return cast("tuple[NDArray[Any], NDArray[np.uint8], int]", cached)
        L = self.max_length
        if L > 32:
            raise CodecError(
                f"code length {L} exceeds the 32-bit decode-window cap"
            )
        sym_dtype = np.min_scalar_type(max(self.alphabet_size - 1, 0))
        used = np.flatnonzero(self.lengths)
        # Canonical order: by length, ties by symbol (a stable sort).
        used = used[np.argsort(self.lengths[used], kind="stable")]
        lens = self.lengths[used]
        widths = 1 << (L - lens)
        total = int(widths.sum())
        if total > 1 << L:
            raise CodecError(
                "canonical code construction overflowed: bad lengths")
        sym_tab = np.zeros(1 << L, dtype=sym_dtype)
        len_tab = np.zeros(1 << L, dtype=np.uint8)
        sym_tab[:total] = np.repeat(used.astype(sym_dtype), widths)
        len_tab[:total] = np.repeat(lens.astype(np.uint8), widths)
        sym_tab.setflags(write=False)
        len_tab.setflags(write=False)
        tables = (sym_tab, len_tab, L)
        object.__setattr__(self, "_decode_cache", tables)
        return tables


def _pack_codewords(codes: NDArray[np.uint64], lens: NDArray[np.int64],
                    starts: NDArray[np.int64], nbytes: int) -> bytes:
    """Write codewords into an ``nbytes`` MSB-first bitstream.

    Codeword ``i`` (``lens[i]`` <= 64 bits) lands at bit ``starts[i]``
    (nondecreasing, no overlaps); bits no codeword covers are 0.  Each
    codeword is left-aligned in a 64-bit word and shifted into the
    stream word holding its first bit; the high parts of one word OR
    together with one ``np.bitwise_or.reduceat``.  A word receives at
    most one spill-over -- from the single codeword straddling its
    first bit -- so the spills are ORed in with one scatter.
    """
    words = np.zeros(-(-nbytes // 8), dtype=np.uint64)
    n = int(codes.size)
    if n:
        u64 = np.uint64
        lens64 = lens.astype(u64)
        left = codes.astype(u64) << (u64(64) - lens64)
        word = starts >> 6
        off = (starts & 63).astype(u64)
        head = np.empty(n, dtype=bool)
        head[0] = True
        np.not_equal(word[1:], word[:-1], out=head[1:])
        heads = np.flatnonzero(head)
        words[word[heads]] = np.bitwise_or.reduceat(left >> off, heads)
        spill = np.flatnonzero(off + lens64 > u64(64))
        words[word[spill] + 1] |= left[spill] << (u64(64) - off[spill])
    # Big-endian bytes of every word, MSB first, on any host.
    octets = (words[:, None] >> _BYTE_SHIFTS) & np.uint64(0xFF)
    return octets.astype(np.uint8).tobytes()[:nbytes]


def huffman_encode_many(streams: Sequence[NDArray[Any]],
                        tables: Sequence[HuffmanTable]) -> list[bytes]:
    """Encode each symbol array with its table, in one vectorized pass.

    Returns one ``uvarint(n) || bitstream`` per stream, exactly what
    :func:`huffman_encode` returns for it alone.  The codewords of
    every stream are gathered through the concatenated tables and
    written, each stream starting on a byte boundary, by one
    :func:`_pack_codewords` call.
    """
    if len(streams) != len(tables):
        raise CodecError(
            f"{len(streams)} symbol streams but {len(tables)} tables")
    syms = [np.asarray(s).reshape(-1).astype(np.int64, copy=False)
            for s in streams]
    sizes = np.array([s.size for s in syms], dtype=np.int64)
    headers = [encode_uvarint(int(k)) for k in sizes]
    n = int(sizes.sum())
    if n == 0:
        return headers
    with span("huffman.encode", bytes_in=8 * n, n_symbols=n,
              n_streams=len(syms)) as sp:
        alphabets = np.array([t.alphabet_size for t in tables],
                             dtype=np.int64)
        symbols = np.concatenate(syms)
        if symbols.min() < 0 or np.any(
                symbols >= np.repeat(alphabets, sizes)):
            raise CodecError("symbol outside table alphabet")
        # Each stream indexes its own table inside the concatenation.
        symbols += np.repeat(np.cumsum(alphabets) - alphabets, sizes)
        lens = np.concatenate([t.lengths for t in tables])[symbols]
        if not lens.all():
            raise CodecError("symbol has no codeword (zero length)")
        bits = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(lens, out=bits[1:])
        first = np.cumsum(sizes) - sizes
        nbytes = (bits[first + sizes] - bits[first] + 7) // 8
        byte0 = np.cumsum(nbytes) - nbytes
        # Every stream starts on a byte boundary.
        starts = bits[:-1] + np.repeat(8 * byte0 - bits[first], sizes)
        codes = np.concatenate([t.codes for t in tables])[symbols]
        blob = _pack_codewords(codes, lens, starts, int(nbytes.sum()))
        out = [h + blob[a : a + b] for h, a, b in
               zip(headers, byte0.tolist(), nbytes.tolist())]
        bytes_out = sum(len(o) for o, k in zip(out, sizes.tolist()) if k)
        sp.add(bytes_out=bytes_out)
    counter_inc("huffman.encode.symbols", n)
    counter_inc("huffman.encode.bytes_out", bytes_out)
    for k in sizes[sizes > 0].tolist():
        observe("huffman.encode.symbols_per_call", k, lo=1.0, hi=1e9)
    return out


def huffman_encode(symbols: NDArray[Any], table: HuffmanTable) -> bytes:
    """Encode an integer symbol array; returns ``uvarint(n) || bitstream``.

    The one-stream case of :func:`huffman_encode_many`.
    """
    return huffman_encode_many([symbols], [table])[0]


def _decode_scalar(buf: NDArray[np.uint8], n: int,
                   sym_tab: NDArray[Any], len_tab: NDArray[np.uint8],
                   L: int) -> tuple[NDArray[np.int64], int]:
    """Reference decode: per-offset table gather + Python cursor loop.

    For every bit offset we precompute, via the flat table, the
    (symbol, length) a decode starting there would produce; following
    the chain of offsets is then a tight loop over plain Python lists.
    Not on the runtime path: it is the differential-test oracle for
    :func:`_decode_jump` and :func:`_decode_vectorized`.  Returns
    ``(symbols, end_cursor)``.
    """
    bits = np.unpackbits(buf)
    nb = bits.size
    padded = np.concatenate((bits, np.zeros(L, dtype=np.uint8)))
    window = np.zeros(nb, dtype=np.uint32)
    for j in range(L):
        window |= (padded[j : j + nb].astype(np.uint32)
                   << np.uint32(L - 1 - j))
    sym_at = sym_tab[window].tolist()
    len_at = len_tab[window].tolist()
    out = [0] * n
    cursor = 0
    for k in range(n):
        if cursor >= nb:
            raise CodecError("Huffman bitstream underrun")
        ln = len_at[cursor]
        if ln == 0:
            raise CodecError("invalid codeword in Huffman bitstream")
        out[k] = sym_at[cursor]
        cursor += ln
    return np.asarray(out, dtype=np.int64), cursor


def _byte_words(buf: NDArray[np.uint8],
                L: int) -> tuple[NDArray[Any], int]:
    """Big-endian words at every byte offset of ``buf``, zero padded.

    Returns ``(words, word_bits)`` with ``buf.size + 1`` words; the
    L-bit window at bit ``t`` is
    ``(words[t >> 3] << (t & 7)) >> (word_bits - L)`` in the word
    dtype.  A 32-bit word holds any L <= 25 window (25 = 32 - 7 shift
    slack), which covers the default MAX_CODE_LENGTH; wider codes use
    64-bit words.
    """
    word_bits = 32 if L <= 25 else 64
    nbytes = int(buf.size)
    padded = np.zeros(nbytes + word_bits // 8, dtype=np.uint8)
    padded[:nbytes] = buf
    # One big-endian word view per byte offset (overlapping, stride 1).
    view = np.ndarray((nbytes + 1,), dtype=f">u{word_bits // 8}",
                      buffer=padded, strides=(1,))
    return view.astype(view.dtype.newbyteorder("=")), word_bits


def _decode_jump(buf: NDArray[np.uint8], n: int, sym_tab: NDArray[Any],
                 len_tab: NDArray[np.uint8],
                 L: int) -> tuple[NDArray[np.int64], int]:
    """Pointer-jumping decode, one bounded window of bits at a time.

    Inside a window of at most :data:`_WINDOW_BITS` bits, every bit
    position ``t`` gets its successor ``nxt[t] = t + len(window at
    t)`` in one table gather.  A jump past the window goes to an
    absorbing sink (index ``width``); an invalid codeword (length 0)
    points at itself, so a chain that reaches one stays there.  ``J``
    doubling levels ``nxt = nxt[nxt]`` give the ``2**J``-th successor;
    a scalar walk over that level from the window's entry yields every
    ``2**J``-th chain position, and ``J`` interleaving steps, top
    level first, fill in the rest.  The chain never decreases, so one
    ``searchsorted`` finds where it leaves the window, and its last
    in-window position is either an invalid codeword or the jump to
    the next window's entry.  Cost per window: about ``2J`` numpy
    calls and ``O(width * J)`` element work, with working memory
    bounded by the window, not by ``n``.  Returns
    ``(symbols, end_cursor)``.
    """
    words, word_bits = _byte_words(buf, L)
    wdt = words.dtype.type
    down = wdt(word_bits - L)
    shifts = np.arange(8, dtype=wdt)
    nbytes = int(buf.size)
    out = np.empty(n, dtype=np.int64)
    filled = 0
    t = 0
    while filled < n:
        if t >= nbytes * 8:
            raise CodecError("Huffman bitstream underrun")
        need = n - filled
        b0 = t >> 3
        # The chain of ``need`` symbols from t stays below
        # t + (need - 1) * L + 1, so no window need reach past that.
        b1 = min(nbytes, b0 + min(_WINDOW_BITS, need * L + 15) // 8)
        base, width = b0 * 8, (b1 - b0) * 8
        win = ((words[b0:b1, None] << shifts) >> down).reshape(-1)
        ln = np.take(len_tab, win)
        nxt = np.empty(width + 1, dtype=np.intp)
        np.add(np.arange(width, dtype=np.intp), ln, out=nxt[:width])
        nxt[width] = width
        np.minimum(nxt, width, out=nxt)
        cap = min(need, width)
        # The scalar walk takes the place of the top doubling levels,
        # each a gather over the whole window: it is kept to about
        # width / _BITS_PER_STEP steps.
        J = max(0, (cap - 1).bit_length()
                - (width // _BITS_PER_STEP).bit_length())
        levels: list[NDArray[np.intp]] = [nxt]
        for _ in range(J):
            levels.append(np.take(levels[-1], levels[-1]))
        top = levels[J]
        p = t - base
        skeleton = [p]
        for _ in range((cap - 1) >> J):
            p = int(top[p])
            skeleton.append(p)
            if p == width:
                break
        chain: NDArray[np.intp] = np.array(skeleton, dtype=np.intp)
        for lv in reversed(levels[:J]):
            pair = np.empty(2 * chain.size, dtype=np.intp)
            pair[0::2] = chain
            np.take(lv, chain, out=pair[1::2])
            chain = pair
        chain = chain[:cap]
        m = int(np.searchsorted(chain, width))
        last = int(chain[m - 1])
        step = int(ln[last])
        if step == 0:
            raise CodecError("invalid codeword in Huffman bitstream")
        out[filled : filled + m] = np.take(sym_tab, np.take(win, chain[:m]))
        filled += m
        t = base + last + step
    return out, t


def _decode_vectorized(buf: NDArray[np.uint8], n: int,
                       sym_tab: NDArray[Any], len_tab: NDArray[np.uint8],
                       L: int) -> tuple[NDArray[np.int64], int]:
    """Chunked speculative decode (see module docstring).

    The stream is cut into ``S`` fixed-width bit chunks, each decoded
    speculatively from its own start offset, all in lockstep (one
    vectorized table gather per round over every still-active chunk).
    A chunk records every bit position it visits; a chunk whose cursor
    reaches its end records the exit position (the entry into the next
    chunk), and a chunk that hits an invalid window records the poison
    position instead.  The merge pass then walks the *true* chain:
    inside each chunk it binary-searches the entry position among the
    recorded positions and, on a hit, copies the agreeing tail
    wholesale; on a miss (speculation not yet synchronized) it decodes
    single symbols until the chains merge.  Returns
    ``(symbols, end_cursor)``.
    """
    nb = int(buf.size) * 8
    w64, word_bits = _byte_words(buf, L)
    wdt = w64.dtype.type
    down = wdt(word_bits - L)
    wmask = (1 << word_bits) - 1

    S = max(2, -(-n // _CHUNK_SYMBOLS))
    W = max(L, -(-nb // S))
    S = -(-nb // W)
    starts = np.arange(S, dtype=np.int64) * W
    ends = np.minimum(starts + W, nb)

    # Lockstep speculative rounds.  store[r, s] is the r-th position
    # chunk s visited; columns are strictly increasing and contiguous
    # in r because chunks are active from round 0 until they finish.
    store = np.empty((_CHUNK_SYMBOLS + 64, S), dtype=np.int64)
    cnt = np.zeros(S, dtype=np.int64)
    exit_pos = np.full(S, -1, dtype=np.int64)
    poison = np.full(S, -1, dtype=np.int64)
    cur = starts.copy()
    active = np.arange(S, dtype=np.int64)
    r = 0
    while active.size:
        if r == store.shape[0]:
            store = np.concatenate([store, np.empty_like(store)], axis=0)
        pos = cur[active]
        w = (w64[pos >> 3] << (pos & 7).astype(wdt)) >> down
        ln = len_tab[w]
        ok = ln != 0
        if not ok.all():
            poison[active[~ok]] = pos[~ok]
            active = active[ok]
            if active.size == 0:
                break
            pos = pos[ok]
            ln = ln[ok]
        store[r, active] = pos
        cnt[active] += 1
        nxt = pos + ln
        cur[active] = nxt
        done = nxt >= ends[active]
        if done.any():
            exit_pos[active[done]] = nxt[done]
            active = active[~done]
        r += 1

    # Phase 2: overshoot.  Speculative chains converge a few symbols
    # *after* a chunk boundary, so a chunk's true entry is rarely on
    # the next chunk's recorded chain.  Each chunk therefore keeps
    # decoding past its end (again in lockstep) until it lands on a
    # position some phase-1 chain visited -- normally the next chunk's
    # chain, a handful of rounds.  The overshoot positions themselves
    # are recorded: when chunk s is on the true chain, so is its
    # overshoot, which bridges the boundary into chunk s+1.
    rows = np.arange(store.shape[0], dtype=np.int64)
    flat = store.T[rows[None, :] < cnt[:, None]]
    offsets = np.concatenate(([0], np.cumsum(cnt)))
    visited = np.zeros(nb, dtype=bool)
    visited[flat] = True
    sync_pos = np.full(S, -1, dtype=np.int64)
    store2 = np.empty((64, S), dtype=np.int64)
    cnt2 = np.zeros(S, dtype=np.int64)
    cur = exit_pos.copy()
    active = np.flatnonzero((exit_pos >= 0) & (exit_pos < nb))
    r = 0
    while active.size and r < 1024:
        pos = cur[active]
        hit = visited[pos]
        if hit.any():
            sync_pos[active[hit]] = pos[hit]
            active = active[~hit]
            if active.size == 0:
                break
            pos = pos[~hit]
        if r == store2.shape[0]:
            store2 = np.concatenate([store2, np.empty_like(store2)], axis=0)
        w = (w64[pos >> 3] << (pos & 7).astype(wdt)) >> down
        ln = len_tab[w]
        ok = ln != 0
        if not ok.all():
            active = active[ok]
            if active.size == 0:
                break
            pos = pos[ok]
            ln = ln[ok]
        store2[r, active] = pos
        cnt2[active] += 1
        nxt = pos + ln
        cur[active] = nxt
        over = nxt >= nb
        if over.any():
            active = active[~over]
        r += 1

    # Merge pass along the true chain.  From an on-chain position,
    # trust extends over every consecutive chunk whose predecessor
    # overshot straight onto it; those chunks' chain tails and
    # overshoots are concatenated with one boolean-mask gather.
    rows2 = np.arange(store2.shape[0], dtype=np.int64)
    chunk_of_sync = np.where(sync_pos >= 0, sync_pos // W, -1)
    out_pos = np.empty(n, dtype=np.int64)
    filled = 0
    t = 0
    while filled < n:
        if t >= nb:
            raise CodecError("Huffman bitstream underrun")
        s = t // W
        col = store[: cnt[s], s]
        jj = int(np.searchsorted(col, t))
        if jj >= col.size or col[jj] != t:
            # Off-chain (no phase-1 chain visited t): decode one symbol
            # the slow way and retry the merge.
            w = ((int(w64[t >> 3]) << (t & 7)) & wmask) >> (word_bits - L)
            ln = int(len_tab[w])
            if ln == 0:
                raise CodecError("invalid codeword in Huffman bitstream")
            out_pos[filled] = t
            filled += 1
            t += ln
            continue
        g = np.empty(S - s, dtype=bool)
        g[0] = True
        g[1:] = chunk_of_sync[s:-1] == np.arange(s + 1, S)
        trusted = int(np.logical_and.accumulate(g).sum())
        q = np.empty(trusted, dtype=np.int64)
        q[0] = t
        q[1:] = sync_pos[s : s + trusted - 1]
        j = np.searchsorted(flat, q) - offsets[s : s + trusted]
        m1 = (rows[None, :] >= j[:, None]) \
            & (rows[None, :] < cnt[s : s + trusted, None])
        m2 = rows2[None, :] < cnt2[s : s + trusted, None]
        big = np.concatenate([store.T[s : s + trusted],
                              store2.T[s : s + trusted]], axis=1)
        chain = big[np.concatenate([m1, m2], axis=1)]
        take = min(chain.size, n - filled)
        out_pos[filled : filled + take] = chain[:take]
        filled += take
        if filled == n:
            break
        last = s + trusted - 1
        if sync_pos[last] >= 0:
            t = int(sync_pos[last])       # on some phase-1 chain
        elif exit_pos[last] < 0:
            t = int(poison[last])         # chain died inside the chunk
        else:
            t = int(cur[last])            # overshoot cursor (or stream end)

    last = int(out_pos[n - 1])
    w = ((int(w64[last >> 3]) << (last & 7)) & wmask) >> (word_bits - L)
    cursor = last + int(len_tab[w])
    wv = (w64[out_pos >> 3] << (out_pos & 7).astype(wdt)) >> down
    return sym_tab[wv].astype(np.int64), cursor


def huffman_decode(data: bytes, table: HuffmanTable,
                   offset: int = 0) -> tuple[NDArray[np.int64], int]:
    """Decode ``huffman_encode`` output; returns ``(symbols, next_offset)``.

    ``next_offset`` is the byte offset just past the (byte-aligned)
    bitstream, so multiple sections can be concatenated.
    """
    n, pos = decode_uvarint(data, offset)
    if n == 0:
        return np.zeros(0, dtype=np.int64), pos
    counter_inc("huffman.decode.symbols", n)
    observe("huffman.decode.symbols_per_call", n, lo=1.0, hi=1e9)
    path = "jump" if n < _JUMP_CUTOFF else "speculative"
    with span("huffman.decode", n_symbols=n, path=path) as sp:
        sym_tab, len_tab, L = table.decode_tables()
        if L == 0:
            raise CodecError("cannot decode with an empty Huffman table")
        buf = np.frombuffer(data, dtype=np.uint8, offset=pos)
        if buf.size < 1:
            raise CodecError("empty Huffman bitstream")
        # Every codeword is at least one bit: refuse a count the payload
        # cannot hold before anything is sized by it.
        if n > 8 * buf.size:
            raise CodecError(
                f"Huffman bitstream underrun: header claims {n} symbols "
                f"but only {buf.size} payload bytes follow")
        # n symbols consume at most n*L bits; clip multi-section buffers
        # so decode work can't spill into later sections.
        max_bytes = (n * L + 7) // 8
        if buf.size > max_bytes:
            buf = buf[:max_bytes]
        if path == "jump":
            out, cursor = _decode_jump(buf, n, sym_tab, len_tab, L)
        else:
            out, cursor = _decode_vectorized(buf, n, sym_tab, len_tab, L)
        nbytes = (cursor + 7) // 8
        sp.add(bytes_in=nbytes, bytes_out=int(out.nbytes))
    return out, pos + nbytes
