"""SZ-style error-bounded lossy compressor.

A from-scratch Python implementation of the prediction-based compressor
family the paper benchmarks as "SZ v2.0".  The pipeline is the same
four conceptual steps as real SZ:

1. **decorrelation by prediction** -- global Lorenzo prediction, or
   (SZ 2.0-style) a per-block choice between block-local Lorenzo and a
   fitted linear-regression hyperplane;
2. **linear-scaling quantization** honoring a strict absolute error
   bound ``eps`` (via the integer-lattice formulation of
   :mod:`repro.baselines.lorenzo`, which keeps everything vectorized);
3. **canonical Huffman coding** of the quantization codes, with an
   escape channel for unpredictable values;
4. **zlib** on the side streams.

Hard contract, enforced structurally and by the test suite::

    max |x - decompress(compress(x, eps))| <= eps

Usage
-----
>>> from repro.baselines import sz_compress, sz_decompress
>>> blob = sz_compress(data, eps=1e-3)          # absolute bound
>>> blob = sz_compress(data, rel_eps=1e-4)      # range-relative bound
>>> recon = sz_decompress(blob)
"""

from __future__ import annotations

import struct
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.baselines.blocking import merge_blocks as _merge_blocks
from repro.baselines.blocking import split_blocks as _split_blocks
from repro.baselines.lorenzo import (
    lattice_dequantize,
    lattice_quantize,
    lorenzo_inverse,
)
from repro.baselines.regression import fit_blocks, predict_blocks
from repro.baselines.szstream import (
    DEFAULT_ALPHABET,
    decode_residuals,
    encode_residuals_many,
    pack_sections,
    unpack_sections,
)
from repro.codecs.varint import decode_uvarint, encode_uvarint
from repro.codecs.zlibc import zlib_compress, zlib_decompress
from repro.errors import ConfigError, DataShapeError, FormatError
from repro.observability import counter_inc, gauge_set, observe, span

__all__ = ["SZCompressor", "sz_compress", "sz_compress_many",
           "sz_decompress", "MODES"]

_MAGIC = b"SZR1"
_VERSION = 1

MODES = ("lorenzo", "regression", "auto")
_MODE_ID = {m: i for i, m in enumerate(MODES)}

_DTYPES = {"f4": np.float32, "f8": np.float64}


def _block_lorenzo_forward(blocks: np.ndarray) -> np.ndarray:
    """Lorenzo residuals computed independently inside every block
    (or every item of a batch: everything past axis 0)."""
    out = blocks.copy()
    for axis in range(1, out.ndim):
        out = np.concatenate(
            [np.take(out, [0], axis=axis), np.diff(out, axis=axis)],
            axis=axis,
        )
    return out


def _block_lorenzo_inverse(res: np.ndarray) -> np.ndarray:
    out = res.copy()
    for axis in range(out.ndim - 1, 0, -1):
        out = np.cumsum(out, axis=axis)
    return out


def _residual_cost(res: np.ndarray) -> np.ndarray:
    """Per-block entropy proxy: sum of log2(1 + |residual|)."""
    flat = np.abs(res.reshape(res.shape[0], -1)).astype(np.float64)
    return np.log2(1.0 + flat).sum(axis=1)


@dataclass(frozen=True)
class SZCompressor:
    """Configured SZ-style compressor.

    Parameters
    ----------
    eps:
        Absolute error bound (exclusive with ``rel_eps``).
    rel_eps:
        Range-relative error bound; resolved to
        ``rel_eps * (max - min)`` at compression time (SZ's ``-P REL``).
    mode:
        ``'lorenzo'`` (global prediction, any ndim), ``'regression'``
        (per-block hyperplanes), or ``'auto'`` (per-block best of both,
        SZ 2.0 behavior).  ``'auto'`` falls back to ``'lorenzo'`` on
        1-D inputs, where a per-block line fit cannot beat Lorenzo.
    block_size:
        Block edge for the blockwise modes (SZ 2.0 uses 6-8).
    alphabet:
        Huffman symbol budget, including the escape symbol.
    """

    eps: float | None = None
    rel_eps: float | None = None
    mode: str = "auto"
    block_size: int = 8
    alphabet: int = DEFAULT_ALPHABET

    def __post_init__(self) -> None:
        if (self.eps is None) == (self.rel_eps is None):
            raise ConfigError("specify exactly one of eps / rel_eps")
        bound = self.eps if self.eps is not None else self.rel_eps
        if bound is None or bound <= 0:
            raise ConfigError(f"error bound must be positive, got {bound}")
        if self.mode not in MODES:
            raise ConfigError(f"unknown SZ mode {self.mode!r}; use {MODES}")
        if self.block_size < 2:
            raise ConfigError(f"block_size must be >= 2, got {self.block_size}")

    # -- helpers -----------------------------------------------------------

    def _resolve_eps(self, batch: np.ndarray, dtype_tag: str) -> np.ndarray:
        """One lattice bound per item of ``batch`` (items on axis 0)."""
        axes = tuple(range(1, batch.ndim))
        if self.eps is not None:
            eps = np.full(batch.shape[0], float(self.eps))
        else:
            # Range in the input dtype, as np.max(x) - np.min(x) gives.
            rng = (batch.max(axis=axes) - batch.min(axis=axes)).astype(
                np.float64)
            # Constant data: any positive bound works; pick the rel
            # bound itself so the lattice is well defined.
            eps = np.where(rng == 0.0, float(self.rel_eps),
                           float(self.rel_eps) * rng)
        if dtype_tag == "f4":
            # The pipeline works in float64 but float32 outputs are
            # rounded once more on the final cast (up to one ULP of the
            # largest value).  Shave that off the lattice bound so the
            # error contract holds on the *returned* array, not just
            # internally.
            ulp = np.spacing(np.abs(batch).max(axis=axes)).astype(np.float64)
            eps = np.where(eps > 2.0 * ulp, eps - ulp, eps)
        return eps

    def _predict(self, batch: np.ndarray, eps: np.ndarray,
                 mode: str) -> tuple[np.ndarray, tuple[int, ...],
                                     list[bytes], list[bytes]]:
        """Lattice residuals of a same-shape batch, plus per-item
        padded shape, selector and coefficient sections."""
        work = batch.astype(np.float64, copy=False)
        n = work.shape[0]
        if mode == "lorenzo":
            scale = eps.reshape((n,) + (1,) * (work.ndim - 1))
            return (_block_lorenzo_forward(lattice_quantize(work, scale)),
                    work.shape[1:], [b""] * n, [b""] * n)
        blocks, padded_shape = _split_blocks(work, self.block_size, lead=1)
        nb = blocks.shape[1]
        coef = fit_blocks(blocks, lead=2)
        pred = predict_blocks(coef, blocks.shape[2:])
        # Every block stands alone from here on: one flat block axis.
        flat_shape = (n * nb,) + blocks.shape[2:]
        scale = np.repeat(eps, nb).reshape(
            (n * nb,) + (1,) * (work.ndim - 1))
        reg_res = lattice_quantize((blocks - pred).reshape(flat_shape), scale)
        if mode == "regression":
            res = reg_res
            choose_reg = np.ones((n, nb), dtype=bool)
        else:
            lor_res = _block_lorenzo_forward(
                lattice_quantize(blocks.reshape(flat_shape), scale))
            pick = _residual_cost(reg_res) < _residual_cost(lor_res)
            res = np.where(pick.reshape((-1,) + (1,) * (work.ndim - 1)),
                           reg_res, lor_res)
            choose_reg = pick.reshape(n, nb)
        selectors = [zlib_compress(np.packbits(c).tobytes())
                     for c in choose_reg]
        # Only regression blocks need their coefficients.
        coeffs = [zlib_compress(np.ascontiguousarray(c[k], dtype="<f4"))
                  for c, k in zip(coef, choose_reg)]
        return res.reshape((n, -1)), padded_shape, selectors, coeffs

    # -- compression -------------------------------------------------------

    def compress(self, data: np.ndarray) -> bytes:
        """Compress an n-D float array to a self-describing byte string."""
        return self.compress_many([data])[0]

    def compress_many(self, arrays: Sequence[np.ndarray]) -> list[bytes]:
        """Compress each array; ``compress_many(xs)[i] == compress(xs[i])``.

        Arrays of one shape and dtype run through prediction as one
        batch (items on a leading axis, each with its own ``eps``), and
        every residual array is entropy-coded in one grouped pass.
        """
        t_start = time.perf_counter()
        items: list[tuple[np.ndarray, str]] = []
        for data in arrays:
            data = np.asarray(data)
            if data.dtype.newbyteorder("=") == np.float32:
                dtype_tag = "f4"
            elif data.dtype.newbyteorder("=") == np.float64:
                dtype_tag = "f8"
            else:
                data = data.astype(np.float64)
                dtype_tag = "f8"
            if data.ndim < 1 or data.ndim > 4:
                raise DataShapeError(
                    f"SZ supports 1-4 dimensions, got {data.ndim}")
            if data.size == 0:
                raise DataShapeError("cannot compress an empty array")
            items.append((data, dtype_tag))
        batches: dict[tuple[tuple[int, ...], str], list[int]] = {}
        for i, (data, dtype_tag) in enumerate(items):
            batches.setdefault((data.shape, dtype_tag), []).append(i)

        residuals: list[np.ndarray] = [np.empty(0)] * len(items)
        sections: list[list[bytes]] = [[]] * len(items)
        for (shape, dtype_tag), idx in batches.items():
            batch = (items[idx[0]][0][None] if len(idx) == 1
                     else np.stack([items[i][0] for i in idx]))
            eps = self._resolve_eps(batch, dtype_tag)
            mode = self.mode
            if mode == "auto" and len(shape) == 1:
                mode = "lorenzo"
            with span("sz.predict", bytes_in=int(batch.nbytes), mode=mode,
                      n_items=len(idx)):
                res, padded_shape, selectors, coeffs = self._predict(
                    batch, eps, mode)
            head = bytearray(encode_uvarint(_MODE_ID[mode]))
            head += dtype_tag.encode()
            tail = bytearray(encode_uvarint(self.block_size))
            tail += encode_uvarint(len(shape))
            for n in shape + padded_shape:
                tail += encode_uvarint(n)
            tail += encode_uvarint(self.alphabet)
            for j, i in enumerate(idx):
                meta = bytes(head) + struct.pack("<d", eps[j]) + bytes(tail)
                residuals[i] = res[j]
                sections[i] = [meta, selectors[j], coeffs[j]]

        with span("sz.encode", bytes_in=sum(r.nbytes for r in residuals),
                  n_items=len(items)) as sp:
            payloads = encode_residuals_many(residuals, self.alphabet)
            blobs = [pack_sections(_MAGIC, _VERSION, sec + [payload])
                     for sec, payload in zip(sections, payloads)]
            sp.add(bytes_out=sum(len(b) for b in blobs))
        share = (time.perf_counter() - t_start) / max(len(items), 1)
        for (data, _), blob in zip(items, blobs):
            counter_inc("sz.compress.runs")
            counter_inc("sz.compress.bytes_in", int(data.nbytes))
            counter_inc("sz.compress.bytes_out", len(blob))
            gauge_set("sz.last.cr", data.nbytes / max(len(blob), 1))
            observe("sz.compress.seconds", share)
        return blobs

    # -- decompression -----------------------------------------------------

    @staticmethod
    def decompress(blob: bytes) -> np.ndarray:
        """Decompress a container produced by :meth:`compress`."""
        t_start = time.perf_counter()
        counter_inc("sz.decompress.runs")
        counter_inc("sz.decompress.bytes_in", len(blob))
        meta, selectors, coeffs, payload = unpack_sections(
            blob, _MAGIC, _VERSION
        )
        mode_id, pos = decode_uvarint(meta, 0)
        mode = MODES[mode_id]
        dtype_tag = meta[pos : pos + 2].decode()
        pos += 2
        if dtype_tag not in _DTYPES:
            raise FormatError(f"unknown dtype tag {dtype_tag!r}")
        (eps,) = struct.unpack_from("<d", meta, pos)
        pos += 8
        block_size, pos = decode_uvarint(meta, pos)
        ndim, pos = decode_uvarint(meta, pos)
        shape = []
        for _ in range(ndim):
            n, pos = decode_uvarint(meta, pos)
            shape.append(n)
        padded_shape = []
        for _ in range(ndim):
            n, pos = decode_uvarint(meta, pos)
            padded_shape.append(n)
        alphabet, pos = decode_uvarint(meta, pos)
        shape_t = tuple(shape)
        padded_t = tuple(padded_shape)

        if mode == "lorenzo":
            with span("sz.decode", bytes_in=len(payload), mode=mode):
                count = int(np.prod(shape_t))
                residuals = decode_residuals(payload, count, alphabet)
            with span("sz.reconstruct", mode=mode):
                lattice = lorenzo_inverse(residuals.reshape(shape_t))
                out = lattice_dequantize(lattice, eps)
            observe("sz.decompress.seconds", time.perf_counter() - t_start)
            return out.astype(_DTYPES[dtype_tag])

        nb = int(np.prod([n // block_size for n in padded_t]))
        bshape = (nb,) + (block_size,) * ndim
        count = int(np.prod(bshape))
        with span("sz.decode", bytes_in=len(payload), mode=mode):
            residuals = decode_residuals(payload, count,
                                         alphabet).reshape(bshape)
        with span("sz.reconstruct", mode=mode):
            choose_reg = np.unpackbits(
                np.frombuffer(zlib_decompress(selectors), dtype=np.uint8)
            )[:nb].astype(bool)
            blocks = np.empty(bshape, dtype=np.float64)
            n_reg = int(choose_reg.sum())
            if n_reg:
                coef = np.frombuffer(zlib_decompress(coeffs),
                                     dtype="<f4")
                coef = coef.reshape(n_reg, 1 + ndim)
                pred = predict_blocks(coef, bshape[1:])
                blocks[choose_reg] = pred + lattice_dequantize(
                    residuals[choose_reg], eps
                )
            if n_reg < nb:
                lor = _block_lorenzo_inverse(residuals[~choose_reg])
                blocks[~choose_reg] = lattice_dequantize(lor, eps)
            out = _merge_blocks(blocks, padded_t, shape_t)
        observe("sz.decompress.seconds", time.perf_counter() - t_start)
        return out.astype(_DTYPES[dtype_tag])


def sz_compress(data: np.ndarray, eps: float | None = None, *,
                rel_eps: float | None = None, mode: str = "auto",
                block_size: int = 8) -> bytes:
    """One-call SZ compression; see :class:`SZCompressor`."""
    return SZCompressor(eps=eps, rel_eps=rel_eps, mode=mode,
                        block_size=block_size).compress(data)


def sz_compress_many(arrays: Sequence[np.ndarray], eps: float | None = None,
                     *, rel_eps: float | None = None, mode: str = "auto",
                     block_size: int = 8) -> list[bytes]:
    """Grouped :func:`sz_compress`: one payload per array, same bytes."""
    return SZCompressor(eps=eps, rel_eps=rel_eps, mode=mode,
                        block_size=block_size).compress_many(arrays)


def sz_decompress(blob: bytes) -> np.ndarray:
    """One-call SZ decompression."""
    return SZCompressor.decompress(blob)
