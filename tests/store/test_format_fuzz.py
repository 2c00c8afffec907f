"""Failure-injection tests for the ``dpzs`` on-disk format.

Truncate and mangle real store files at every layer -- header,
manifest, chunk payloads -- and require each read path to raise a
:class:`~repro.errors.ReproError` subclass (almost always
:class:`~repro.errors.FormatError`), never an ``IndexError`` /
``struct.error`` / silent garbage.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.sz import _MAGIC as SZ_MAGIC
from repro.baselines.sz import _VERSION as SZ_VERSION
from repro.codecs.container import pack_sections, unpack_sections
from repro.codecs.huffman import HuffmanTable
from repro.codecs.varint import decode_uvarint, encode_uvarint
from repro.errors import FormatError, ReproError
from repro.store import Store
from repro.store.format import (
    HEADER_SIZE,
    ChunkRef,
    FieldMeta,
    decode_manifest,
    encode_manifest,
    pack_header,
    unpack_header,
)


def _make_store(tmp_path, rng) -> str:
    path = tmp_path / "fuzz.dpzs"
    data = rng.normal(size=(12, 10)).astype(np.float32)
    with Store.create(path) as st:
        st.add("a", data, codec="raw", chunk_shape=(4, 4))
        st.add("b", (data * 2).astype(np.float32)[:6],
               codec="sz", chunk_shape=(4, 4), eps=1e-3)
    return str(path)


class TestHeader:
    def test_truncated_header(self):
        blob = pack_header(HEADER_SIZE, 10)
        for cut in range(HEADER_SIZE):
            with pytest.raises(FormatError, match="truncated"):
                unpack_header(blob[:cut])

    def test_bad_magic_and_version(self):
        blob = pack_header(HEADER_SIZE, 10)
        with pytest.raises(FormatError, match="magic"):
            unpack_header(b"NOPE" + blob[4:])
        with pytest.raises(FormatError, match="version"):
            unpack_header(blob[:4] + b"\x09" + blob[5:])

    def test_offset_inside_header_rejected(self):
        with pytest.raises(FormatError, match="inside the header"):
            unpack_header(pack_header(3, 10))


class TestManifest:
    def _meta(self) -> FieldMeta:
        return FieldMeta(
            name="f", codec_label="raw", dtype_tag="f4",
            shape=(8, 8), chunk_shape=(4, 4), original_nbytes=256,
            error_budget=None,
            chunks=[ChunkRef(offset=HEADER_SIZE + 9 * i, length=9,
                             codec="raw") for i in range(4)])

    def test_roundtrip(self):
        fields = decode_manifest(encode_manifest([self._meta()]))
        assert len(fields) == 1
        m = fields[0]
        assert (m.name, m.shape, m.chunk_shape) == ("f", (8, 8), (4, 4))
        assert len(m.chunks) == 4

    def test_chunk_count_grid_mismatch_rejected(self):
        meta = self._meta()
        meta.chunks.pop()
        with pytest.raises(FormatError, match="chunks"):
            decode_manifest(encode_manifest([meta]))

    def test_duplicate_field_names_rejected(self):
        blob = encode_manifest([self._meta(), self._meta()])
        with pytest.raises(FormatError, match="repeats"):
            decode_manifest(blob)

    @given(st.data())
    @settings(max_examples=100)
    def test_truncation_fuzz(self, data):
        blob = encode_manifest([self._meta()])
        cut = data.draw(st.integers(0, len(blob) - 1))
        with pytest.raises(ReproError):
            decode_manifest(blob[:cut])

    @given(st.data())
    @settings(max_examples=100)
    def test_byte_flip_fuzz(self, data):
        blob = bytearray(encode_manifest([self._meta()]))
        pos = data.draw(st.integers(0, len(blob) - 1))
        flip = data.draw(st.integers(1, 255))
        blob[pos] ^= flip
        try:
            fields = decode_manifest(bytes(blob))
        except ReproError:
            return
        # A surviving flip must still yield structurally sane metadata
        # (it may have changed offsets/sizes -- those fail at read).
        for m in fields:
            assert len(m.shape) == len(m.chunk_shape)


@pytest.fixture(scope="module")
def store_blob(tmp_path_factory) -> bytes:
    rng = np.random.default_rng(99)
    path = _make_store(tmp_path_factory.mktemp("fz"), rng)
    with open(path, "rb") as fh:
        return fh.read()


class TestWholeFileFuzz:
    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_truncated_file_never_leaks(self, store_blob,
                                        tmp_path_factory, data):
        cut = data.draw(st.integers(0, len(store_blob) - 1))
        trunc = tmp_path_factory.mktemp("fz") / "t.dpzs"
        trunc.write_bytes(store_blob[:cut])
        with pytest.raises(ReproError):
            store = Store.open(trunc)
            for name in store.names():
                store.get(name)

    def test_payload_corruption_caught_at_read(self, tmp_path, rng):
        path = _make_store(tmp_path, rng)
        st = Store.open(path)
        ref = st._fields["b"].chunks[0]
        blob = bytearray(open(path, "rb").read())
        for i in range(ref.offset, ref.offset + ref.length):
            blob[i] ^= 0xFF
        open(path, "wb").write(bytes(blob))
        reopened = Store.open(path)  # manifest is intact
        with pytest.raises(FormatError):
            reopened.get("b")
        # The undamaged field still reads fine.
        assert reopened.get("a").shape == (12, 10)

    def test_forged_huffman_count_is_one_line_format_error(self, tmp_path,
                                                           rng):
        """An sz chunk whose residual Huffman header claims 2**40
        symbols fails the read with a one-line FormatError instead of
        asking numpy for terabytes."""
        path = tmp_path / "forged.dpzs"
        data = rng.normal(size=(8, 8, 8)).astype(np.float32)
        with Store.create(path) as st:
            st.add("f", data, codec="sz", chunk_shape=8, eps=1e-3)
        ref = Store.open(path)._fields["f"].chunks[0]
        blob = bytearray(path.read_bytes())
        payload = bytes(blob[ref.offset:ref.offset + ref.length])
        *head, res = unpack_sections(payload, SZ_MAGIC, SZ_VERSION)
        _, pos = decode_uvarint(res, 0)
        _, pos = HuffmanTable.from_bytes(res, pos)
        _, bits = decode_uvarint(res, pos)
        count = encode_uvarint(2 ** 40)
        # Same section length: drop as many bitstream bytes as the
        # longer count adds, so the manifest still matches.
        grow = len(count) - (bits - pos)
        res = res[:pos] + count + res[bits + grow:]
        forged = pack_sections(SZ_MAGIC, SZ_VERSION, [*head, res])
        assert len(forged) == len(payload)
        blob[ref.offset:ref.offset + ref.length] = forged
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError) as err:
            Store.open(path).get("f")
        msg = str(err.value)
        assert "\n" not in msg
        assert "claims 1099511627776 symbols" in msg

    def test_chunk_decoding_to_wrong_shape_rejected(self, tmp_path, rng):
        # Swap two payloads of *different* chunk geometry: the decoded
        # shape check must catch the mismatch even though each payload
        # is itself a valid container.
        data = rng.normal(size=(10, 4)).astype(np.float32)
        path = tmp_path / "s.dpzs"
        with Store.create(path) as st:
            st.add("f", data, codec="raw", chunk_shape=(4, 4))
        st = Store.open(path)
        refs = st._fields["f"].chunks
        full, edge = refs[0], refs[2]  # 4x4 vs 2x4 edge chunk
        blob = bytearray(open(path, "rb").read())
        payload_edge = bytes(blob[edge.offset:edge.offset + edge.length])
        blob[full.offset:full.offset + len(payload_edge)] = payload_edge
        open(path, "wb").write(bytes(blob))
        with pytest.raises(ReproError):
            Store.open(path).get("f")
