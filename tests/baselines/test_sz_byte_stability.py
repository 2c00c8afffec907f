"""Byte stability of the SZ encoder and of ``sz`` store packs.

The digests below were recorded from the per-chunk encoder that
predates the grouped one (heap tree build, per-bit writer, one chunk
per call).  The grouped encoder must reproduce every payload byte for
byte: for each prediction mode, dtype and bound kind of
:func:`sz_compress`, and for a chunked ``Store.add`` whose shape
leaves partial edge chunks -- for any ``n_jobs`` and any group size.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

import repro.store.store as store_mod
from repro.baselines.sz import SZCompressor, sz_compress, sz_compress_many
from repro.observability import Tracer, metrics_snapshot, use_tracer
from repro.observability.metrics import get_registry
from repro.store import MemoryStore, Store
from repro.store.chunking import iter_chunks


def _field(shape: tuple[int, ...], seed: int) -> np.ndarray:
    """Smooth random walk with sparse spikes (they hit the escape path)."""
    rng = np.random.default_rng(seed)
    x = np.cumsum(rng.standard_normal(shape), axis=0)
    x += 0.5 * np.cumsum(rng.standard_normal(shape), axis=-1)
    x.flat[::97] += 400.0
    return x


def _digest(blob: bytes) -> str:
    return hashlib.blake2b(blob, digest_size=16).hexdigest()


def _backend_digest(mem: MemoryStore) -> str:
    h = hashlib.blake2b(digest_size=16)
    for key in sorted(mem):
        h.update(key.encode())
        h.update(mem[key])
    return h.hexdigest()


SZ_DIGESTS = {
    ("lorenzo", "f4", "eps"): "04bff73a799180764cdb0e4deffbc153",
    ("lorenzo", "f4", "rel_eps"): "1364f70158c31939df9f63b7a918f7ea",
    ("lorenzo", "f8", "eps"): "ffcb0966ef102b8041d5f5e6d8639af6",
    ("lorenzo", "f8", "rel_eps"): "6adff5cf43fa06ddbb151e48b80c9d26",
    ("regression", "f4", "eps"): "4179d4dc8df486ef8efd6a4b71c73621",
    ("regression", "f4", "rel_eps"): "d1f0fce526425c68c331646aa375f6d9",
    ("regression", "f8", "eps"): "f3bd54da27356656f2f061217563c048",
    ("regression", "f8", "rel_eps"): "f3cac924806ed69e32589ead53d46353",
    ("auto", "f4", "eps"): "0fd016164ea728c4c6e443df7a57bef4",
    ("auto", "f4", "rel_eps"): "302c939aa401767bf820322172c74e51",
    ("auto", "f8", "eps"): "8851e9f6f2b2881d4111b3e7f63a4cf2",
    ("auto", "f8", "rel_eps"): "8aeda6c39112a8211acdb7fce52e8080",
}

BOUNDS = {"eps": {"eps": 1e-3}, "rel_eps": {"rel_eps": 1e-4}}

#: (dtype, Store.add keywords) -> backend digest of a (45, 37, 29)
#: field in 16^3 chunks: 18 chunks in 8 distinct shapes.
STORE_DIGESTS = {
    "f4": ({"eps": 1e-3}, "667504fcec9386c9656dc498cc0e816d"),
    "f8": ({"rel_eps": 1e-4, "mode": "lorenzo"},
           "fa781af194f7cb88224d0711852b11d8"),
}


@pytest.fixture(scope="module")
def small_field() -> np.ndarray:
    return _field((23, 19, 14), 1313)


@pytest.fixture(scope="module")
def store_field() -> np.ndarray:
    return _field((45, 37, 29), 2024)


def _pack(field: np.ndarray, dtype: str, n_jobs: int) -> MemoryStore:
    kwargs, _ = STORE_DIGESTS[dtype]
    mem = MemoryStore()
    with Store.create(mem) as st:
        st.add("f", field.astype(dtype), codec="sz", chunk_shape=16,
               n_jobs=n_jobs, **kwargs)
    return mem


@pytest.mark.parametrize("key", sorted(SZ_DIGESTS))
def test_sz_compress_digest(small_field, key):
    mode, dtype, bound = key
    blob = sz_compress(small_field.astype(dtype), mode=mode, **BOUNDS[bound])
    assert _digest(blob) == SZ_DIGESTS[key]


@pytest.mark.parametrize("bound", sorted(BOUNDS))
def test_compress_many_mixed_list_matches_one_at_a_time(small_field,
                                                        bound):
    # Shapes, dtypes and ndims interleave; each item keeps its own eps.
    items = [small_field.astype("f4"), small_field[:9].astype("f8"),
             small_field[:, :7, 2], (small_field * 3).astype("f4"),
             small_field[5, 3], small_field[:9] + 50.0,
             np.full((4, 5), 2.5)]
    comp = SZCompressor(**BOUNDS[bound])
    assert comp.compress_many(items) == [comp.compress(x) for x in items]
    assert sz_compress_many(items, **BOUNDS[bound]) == \
        [sz_compress(x, **BOUNDS[bound]) for x in items]


def test_compress_many_empty_list():
    assert SZCompressor(eps=1e-3).compress_many([]) == []


@pytest.mark.parametrize("dtype", sorted(STORE_DIGESTS))
@pytest.mark.parametrize("n_jobs", [1, 2, 4])
def test_store_pack_digest_any_n_jobs(store_field, dtype, n_jobs):
    mem = _pack(store_field, dtype, n_jobs)
    assert _backend_digest(mem) == STORE_DIGESTS[dtype][1]


@pytest.mark.parametrize("limit", [1, 3, 3 * 16 ** 3,
                                   store_mod._GROUP_ELEMENTS])
def test_store_pack_digest_any_group_size(store_field, monkeypatch, limit):
    monkeypatch.setattr(store_mod, "_GROUP_ELEMENTS", limit)
    for dtype, (_, digest) in STORE_DIGESTS.items():
        assert _backend_digest(_pack(store_field, dtype, 2)) == digest


def test_chunk_groups_same_shape_bounded_in_index_order():
    shapes = [(2, 4), (2, 4), (2, 3), (2, 4), (2, 4), (2, 3), (2, 4)]
    assert store_mod._chunk_groups(shapes, 3 * 8) == \
        [[0, 1, 3], [2, 5], [4, 6]]
    assert store_mod._chunk_groups(shapes, 1) == [[i] for i in range(7)]


@pytest.mark.parametrize("n_jobs", [1, 2])
def test_pack_telemetry_per_chunk(store_field, n_jobs):
    """One chunk-seconds observation and one sz run per chunk, and one
    ``huffman.encode`` span per chunk group."""
    get_registry().clear()
    with use_tracer(Tracer()) as tracer:
        _pack(store_field, "f4", n_jobs)
    snap = metrics_snapshot()
    n_chunks = 18
    assert snap["counters"]["store.chunks.compressed"] == n_chunks
    assert snap["counters"]["sz.compress.runs"] == n_chunks
    assert snap["histograms"]["store.chunk.compress.seconds"]["count"] \
        == n_chunks
    assert snap["histograms"]["sz.compress.seconds"]["count"] == n_chunks
    assert snap["histograms"]["huffman.encode.symbols_per_call"]["count"] \
        == n_chunks
    spans = [s for s in tracer.spans if s.name == "huffman.encode"]
    shapes = [tuple(sl.stop - sl.start for sl in sls)
              for _, sls in iter_chunks(store_field.shape, (16, 16, 16))]
    assert len(shapes) == n_chunks
    assert sorted(s.meta["n_streams"] for s in spans) == \
        sorted(len(g) for g in
               store_mod._chunk_groups(shapes, store_mod._GROUP_ELEMENTS))
    # Block prediction pads every chunk to whole 8^3 blocks.
    padded = sum(int(np.prod([-(-n // 8) * 8 for n in shape]))
                 for shape in shapes)
    assert sum(s.meta["n_symbols"] for s in spans) == padded
