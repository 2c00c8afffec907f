"""The three workloads: what each sets up, runs and checks.

Every input is generated from ``--seed``; the program sees only the
arrays and requests.  Each workload class has ``setup`` (timed into
``setup_s``), ``measure`` (one part's samples of the untraced run,
which ``run.py`` pools over the parts into the end-to-end metrics),
``layers`` (the traced run's per-layer metrics) and ``close``.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import math
import time
import urllib.parse
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

from repro.analysis.metrics import psnr
from repro.codecs.registry import codec_functions
from repro.core.compressor import DPZCompressor
from repro.core.config import DPZ_L
from repro.core.decompose import decompose
from repro.core.stream import deserialize
from repro.datasets import climate, cosmology, turbulence
from repro.serve import ServeApp, StoreRegistry
from repro.serve.protocol import encode_region_frame, format_slices, \
    parse_target
from repro.store import ByteStore, MemoryStore, Store, resolve_backend
from repro.store.backends import chunk_key
from repro.store.cache import DEFAULT_CACHE_BYTES
from repro.store.chunking import chunk_index, grid_shape

import stats
from loadgen import body_digest
from procs import Generator, Server
from worker import (Tally, Tracing, counter_delta, counters, over_after,
                     peak_rss_mb, self_time_by_name, sub_seed,
                     tracing_overhead_pct)

#: The store's field: Isotropic at the full preset.
EDGE = 128
FIELD = "iso"
#: SZ chunk codec settings of the ingest and read workloads.
EPS = 1e-3
SZ_CHUNK = 16
DPZ_CHUNK = 32
N_JOBS = 2
#: The cold-read cache: an eighth of the 8 MiB decoded field.
COLD_CACHE = EDGE ** 3 * 4 // 8
#: Reads per block of ``cold_regions``: 25 cubes and 5 slabs.
COLD_BLOCK = 30
#: Serving: worker threads, the fixed offered rate and the latency
#: limit of the capacity search.
WORKERS = 2
FIXED_RATE = 500.0
#: Requests per window of the windowed p99 (the fewest that put ten
#: samples beyond it).
WINDOW = 1000
LIMIT_S = 0.010
#: How often the traced run samples the server's queue depth.
POLL_S = 0.1
#: The serving request mix.  The zipf exponent is the one
#: ``benchmarks/bench_serve.py`` uses.  The unaligned share, the
#: number of distinct unaligned cubes and their edges are assumed, not
#: taken from measured traffic: no access log exists for this program.
ZIPF_S = 1.2
UNALIGNED_SHARE = 0.1
N_UNALIGNED = 64
UNALIGNED_EDGES = (16, 24)


def small_fields(seed: int) -> dict[str, np.ndarray]:
    """The three small-preset fields of the DPZ whole-field part."""
    return {
        "Isotropic": turbulence.isotropic(
            (64, 64, 64), seed=sub_seed(seed, "Isotropic-64")),
        "FLDSC": climate.fldsc((450, 900), seed=sub_seed(seed, "FLDSC")),
        "HACC-x": cosmology.hacc_x(2 ** 18, seed=sub_seed(seed, "HACC-x")),
    }


def big_field(seed: int) -> np.ndarray:
    return turbulence.isotropic((EDGE,) * 3,
                                seed=sub_seed(seed, "Isotropic-128"))


def dpz_error_budget(field: np.ndarray, recon: np.ndarray,
                     blob: bytes) -> tuple[float, float, float]:
    """Squared error of a DPZ_L round trip, the most its TVE target
    allows, and the block energy, all in the compressor's own domain.

    DPZ scales the field to [-0.5, 0.5], cuts it into blocks (padding
    by edge replication), applies an orthonormal DCT to each, and keeps
    the leading ``k`` components of an uncentered PCA that together
    hold at least ``tve`` of the energy; each kept score is then
    quantized to within ``p * score_scale``.  The truncation residual
    is orthogonal to the kept basis and the quantization error lies
    inside it, so the error is at most ``1 - tve`` of the block energy
    plus ``n_points * k * (p * score_scale) ** 2``, read from the
    archive header.
    """
    x = field.astype(np.float64)
    lo = float(x.min())
    scale = float(x.max()) - lo or 1.0
    blocks, _ = decompose((x - lo) / scale - 0.5, DPZ_L.max_ratio)
    energy = float(np.sum(blocks * blocks))
    err = float(np.sum(((recon.astype(np.float64) - x) / scale) ** 2))
    head = deserialize(blob)
    quant = head.n_points * head.k * (head.p * head.score_scale) ** 2
    return err, (1.0 - DPZ_L.tve) * energy + quant, energy


def pack_sz(target: Any, field: np.ndarray) -> Store:
    store = Store.create(target)
    with store:
        store.add(FIELD, field, codec="sz", eps=EPS, chunk_shape=SZ_CHUNK,
                  n_jobs=N_JOBS)
    return store


def pack_dpz(target: Any, field: np.ndarray, n_jobs: int = N_JOBS) -> Store:
    store = Store.create(target)
    with store:
        store.add(FIELD, field, codec="dpz", chunk_shape=DPZ_CHUNK,
                  n_jobs=n_jobs)
    return store


def backend_digest(backend: ByteStore) -> str:
    h = hashlib.blake2b(digest_size=16)
    for key in sorted(backend):
        h.update(key.encode())
        h.update(backend[key])
    return h.hexdigest()


class TimedBackend(ByteStore):
    """Times every read of the byte store it wraps.

    ``Store.open`` accepts any :class:`ByteStore`, which makes this the
    public seam for measuring storage reads.
    """

    def __init__(self, inner: ByteStore) -> None:
        self.inner = inner
        self.framed = inner.framed
        self.backend_id = inner.backend_id
        self.seconds = 0.0

    def __getitem__(self, key: str) -> bytes:
        t0 = time.perf_counter()
        value = self.inner[key]
        self.seconds += time.perf_counter() - t0
        return value

    def __setitem__(self, key: str, value: bytes) -> None:
        self.inner[key] = value

    def __delitem__(self, key: str) -> None:
        del self.inner[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self.inner)

    @property
    def location(self) -> str:
        return self.inner.location

    def close(self) -> None:
        self.inner.close()


def cube(rng: np.random.Generator, edge: int) -> tuple[slice, ...]:
    lo = rng.integers(0, EDGE - edge + 1, size=3)
    return tuple(slice(int(a), int(a) + edge) for a in lo)


def _start(rng: np.random.Generator, phase: int, length: int) -> int:
    """A start ``phase`` cells past a random chunk boundary, leaving
    room for ``length`` cells."""
    base = int(rng.integers(0, (EDGE - length - phase) // SZ_CHUNK + 1))
    return base * SZ_CHUNK + phase


def cold_regions(seed: int, n: int, part: int = 0
                 ) -> list[tuple[Any, ...]]:
    """Unaligned cubes of edge 8..32 and one-plane 64x64 slabs.

    Reads come in blocks of 25 cubes and 5 slabs.  In a block the cube
    edges are 8..32 once each, and each edge meets the same offset from
    a chunk boundary (1..15) on each axis in every block, so every
    block decodes the same sizes and chunk counts (a slab always spans
    5x5 chunks); the seed picks where, and in what order.  The
    five-to-one ratio of cubes to slabs is assumed, not taken from
    measured traffic.  Each ``part`` of a run reads its own sequence.
    """
    rng = np.random.default_rng(sub_seed(seed, f"cold_read-{part}"))
    out: list[tuple[Any, ...]] = []
    phases = 1 + np.arange(25) % (SZ_CHUNK - 1)
    px, py, pz = phases, np.roll(phases, 8), np.roll(phases, 16)
    while len(out) < n:
        block: list[tuple[Any, ...]] = [
            tuple(slice(s, s + e) for s in (
                _start(rng, int(a), e) for a in (x, y, z)))
            for e, x, y, z in zip(range(8, 33), px, py, pz)]
        for a, b in zip(rng.permutation(phases)[:5],
                        rng.permutation(phases)[:5]):
            sel: list[Any] = [slice(s, s + 64) for s in (
                _start(rng, int(a), 64), _start(rng, int(b), 64))]
            sel.insert(int(rng.integers(0, 3)), int(rng.integers(0, EDGE)))
            block.append(tuple(sel))
        out.extend(block[i] for i in rng.permutation(len(block)))
    return out[:n]


def region_path(region: tuple[Any, ...]) -> str:
    return (f"/v1/stores/{FIELD}/fields/{FIELD}/region?slices="
            + urllib.parse.quote(format_slices(region), safe=":,-"))


class Workload:
    def __init__(self, args: Any, tally: Tally, tracing: Tracing) -> None:
        self.seed: int = args.seed
        #: The traced run's measuring time, and one part's share of it
        #: in the untraced run.
        self.seconds: float = args.seconds
        self.part: int = args.part
        self.part_seconds: float = args.seconds / args.parts
        self.out: Path = args.out
        self.root = Path.cwd()
        self.tally = tally
        self.tracing = tracing
        #: Sample counts and other context written to the run record.
        self.details: dict[str, Any] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def measure(self) -> dict[str, Any]:
        """Measure for ``part_seconds``: lists of samples, pooled over
        the parts, and single values, of which the median is taken."""
        raise NotImplementedError

    def layers(self) -> dict[str, float]:
        raise NotImplementedError

    def close(self) -> None:
        pass


# -- ingest -------------------------------------------------------------------

class Ingest(Workload):
    """The write path: DPZ whole-field compress/decompress of the three
    small fields, and ``Store.add`` of the 128^3 field with ``sz`` and
    with ``dpz``, both at ``n_jobs=2``."""

    #: DPZ rounds (three fields each) per pack round.
    DPZ_PER_PACK = 12
    #: Pack rounds of a run or part, at least.
    MIN_PACKS = 3

    def setup(self) -> None:
        self.fields = small_fields(self.seed)
        self.big = big_field(self.seed)
        self.comp = DPZCompressor(DPZ_L)
        t0 = time.perf_counter()
        self.comp.compress_with_stats(self.fields["Isotropic"])
        self.first_compress_ms = (time.perf_counter() - t0) * 1e3
        self.blobs: dict[str, bytes] = {}
        self.recons: dict[str, np.ndarray] = {}
        self.pack_digests: dict[str, str] = {}
        #: The first pack round's stores and their compression ratios.
        self.stores: dict[str, MemoryStore] = {}
        self.store_cr: dict[str, float] = {}

    def dpz_round(self) -> tuple[float, float]:
        """Compress and decompress every small field once, checked."""
        tc = td = 0.0
        for name, field in self.fields.items():
            with self.tracing.request("bench.compress", field=name):
                t0 = time.perf_counter()
                blob, _ = self.comp.compress_with_stats(field)
                tc += time.perf_counter() - t0
            with self.tracing.request("bench.decompress", field=name):
                t0 = time.perf_counter()
                recon = DPZCompressor.decompress(blob)
                td += time.perf_counter() - t0
            first = self.blobs.setdefault(name, blob)
            self.recons.setdefault(name, recon)
            self.tally.check(blob == first,
                             f"{name}: compressed bytes differ on repeat")
            if recon.shape != field.shape:
                self.tally.check(False, f"{name}: decompressed shape "
                                 f"{recon.shape}")
                continue
            # Float32 rounding of the basis and the output is far
            # below the 1e-6 of the energy allowed for it.
            err, allowed, energy = dpz_error_budget(field, recon, blob)
            self.tally.check(err <= allowed + 1e-6 * energy,
                             f"{name}: squared error {err} exceeds the "
                             f"{allowed} the TVE target allows")
        return tc, td

    def pack_round(self, n_jobs: int = N_JOBS) -> float:
        """``Store.add`` with sz and with dpz into memory; seconds."""
        mem_sz, mem_dpz = MemoryStore(), MemoryStore()
        t0 = time.perf_counter()
        with self.tracing.request("bench.pack", codec="sz"):
            sz = pack_sz(mem_sz, self.big)
        with self.tracing.request("bench.pack", codec="dpz"):
            dpz = pack_dpz(mem_dpz, self.big, n_jobs)
        dt = time.perf_counter() - t0
        for codec, mem, store in (("sz", mem_sz, sz), ("dpz", mem_dpz, dpz)):
            digest = backend_digest(mem)
            first = self.pack_digests.setdefault(codec, digest)
            self.tally.check(digest == first,
                             f"{codec} store bytes differ on repeat")
            self.stores.setdefault(codec, mem)
            self.store_cr.setdefault(codec, store.total_cr())
        return dt

    def run(self, seconds: float, min_packs: int) -> dict[str, list[Any]]:
        rounds: dict[str, list[Any]] = {"dpz": [], "pack": []}
        over = over_after(seconds)
        while not over() or len(rounds["pack"]) < min_packs:
            for _ in range(self.DPZ_PER_PACK):
                rounds["dpz"].append(self.dpz_round())
            rounds["pack"].append(self.pack_round())
        return rounds

    def check_stores(self) -> list[float]:
        """Every sz chunk meets abs error <= eps over the whole field;
        returns the PSNR of both stores' whole fields."""
        out = []
        for codec, mem in self.stores.items():
            recon = Store.open(mem, cache_bytes=0).get(FIELD)
            if codec == "sz":
                err = float(np.max(np.abs(recon.astype(np.float64)
                                          - self.big)))
                self.tally.check(err <= EPS * (1 + 1e-6),
                                 f"sz store max abs error {err} > {EPS}")
            out.append(psnr(self.big, recon))
        return out

    def measure(self) -> dict[str, Any]:
        rounds = self.run(self.part_seconds, self.MIN_PACKS)
        rss = peak_rss_mb()
        self.details.update(dpz_rounds=len(rounds["dpz"]),
                            pack_rounds=len(rounds["pack"]))
        store_psnr = self.check_stores()
        mb = sum(f.nbytes for f in self.fields.values()) / 1e6
        trips = [c + d for c, d in rounds["dpz"]]
        ratios = [f.nbytes / len(self.blobs[n])
                  for n, f in self.fields.items()]
        ratios += self.store_cr.values()
        return {
            "rss_mb": rss,
            "latency_s": trips,
            "work_mb": ([2 * mb] * len(trips)
                        + [2 * self.big.nbytes / 1e6] * len(rounds["pack"])),
            "work_s": trips + rounds["pack"],
            "cr": float(np.exp(np.mean(np.log(ratios)))),
            "psnr_db": min([psnr(self.fields[n], self.recons[n])
                            for n in self.fields] + store_psnr),
        }

    def layers(self) -> dict[str, float]:
        before = counters()
        with self.tracing.active():
            rounds = self.run(self.seconds, self.MIN_PACKS)
            # The solver counters of the whole-field compresses alone:
            # the dpz pack fits PCA too.
            c0 = counters()
            for _ in range(self.DPZ_PER_PACK):
                self.dpz_round()
            dpz_counts = counter_delta(c0, counters())
        pack_counts = counter_delta(before, c0)
        self.check_stores()
        n_dpz = len(rounds["dpz"])
        n_pack = len(rounds["pack"])
        recs = self.tracing.records()
        comp = self_time_by_name(recs, "bench.compress")
        decomp = self_time_by_name(recs, "bench.decompress")
        pack = self_time_by_name(recs, "bench.pack")
        out: dict[str, float] = {}
        for stage in ("decompose", "dct", "sampling", "pca", "quantize",
                      "encode"):
            out[f"core.{stage}_s"] = comp.get("dpz." + stage, 0.0) / (
                n_dpz + self.DPZ_PER_PACK)
        for stage in ("deserialize", "dequantize", "inverse_pca",
                      "inverse_transform"):
            out[f"core.{stage}_s"] = decomp.get("dpz." + stage, 0.0) / (
                n_dpz + self.DPZ_PER_PACK)
        out["core.first_compress_ms"] = self.first_compress_ms
        for solver in ("dense", "randomized", "regrows", "fallbacks"):
            out[f"pca.solver.{solver}"] = dpz_counts.get(
                "pca.solver." + solver, 0) / self.DPZ_PER_PACK
        out["codecs.huffman_encode_s"] = pack.get("huffman.encode",
                                                  0.0) / n_pack
        adds = [r["dur"] for r in recs if r["name"] == "store.add"]
        out["store.add_s"] = sum(adds) / len(adds)
        decisions = sum(pack_counts.get("store.basis." + k, 0)
                        for k in ("fits", "refits", "reuses"))
        out["store.basis.reuse_ratio"] = (
            pack_counts.get("store.basis.reuses", 0) / decisions)
        busy = sum(r["dur"] for r in recs if r["name"] == "parallel.chunk"
                   and r.get("request") == "bench.pack")
        capacity = sum(r["dur"] * r["workers"] for r in recs
                       if r["name"] == "parallel.map"
                       and r.get("request") == "bench.pack"
                       and not r["serial"])
        out["parallel.busy_ratio"] = busy / capacity
        out["parallel.map.bypassed"] = pack_counts.get(
            "parallel.map.bypassed", 0) / n_pack
        serial, pooled = [], []
        for _ in range(2):
            serial.append(self.pack_round(n_jobs=1))
            pooled.append(self.pack_round())
        out["parallel.pack_speedup"] = (stats.median(serial)
                                        / stats.median(pooled))
        out["observability.tracing_overhead_pct"] = tracing_overhead_pct(
            self.dpz_round, self.tracing, reps=8)
        return out


# -- cold_read ----------------------------------------------------------------

class ColdRead(Workload):
    """One in-process caller reading seeded unaligned cubes and slabs
    from the 128^3 sz store through a cache an eighth of the field."""

    #: Reads of the traced run, and of one part of the untraced run,
    #: at least.
    MIN_READS = stats.min_samples(90.0)
    MIN_PART_READS = 2 * COLD_BLOCK

    def setup(self) -> None:
        self.big = big_field(self.seed)
        self.path = self.out / "iso.dpzs"
        self.path.unlink(missing_ok=True)
        store = pack_sz(self.path, self.big)
        self.reference = Store.open(self.path, cache_bytes=0).get(FIELD)
        self.cr = store.total_cr()
        self.psnr_db = psnr(self.big, self.reference)
        self.regions = cold_regions(self.seed, 3000, self.part)

    def run(self, seconds: float, min_reads: int
            ) -> tuple[list[float], list[int], TimedBackend]:
        backend = TimedBackend(resolve_backend(self.path))
        store = Store.open(backend, cache_bytes=COLD_CACHE)
        lat: list[float] = []
        nbytes: list[int] = []
        over = over_after(seconds)
        for region in self.regions:
            # Whole blocks only, so every run reads the same size mix.
            if (over() and len(lat) >= min_reads
                    and len(lat) % COLD_BLOCK == 0):
                break
            with self.tracing.request("bench.read"):
                t0 = time.perf_counter()
                out = store.get_region(FIELD, region)
                lat.append(time.perf_counter() - t0)
            ref = self.reference[region]
            self.tally.check(
                out.dtype == ref.dtype and np.array_equal(out, ref),
                f"region {region} differs from the reference")
            nbytes.append(out.nbytes)
        return lat, nbytes, backend

    def measure(self) -> dict[str, Any]:
        lat, nbytes, _ = self.run(self.part_seconds, self.MIN_PART_READS)
        self.details.update(reads=len(lat))
        return {"rss_mb": peak_rss_mb(), "latency_s": lat,
                "work_mb": [b / 1e6 for b in nbytes], "work_s": lat,
                "cr": self.cr, "psnr_db": self.psnr_db}

    def layers(self) -> dict[str, float]:
        before = counters()
        with self.tracing.active():
            lat, sizes, backend = self.run(self.seconds, self.MIN_READS)
            delta = counter_delta(before, counters())
        n = len(lat)
        nbytes = sum(sizes)
        recs = self.tracing.records()
        selfs = self_time_by_name(recs, "bench.read")
        decodes = [r for r in recs if r["name"] == "huffman.decode"]
        regions = [r for r in recs if r["name"] == "store.region"]
        hits = delta.get("store.cache.hits", 0)
        misses = delta.get("store.cache.misses", 0)
        fixed = self.regions[:8]
        cold = Store.open(self.path, cache_bytes=0)

        def read_fixed() -> None:
            for region in fixed:
                cold.get_region(FIELD, region)

        return {
            "codecs.huffman_decode_s": selfs.get("huffman.decode", 0.0) / n,
            "codecs.huffman_symbols_per_s": (
                sum(r["n_symbols"] for r in decodes)
                / sum(r["dur"] for r in decodes)),
            "sz.decode_s": selfs.get("sz.decode", 0.0) / n,
            "sz.reconstruct_s": selfs.get("sz.reconstruct", 0.0) / n,
            "store.backend.read_s": backend.seconds / n,
            "store.chunks_per_read": (sum(r["n_chunks"] for r in regions)
                                      / len(regions)),
            "store.amplification": delta.get("store.bytes.decoded",
                                             0) / nbytes,
            "store.cache.hit_ratio": hits / (hits + misses),
            "store.cache.evictions": delta.get("store.cache.evictions",
                                               0) / n,
            "read_p90_ms": stats.tail(lat, 90) * 1e3,
            "observability.tracing_overhead_pct": tracing_overhead_pct(
                read_fixed, self.tracing, reps=3),
        }


# -- serve_hot ----------------------------------------------------------------

class ServeHot(Workload):
    """``dpz serve --workers 2`` in its own process, its default cache
    warm with the whole field, under zipf-skewed open-loop load from a
    separate generator process at a fixed offered rate, then the same
    mix in a closed loop for throughput; the traced run adds the
    capacity ramp and the ladder."""

    RAMP_START = 1000.0
    RAMP_FACTOR = 1.25
    RAMP_MAX_STEPS = 16
    #: Requests per ramp step: three p99 windows.
    STEP_REQUESTS = 3 * WINDOW
    #: Requests of one part's closed-loop throughput pass.
    CLOSED_REQUESTS = 3000
    LADDER_REGIONS = 32

    def setup(self) -> None:
        self.server: Server | None = None
        self.gen: Generator | None = None
        self.depths: list[float] = []
        big = big_field(self.seed)
        self.path = self.out / "iso.dpzs"
        self.path.unlink(missing_ok=True)
        pack_sz(self.path, big)
        self.server = Server(self.root, f"{FIELD}={self.path}", WORKERS)
        self.gen = Generator()
        rng = np.random.default_rng(sub_seed(self.seed, "serve_hot"))
        n = EDGE // SZ_CHUNK
        aligned = [tuple(slice(c * SZ_CHUNK, (c + 1) * SZ_CHUNK)
                         for c in (i, j, k))
                   for i in range(n) for j in range(n) for k in range(n)]
        # Zipf popularity over a seeded ranking of the chunks.
        self.aligned = [aligned[i] for i in rng.permutation(len(aligned))]
        weights = np.arange(1, len(aligned) + 1, dtype=float) ** -ZIPF_S
        self.zipf = weights / weights.sum()
        unaligned = []
        while len(unaligned) < N_UNALIGNED:
            lo, hi = UNALIGNED_EDGES
            region = cube(rng, int(rng.integers(lo, hi + 1)))
            if any(s.start % SZ_CHUNK for s in region):
                unaligned.append(region)
        self.pool = self.aligned + unaligned
        self.rng = np.random.default_rng(
            sub_seed(self.seed, f"serve_hot-requests-{self.part}"))
        self.server.wait_ready()
        self.gen.call({"op": "target", "host": self.server.host,
                       "port": self.server.port,
                       "paths": [region_path(r) for r in self.pool]})
        # Warm the server's cache with every chunk while the expected
        # response bodies are computed in this process.
        self.gen.send({"op": "closed", "seq": list(range(len(self.pool))),
                       "conns": 2})
        local = Store.open(self.path)
        arrays = [local.get_region(FIELD, r) for r in self.pool]
        self.expected = [
            body_digest(encode_region_frame(FIELD, FIELD, a)) for a in arrays]
        self.nbytes = [a.nbytes for a in arrays]
        self.check_replies(list(range(len(self.pool))), self.gen.reply())
        self.cr = local.total_cr()
        self.psnr_db = psnr(big, local.get(FIELD))

    def check_replies(self, seq: list[int], res: dict[str, Any]
                      ) -> list[bool]:
        ok = [code == 200 and dig == self.expected[i]
              for i, code, dig in zip(seq, res["status"], res["digest"])]
        for good, i, code in zip(ok, seq, res["status"]):
            self.tally.check(good, f"HTTP {code} or wrong bytes for "
                             f"{self.pool[i]}")
        return ok

    def requests(self, n: int) -> list[int]:
        """``n`` pool indices: zipf-ranked chunks plus unaligned cubes."""
        zipf = self.rng.choice(len(self.aligned), size=n, p=self.zipf)
        other = len(self.aligned) + self.rng.integers(0, N_UNALIGNED, n)
        pick = self.rng.random(n) < UNALIGNED_SHARE
        return [int(x) for x in np.where(pick, other, zipf)]

    def open_loop(self, rate: float, n: int, watch: bool = False
                  ) -> tuple[dict[str, Any], list[float]]:
        """``n`` requests at ``rate``; with ``watch`` the server's queue
        depth is sampled while they run, into ``self.depths``."""
        assert self.gen is not None
        seq = self.requests(n)
        self.gen.send({"op": "open", "seq": seq, "rate": rate, "conns": 2})
        if watch:
            self.depths = self.queue_depths()
        res = self.gen.reply()
        ok = self.check_replies(seq, res)
        return res, stats.open_loop_latencies(res["due"], res["done"], ok)

    def queue_depths(self) -> list[float]:
        """The server's ``serve.queue.depth`` gauge, read from
        ``/metrics.json`` every ``POLL_S`` until the generator replies."""
        assert self.server is not None and self.gen is not None
        conn = http.client.HTTPConnection(self.server.host,
                                          self.server.port, timeout=30)
        out: list[float] = []
        try:
            while not self.gen.ready(POLL_S):
                conn.request("GET", "/metrics.json")
                snap = json.loads(conn.getresponse().read())
                out.append(float(snap["gauges"].get("serve.queue.depth",
                                                    0.0)))
        finally:
            conn.close()
        return out

    def server_metrics(self) -> dict[str, Any]:
        assert self.gen is not None
        res = self.gen.call({"op": "get", "path": "/metrics.json"})
        out: dict[str, Any] = json.loads(res["body"])
        return out

    def fixed_rate(self, seconds: float, watch: bool = False
                   ) -> tuple[dict[str, Any], list[float]]:
        """Open loop at the fixed nominal rate for at least ``seconds``,
        in whole p99 windows."""
        n = WINDOW * math.ceil(FIXED_RATE * seconds / WINDOW)
        return self.open_loop(FIXED_RATE, n, watch)

    def ramp(self, seconds: float) -> float:
        """The capacity ramp, cut short after ``seconds``: the highest
        offered rate whose windowed p99 met the limit with no growing
        backlog.  Each step's (rate, p99 or ``inf``) goes to the run
        record."""
        ramp = stats.Ramp(self.RAMP_START, self.RAMP_FACTOR,
                          self.RAMP_MAX_STEPS)
        curve: list[tuple[float, float]] = []
        over = over_after(seconds)
        while not over() and (rate := ramp.next_rate()) is not None:
            res, lat = self.open_loop(rate, self.STEP_REQUESTS)
            tail = (math.inf if stats.backlog_grew(res["due"], lat, LIMIT_S)
                    else stats.windowed_tail(lat, 99, WINDOW))
            ramp.record(rate, tail <= LIMIT_S)
            curve.append((rate, tail))
        self.details["ramp"] = curve
        return stats.knee(ramp.steps)

    def closed_loop(self) -> tuple[float, float]:
        """``CLOSED_REQUESTS`` of the request mix over both connections,
        each sent when one comes back: MB returned and seconds taken."""
        assert self.gen is not None
        seq = self.requests(self.CLOSED_REQUESTS)
        res = self.gen.call({"op": "closed", "seq": seq, "conns": 2})
        self.check_replies(seq, res)
        return (sum(self.nbytes[i] for i in seq) / 1e6,
                max(res["done"]) - min(res["sent"]))

    def measure(self) -> dict[str, Any]:
        assert self.server is not None
        _, lat = self.fixed_rate(self.part_seconds)
        mb, seconds = self.closed_loop()
        self.details.update(fixed_requests=len(lat),
                            http_p99_ms=stats.windowed_tail(lat, 99, WINDOW)
                            * 1e3)
        return {"rss_mb": self.server.peak_rss_mb(), "latency_s": lat,
                "work_mb": [mb], "work_s": [seconds],
                "cr": self.cr, "psnr_db": self.psnr_db}

    def layers(self) -> dict[str, float]:
        m0 = self.server_metrics()
        fixed, fixed_lat = self.fixed_rate(self.seconds / 2, watch=True)
        m1 = self.server_metrics()
        capacity = self.ramp(self.seconds)
        m2 = self.server_metrics()
        self.details["queue_depth_samples"] = len(self.depths)
        c01 = counter_delta(m0["counters"], m1["counters"])
        c02 = counter_delta(m0["counters"], m2["counters"])
        hist0 = m0["histograms"]["serve.request.seconds"]
        hist1 = m1["histograms"]["serve.request.seconds"]
        hits = c01.get("store.cache.hits", 0)
        misses = c01.get("store.cache.misses", 0)
        out = {
            "http_p99_ms": stats.windowed_tail(fixed_lat, 99, WINDOW) * 1e3,
            "http_capacity_rps": capacity,
            "serve.request_p99_ms": stats.histogram_quantile(
                hist1, hist0, 0.99) * 1e3,
            "serve.queue_depth_max": max(self.depths),
            "serve.shed_ratio": (c02.get("serve.shed", 0)
                                 / c02.get("serve.requests", 1)),
            "serve.coalesce.hits": c02.get("serve.coalesce.hits", 0),
            "serve.coalesce.waits": c02.get("serve.coalesce.waits", 0),
            "serve.cache.hit_ratio": hits / max(hits + misses, 1),
            "gen.lag_p99_ms": stats.tail(stats.generator_lag(
                fixed["due"], fixed["free"], fixed["sent"]), 99) * 1e3,
        }
        self.trace_requests(fixed)
        rungs, handle_all = self.ladder()
        out.update(rungs)
        out["observability.tracing_overhead_pct"] = tracing_overhead_pct(
            handle_all, self.tracing, reps=10)
        return out

    def trace_requests(self, fixed: dict[str, Any]) -> None:
        """Spans of the fixed-rate HTTP requests, from the generator's
        timestamps: one request span with its wait and its exchange."""
        for due, sent, done in zip(fixed["due"], fixed["sent"],
                                   fixed["done"]):
            self.tracing.add_request("gen.request", due, [
                ("gen.wait", due, sent), ("gen.exchange", sent, done)])

    def ladder(self) -> tuple[dict[str, float], Callable[[], None]]:
        """One fixed list of 16^3 regions timed at every layer; also
        returns the in-process ``handle`` pass over that list."""
        assert self.gen is not None
        regions = self.aligned[:self.LADDER_REGIONS]
        passes = 3
        rungs: dict[str, list[float]] = {k: [] for k in stats.LADDER_RUNGS}

        def timed(key: str, fn: Any, arg: Any) -> None:
            t0 = time.perf_counter()
            fn(arg)
            rungs[key].append((time.perf_counter() - t0) * 1e6)

        backend = resolve_backend(self.path)
        grid = grid_shape((EDGE,) * 3, (SZ_CHUNK,) * 3)
        _, decompress = codec_functions("sz")
        payloads = [backend[chunk_key(FIELD, chunk_index(
            grid, tuple(s.start // SZ_CHUNK for s in r)))] for r in regions]
        cold = Store.open(self.path, cache_bytes=0)
        warm = Store.open(self.path)
        for r in regions:
            warm.get_region(FIELD, r)
        app = ServeApp(StoreRegistry([f"{FIELD}={self.path}"],
                                     cache_bytes=DEFAULT_CACHE_BYTES),
                       port=0, workers=WORKERS)
        routes = [parse_target(region_path(r)) for r in regions]
        for route in routes:
            app.handle(route)
        for _ in range(passes):
            for payload in payloads:
                timed("chunk_decode_us", decompress, payload)
            for r in regions:
                timed("get_region_cold_us",
                      lambda reg: cold.get_region(FIELD, reg), r)
            for r in regions:
                timed("get_region_warm_us",
                      lambda reg: warm.get_region(FIELD, reg), r)
            for route in routes:
                timed("handle_us", app.handle, route)
        seq = [self.pool.index(r) for r in regions] * passes
        res = self.gen.call({"op": "closed", "seq": seq, "conns": 1})
        self.check_replies(seq, res)
        rungs["http_us"] = [(d - s) * 1e6
                            for s, d in zip(res["sent"], res["done"])]
        med = {k: stats.median(v) for k, v in rungs.items()}
        out = {f"ladder.{k}": v for k, v in med.items()}
        out.update(stats.ladder_gaps(med))

        def handle_all() -> None:
            for route in routes:
                app.handle(route)

        return out, handle_all

    def close(self) -> None:
        if self.gen is not None:
            self.gen.stop()
        if self.server is not None:
            self.server.stop()


WORKLOADS = {"ingest": Ingest, "cold_read": ColdRead, "serve_hot": ServeHot}
