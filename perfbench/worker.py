"""One benchmark worker: a fresh interpreter that sets up and measures.

``run.py`` starts this script once per part of a run, or, traced, once
per workload section.  A worker times its set-up from the moment
``run.py`` spawned it, so interpreter start, imports, data generation
and the first call into the program all fall inside ``setup_s``.
Untraced, it then measures the workload for its share of ``--seconds``
(``--seconds / --parts``) and prints its samples, which ``run.py``
pools over the parts; traced, it measures the workload's per-layer
metrics for ``--seconds``.  Either way it prints one JSON line.

Usage (normally through ``run.py``)::

    PYTHONPATH=src python3 perfbench/worker.py --workload cold_read \\
        --seed 3 --seconds 12 --trace 0 --part 0 --parts 3 \\
        --out .perfbench/cold_read-3 --spawned <epoch seconds>
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import re
import sys
import time
import zlib
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.observability import Tracer, get_registry, get_tracer, use_tracer

import stats


def sub_seed(seed: int, name: str) -> int:
    """An independent, reproducible seed for one input of the run."""
    ss = np.random.SeedSequence([seed, zlib.crc32(name.encode())])
    return int(ss.generate_state(1)[0])


class Tally:
    """Operations attempted and failed correctness checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


class Tracing:
    """The traced run's span record.

    The program's own :class:`~repro.observability.Tracer` keeps every
    span in memory; the benchmark opens one span around each call it
    makes into a layer and gives it a request id, which
    :meth:`records` hands down to every span the call caused.
    """

    def __init__(self, on: bool) -> None:
        self.tracer = Tracer() if on else None
        self.requests = 0
        self.external: list[dict[str, Any]] = []

    def active(self) -> contextlib.AbstractContextManager[Any]:
        """Install the tracer (a no-op in the untraced run)."""
        if self.tracer is None:
            return contextlib.nullcontext()
        return use_tracer(self.tracer)

    def request(self, name: str, **meta: Any
                ) -> contextlib.AbstractContextManager[Any]:
        """One benchmark-level span around a call into a layer, kept
        only while the tracer is installed."""
        if self.tracer is None or get_tracer() is not self.tracer:
            return contextlib.nullcontext()
        self.requests += 1
        return self.tracer.span(name, req=self.requests, **meta)

    def add_request(self, name: str, t0: float,
                    parts: list[tuple[str, float, float]]) -> None:
        """Spans another process timed: one request span from ``t0``
        and one child per ``(name, start, end)`` part, on that
        process's own timeline."""
        self.requests += 1
        root = {"name": name, "span_id": -len(self.external) - 1,
                "parent_id": None, "t0": t0,
                "dur": max(end for _, _, end in parts) - t0,
                "req": self.requests, "request": name}
        self.external.append(root)
        for part, start, end in parts:
            self.external.append({
                "name": part, "span_id": -len(self.external) - 1,
                "parent_id": root["span_id"], "t0": start,
                "dur": end - start, "req": self.requests,
                "request": name})

    def records(self) -> list[dict[str, Any]]:
        """Finished spans as dicts, each tagged with its request id.

        A span inherits the id of its nearest ancestor that has one.
        Pool threads keep their own span stacks, so a root span from a
        pool thread takes the id of the benchmark request that was
        open when it started.
        """
        if self.tracer is None:
            return list(self.external)
        recs = sorted((s.to_dict() for s in self.tracer.spans),
                      key=lambda r: r["t0"])
        by_id = {r["span_id"]: r for r in recs}
        bench = {r["span_id"] for r in recs if "req" in r}
        roots = [r for r in recs
                 if r["span_id"] in bench and r["parent_id"] is None]

        def owner(rec: dict[str, Any]) -> dict[str, Any] | None:
            while rec["span_id"] not in bench:
                parent = by_id.get(rec["parent_id"])
                if parent is None:
                    return next((r for r in roots if r["t0"] <= rec["t0"]
                                 <= r["t0"] + r["dur"]), None)
                rec = parent
            return rec

        owners = [owner(rec) for rec in recs]
        for rec, top in zip(recs, owners):
            if top is not None:
                rec["req"] = top["req"]
                rec["request"] = top["name"]
        return recs + self.external

    def write(self, path: Path, recs: list[dict[str, Any]]) -> None:
        with open(path, "w") as fh:
            for rec in recs:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def counters() -> dict[str, float]:
    """The program's counters, as the metric registry holds them now."""
    return dict(get_registry().snapshot()["counters"])


def counter_delta(before: dict[str, float],
                  after: dict[str, float]) -> dict[str, float]:
    return {k: after.get(k, 0) - before.get(k, 0)
            for k in set(before) | set(after)}


def self_time_by_name(recs: list[dict[str, Any]],
                      request: str | None = None) -> dict[str, float]:
    """Total self time per span name, optionally only inside the
    benchmark requests called ``request``."""
    selfs = stats.self_times(recs)
    out: dict[str, float] = {}
    for r in recs:
        if request is not None and r.get("request") != request:
            continue
        out[r["name"]] = out.get(r["name"], 0.0) + selfs[r["span_id"]]
    return out


def tracing_overhead_pct(op: Callable[[], None], tracing: Tracing,
                         reps: int) -> float:
    """Median time of ``op`` traced against untraced, in percent.

    The two kinds alternate so drift on the machine falls on both.
    """
    plain: list[float] = []
    traced: list[float] = []
    for i in range(2 * reps):
        on = i % 2 == 1
        ctx = tracing.active() if on else contextlib.nullcontext()
        with ctx:
            t0 = time.perf_counter()
            op()
            dt = time.perf_counter() - t0
        (traced if on else plain).append(dt)
    return (stats.median(traced) / stats.median(plain) - 1.0) * 100.0


def peak_rss_mb(pid: int | None = None) -> float:
    """Peak resident set size of a process (this one by default)."""
    path = f"/proc/{pid or 'self'}/status"
    with open(path) as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    raise RuntimeError(f"no VmHWM in {path}")


def environment() -> dict[str, Any]:
    """What the numbers depend on besides the code.

    BLAS thread variables are reported as found; the benchmark never
    sets them, so a change that pins threads inside the program shows
    up as a gain.
    """
    blas: dict[str, Any] = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        info = deps.get("blas", {})
        blas = {"name": info.get("name"), "version": info.get("version"),
                "config": info.get("openblas configuration")}
    except (TypeError, KeyError):
        pass
    blas["runtime_threads"] = _openblas_threads()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "blas": blas,
        "machine": platform.machine(),
    }


def _openblas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, read from the library."""
    try:
        with open("/proc/self/maps") as fh:
            libs = set(re.findall(r"(/\S*openblas\S*\.so\S*)", fh.read()))
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def over_after(seconds: float) -> Callable[[], bool]:
    """A test that turns true ``seconds`` from now."""
    end = time.perf_counter() + seconds
    return lambda: time.perf_counter() >= end


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--part", type=int, default=0)
    ap.add_argument("--parts", type=int, default=1)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--spawned", type=float, required=True)
    args = ap.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)

    tally = Tally()
    tracing = Tracing(bool(args.trace))
    wl = WORKLOADS[args.workload](args, tally, tracing)
    try:
        wl.setup()
        result: dict[str, Any] = {"setup_s": time.time() - args.spawned}
        if args.trace:
            result["layers"] = wl.layers()
            tracing.write(args.out / "trace.ndjson", tracing.records())
        else:
            result["samples"] = wl.measure()
        result["details"] = wl.details
        result["environment"] = environment()
    finally:
        wl.close()
    result.update(attempted=tally.attempted, failed=tally.failed,
                  failures=tally.failures)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
