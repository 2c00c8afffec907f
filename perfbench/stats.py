"""The benchmark's arithmetic, kept free of I/O so it can be tested alone.

* percentiles and the rule for which tail percentile a sample supports;
* open-loop accounting: latency from the due time, generator lag and
  whether a backlog grew;
* the capacity ramp and its knee;
* quantiles of what the program's own histograms gained over a phase;
* ladder gaps between adjacent layers;
* span self time (span time minus the part its children cover).
"""

from __future__ import annotations

import math
import statistics
from typing import Any, Iterable, Sequence

#: Tail percentiles the benchmark may report, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: Samples that must lie beyond a percentile before it is reported.
MIN_BEYOND = 10


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least
    ``p`` percent of the sample at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    xs = sorted(values)
    return xs[_rank(len(xs), p) - 1]


def _rank(n: int, p: float) -> int:
    """1-based nearest rank of ``p`` in ``n`` samples (rounded first so
    that 99.9% of 10000 is 9990, not 9991)."""
    return max(1, math.ceil(round(p / 100.0 * n, 9)))


def beyond(n: int, p: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``p``."""
    return n - _rank(n, p)


def supported_tail(n: int) -> float | None:
    """The highest candidate percentile with ``MIN_BEYOND`` samples
    beyond it, or ``None`` when even the median lacks them."""
    for p in TAIL_CANDIDATES:
        if beyond(n, p) >= MIN_BEYOND:
            return p
    return None


def min_samples(p: float) -> int:
    """The smallest sample size whose nearest-rank ``p`` has
    ``MIN_BEYOND`` samples beyond it."""
    n = MIN_BEYOND + 1
    while beyond(n, p) < MIN_BEYOND:
        n += 1
    return n


def tail(values: Sequence[float], p: float) -> float:
    """``percentile(values, p)``, refused when the sample is too small
    to put ``MIN_BEYOND`` samples beyond it."""
    if beyond(len(values), p) < MIN_BEYOND:
        raise ValueError(
            f"p{p:g} needs {min_samples(p)} samples, got {len(values)}")
    return percentile(values, p)


def windowed_tail(values: Sequence[float], p: float, window: int) -> float:
    """The median over consecutive ``window``-sample windows of each
    window's ``p`` percentile.

    On a shared machine a single pause of a few milliseconds decides a
    pooled p99 of a few thousand samples; it moves one window's p99 and
    leaves the median of the windows alone.  Each window must support
    ``p`` under the ten-beyond rule.  A short last window is dropped.
    """
    if beyond(window, p) < MIN_BEYOND:
        raise ValueError(f"p{p:g} needs windows of {min_samples(p)}")
    n = len(values) // window
    if n == 0:
        raise ValueError(f"need at least {window} samples, got "
                         f"{len(values)}")
    return median(percentile(values[i * window:(i + 1) * window], p)
                  for i in range(n))


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


# -- open loop ----------------------------------------------------------------

def open_loop_latencies(due: Sequence[float], done: Sequence[float],
                        ok: Sequence[bool]) -> list[float]:
    """Per-request latency counted from when the request was due.

    A request that failed or was refused gets ``inf``: it misses every
    latency limit.
    """
    return [d1 - d0 if good else math.inf
            for d0, d1, good in zip(due, done, ok)]


def generator_lag(due: Sequence[float], free: Sequence[float],
                  sent: Sequence[float]) -> list[float]:
    """How late the generator itself sent each request.

    Waiting for a busy connection is the server's doing and already
    shows in the latency; the lag starts once the request was due *and*
    a connection was free to carry it.
    """
    return [s - max(d, f) for d, f, s in zip(due, free, sent)]


def backlog_grew(due: Sequence[float], latencies: Sequence[float],
                 limit: float) -> bool:
    """Whether requests fell further behind as a ramp step went on.

    Compares the median latency of the last quarter of the step (by due
    time) with that of the first quarter; a rise of more than half the
    latency limit means the server did not keep up with the offered
    rate.  Failed requests count as infinitely late.
    """
    order = sorted(range(len(due)), key=lambda i: due[i])
    q = max(1, len(order) // 4)
    first = median(latencies[i] for i in order[:q])
    last = median(latencies[i] for i in order[-q:])
    return last - first > limit / 2


def knee(steps: Sequence[tuple[float, bool]]) -> float:
    """The highest offered rate among the passing steps (``0.0`` when
    none passed).  ``steps`` are ``(rate, passed)``."""
    passing = [rate for rate, passed in steps if passed]
    return max(passing) if passing else 0.0


class Ramp:
    """The offered rates of a capacity search: a geometric ramp.

    The rate climbs from ``start`` by ``factor`` until a step fails or,
    when ``start`` already fails, falls by ``factor`` until one passes;
    :func:`knee` of the steps is then the capacity.  A ramp takes at
    most ``max_steps`` steps.
    """

    def __init__(self, start: float, factor: float, max_steps: int) -> None:
        self.start, self.factor = start, factor
        self.max_steps = max_steps
        self.steps: list[tuple[float, bool]] = []

    def record(self, rate: float, passed: bool) -> None:
        self.steps.append((rate, passed))

    def next_rate(self) -> float | None:
        """The next rate to offer, or ``None`` when the ramp is over."""
        if len(self.steps) >= self.max_steps:
            return None
        if not self.steps:
            return self.start
        rate, passed = self.steps[-1]
        if passed != self.steps[0][1]:
            return None
        return rate * self.factor if passed else rate / self.factor


# -- the program's own histograms -------------------------------------------

def histogram_quantile(after: dict[str, Any], before: dict[str, Any],
                       q: float) -> float:
    """``q``-quantile of the observations a registry histogram gained
    between two snapshots (geometric interpolation in the bucket, as
    the registry's own quantile does)."""
    counts = [a - b for a, b in zip(after["counts"], before["counts"])]
    bounds = after["bounds"]
    total = sum(counts)
    rank = q * total
    seen = 0.0
    for i, c in enumerate(counts):
        if c and seen + c >= rank:
            lo = after["lo"] if i == 0 else bounds[i - 1]
            hi = after["hi"] if i >= len(bounds) else bounds[i]
            return float(lo * (hi / lo) ** min(max((rank - seen) / c, 0.0),
                                              1.0))
        seen += c
    return math.nan


# -- ladder -------------------------------------------------------------------

#: Rungs of the read-path ladder, innermost first, and the gap names
#: that adjacent rungs define.
LADDER_RUNGS = ("chunk_decode_us", "get_region_cold_us",
                "get_region_warm_us", "handle_us", "http_us")
LADDER_GAPS = {
    "store.cold_overhead_us": ("get_region_cold_us", "chunk_decode_us"),
    "serve.handle_overhead_us": ("handle_us", "get_region_warm_us"),
    "serve.http_overhead_us": ("http_us", "handle_us"),
}


def ladder_gaps(rungs: dict[str, float]) -> dict[str, float]:
    """Time one layer adds over the layer below it, per request."""
    return {name: rungs[outer] - rungs[inner]
            for name, (outer, inner) in LADDER_GAPS.items()}


# -- spans --------------------------------------------------------------------

def covered(interval: tuple[float, float],
            children: Iterable[tuple[float, float]]) -> float:
    """Length of ``interval`` covered by the union of ``children``."""
    lo, hi = interval
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in children
                     if min(b, hi) > max(a, lo))
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[dict]) -> dict[int, float]:
    """Self time of every span: its duration minus the part of its
    interval that its child spans cover.

    ``spans`` are dicts with ``span_id``, ``parent_id``, ``t0`` and
    ``dur`` (the tracer's NDJSON record).
    """
    kids: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.get("parent_id") is not None:
            kids.setdefault(s["parent_id"], []).append(
                (s["t0"], s["t0"] + s["dur"]))
    return {s["span_id"]: s["dur"] - covered(
                (s["t0"], s["t0"] + s["dur"]), kids.get(s["span_id"], ()))
            for s in spans}
