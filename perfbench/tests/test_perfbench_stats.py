"""The benchmark's own arithmetic: percentiles, open-loop accounting,
the capacity ramp, ladder gaps and span self time."""

import math

import pytest

import stats


# -- percentiles and the ten-beyond rule --------------------------------------

def test_percentile_is_nearest_rank():
    xs = list(range(1, 101))
    assert stats.percentile(xs, 50) == 50
    assert stats.percentile(xs, 90) == 90
    assert stats.percentile(xs, 99) == 99
    assert stats.percentile([5.0], 99) == 5.0
    assert stats.percentile([3, 1, 2], 50) == 2


@pytest.mark.parametrize("n, p, expected", [
    (100, 90, 10), (99, 90, 9), (1000, 99, 10), (999, 99, 9),
    (20, 50, 10), (19, 50, 9)])
def test_beyond_counts_samples_above_the_percentile(n, p, expected):
    assert stats.beyond(n, p) == expected


@pytest.mark.parametrize("n, tail", [
    (19, None), (20, 50.0), (40, 75.0), (100, 90.0), (200, 95.0),
    (999, 95.0), (1000, 99.0), (10000, 99.9)])
def test_supported_tail_needs_ten_samples_beyond(n, tail):
    assert stats.supported_tail(n) == tail


def test_min_samples_is_the_smallest_supporting_size():
    for p in (50.0, 90.0, 99.0):
        n = stats.min_samples(p)
        assert stats.beyond(n, p) >= stats.MIN_BEYOND
        assert stats.beyond(n - 1, p) < stats.MIN_BEYOND
    assert stats.min_samples(90.0) == 100
    assert stats.min_samples(99.0) == 1000


def test_tail_refuses_a_sample_too_small():
    assert stats.tail(list(range(100)), 90) == 89
    with pytest.raises(ValueError, match="needs 100 samples"):
        stats.tail(list(range(99)), 90)


# -- open loop ----------------------------------------------------------------

def test_latency_counts_from_the_due_time():
    due = [0.0, 0.01, 0.02]
    done = [0.001, 0.03, 0.021]
    lat = stats.open_loop_latencies(due, done, [True, True, True])
    assert lat == pytest.approx([0.001, 0.02, 0.001])


def test_failed_requests_miss_every_limit():
    lat = stats.open_loop_latencies([0.0, 0.1], [0.001, 0.101],
                                    [True, False])
    assert lat[0] == pytest.approx(0.001)
    assert lat[1] == math.inf
    assert stats.percentile(lat, 50) == pytest.approx(0.001)
    assert stats.percentile(lat, 99) == math.inf


def test_generator_lag_excludes_waiting_for_a_busy_connection():
    # Request 0 went out on time, request 1 waited 5 ms for a connection
    # and was then sent at once, request 2 was sent 2 ms late with a
    # connection free all along.
    due = [0.000, 0.010, 0.020]
    free = [0.000, 0.015, 0.010]
    sent = [0.000, 0.015, 0.022]
    assert stats.generator_lag(due, free, sent) == pytest.approx(
        [0.0, 0.0, 0.002])


def test_backlog_growth_compares_first_and_last_quarter():
    due = [i / 100 for i in range(100)]
    steady = [0.001] * 100
    assert not stats.backlog_grew(due, steady, 0.010)
    growing = [0.001 + 0.0005 * i for i in range(100)]
    assert stats.backlog_grew(due, growing, 0.010)


def test_windowed_tail_is_the_median_of_window_percentiles():
    quiet = [0.001] * 1000
    paused = [0.001] * 980 + [0.050] * 20      # one pause: p99 = 50 ms
    assert stats.percentile(quiet + paused + quiet, 99) == 0.001
    assert stats.windowed_tail(paused + quiet + quiet, 99, 1000) == 0.001
    assert stats.windowed_tail(paused + paused + quiet, 99, 1000) == 0.050
    # A short last window is dropped.
    assert stats.windowed_tail(quiet + [9.0] * 500, 99, 1000) == 0.001


def test_windowed_tail_needs_windows_that_support_the_percentile():
    with pytest.raises(ValueError, match="windows of 1000"):
        stats.windowed_tail([0.0] * 5000, 99, 999)
    with pytest.raises(ValueError, match="at least 1000"):
        stats.windowed_tail([0.0] * 999, 99, 1000)


# -- the ramp -----------------------------------------------------------------

def test_knee_is_the_highest_passing_rate():
    assert stats.knee([(100, True), (200, False), (300, True),
                       (400, False)]) == 300
    assert stats.knee([(100, False)]) == 0.0


def drive(ramp, capacity):
    """Run a ramp against a server that meets the limit up to
    ``capacity``; returns the rates offered."""
    offered = []
    while (rate := ramp.next_rate()) is not None:
        offered.append(rate)
        ramp.record(rate, rate <= capacity)
    return offered


def test_ramp_climbs_until_a_step_fails():
    ramp = stats.Ramp(1000, 1.25, max_steps=20)
    offered = drive(ramp, capacity=2000)
    assert offered == pytest.approx([1000, 1250, 1562.5, 1953.125,
                                     2441.40625])
    assert stats.knee(ramp.steps) == pytest.approx(1953.125)


def test_ramp_walks_down_until_a_step_passes():
    ramp = stats.Ramp(1000, 2.0, max_steps=30)
    offered = drive(ramp, capacity=300)
    assert offered == pytest.approx([1000, 500, 250])
    assert stats.knee(ramp.steps) == pytest.approx(250)


def test_ramp_stops_at_max_steps():
    ramp = stats.Ramp(10, 2.0, max_steps=4)
    assert len(drive(ramp, capacity=1e9)) == 4
    assert stats.knee(ramp.steps) == 80


def test_ramp_with_no_passing_step_has_no_knee():
    ramp = stats.Ramp(1000, 2.0, max_steps=3)
    assert drive(ramp, capacity=1) == [1000, 500, 250]
    assert stats.knee(ramp.steps) == 0.0


def test_histogram_quantile_reads_only_what_a_phase_added():
    from repro.observability.metrics import Histogram

    h = Histogram("t", lo=1e-3, hi=1.0, buckets_per_decade=10)
    for _ in range(100):
        h.observe(0.5)               # before the phase: slow
    before = h.to_dict()
    for _ in range(100):
        h.observe(0.002)             # the phase itself: fast
    q = stats.histogram_quantile(h.to_dict(), before, 0.99)
    assert 0.0015 < q < 0.0026
    assert h.quantile(0.99) > 0.4    # the cumulative view says slow


# -- ladder -------------------------------------------------------------------

def test_ladder_gaps_subtract_adjacent_rungs():
    rungs = {"chunk_decode_us": 4000.0, "get_region_cold_us": 4300.0,
             "get_region_warm_us": 28.0, "handle_us": 53.0,
             "http_us": 658.0}
    assert stats.ladder_gaps(rungs) == pytest.approx({
        "store.cold_overhead_us": 300.0,
        "serve.handle_overhead_us": 25.0,
        "serve.http_overhead_us": 605.0,
    })


# -- span self time -----------------------------------------------------------

def span(sid, parent, t0, dur):
    return {"span_id": sid, "parent_id": parent, "t0": t0, "dur": dur}


def test_self_time_subtracts_the_union_of_children():
    spans = [span(1, None, 0.0, 10.0),
             span(2, 1, 1.0, 3.0),      # covers 1..4
             span(3, 1, 3.0, 3.0),      # overlaps it: 3..6
             span(4, 3, 4.0, 1.0),      # grandchild: not subtracted from 1
             span(5, None, 20.0, 1.0)]
    selfs = stats.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 5.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(2.0)
    assert selfs[4] == pytest.approx(1.0)
    assert selfs[5] == pytest.approx(1.0)


def test_children_outside_the_parent_are_clipped():
    assert stats.covered((0.0, 2.0), [(-1.0, 0.5), (1.5, 9.0)]) == \
        pytest.approx(1.0)
    assert stats.covered((0.0, 2.0), []) == 0.0


# -- pooling the parts of a run -----------------------------------------------

def test_end_to_end_pools_samples_and_takes_the_median_of_values():
    import run

    parts = [{"rss_mb": 10.0, "cr": 5.0, "latency_s": [0.001] * 60,
              "work_mb": [0.001] * 60, "work_s": [0.001] * 60},
             {"rss_mb": 30.0, "cr": 5.0, "latency_s": [0.003] * 60,
              "work_mb": [0.001] * 60, "work_s": [0.003] * 60},
             {"rss_mb": 20.0, "cr": 5.0, "latency_s": [0.002] * 60,
              "work_mb": [0.001] * 60, "work_s": [0.002] * 60}]
    out = run.end_to_end(parts)
    assert out["rss_mb"] == 20.0
    assert out["cr"] == 5.0
    assert out["latency_p50_ms"] == pytest.approx(2.0)
    assert out["throughput_mb_s"] == pytest.approx(0.18 / 0.36)

