"""Every ``parallel_map`` task list runs with BLAS on one thread.

The pin is reference-counted: nested and concurrent maps share it, and
the counts saved when the first holder entered come back when the last
one leaves -- also when a task raises.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.parallel import blas
from repro.parallel.blas import blas_status, single_thread
from repro.parallel.executor import (
    ParallelConfig,
    parallel_map,
    pool_status,
    shutdown_pool,
)

needs_blas = pytest.mark.skipif(
    not blas_status()["libs"],
    reason="no OpenBLAS with a thread-count API is loaded")


@pytest.fixture(autouse=True)
def _fresh_pool():
    shutdown_pool()
    yield
    shutdown_pool()
    assert blas._holders == 0


def threads_seen(_: object) -> list[int]:
    return blas_status()["threads"]


@needs_blas
@pytest.mark.parametrize("n_jobs", [1, 2])
def test_task_sees_one_thread_and_count_comes_back(blas_threads, n_jobs):
    seen = parallel_map(threads_seen, list(range(6)),
                        config=ParallelConfig(n_jobs=n_jobs, min_chunk=1))
    assert seen == [[1] * len(blas_threads)] * 6
    assert blas_status()["threads"] == blas_threads


@needs_blas
def test_count_comes_back_after_a_task_raises(blas_threads):
    def task(i: int) -> int:
        if i == 3:
            raise ValueError("boom")
        return i

    with pytest.raises(ValueError, match="boom"):
        parallel_map(task, list(range(8)),
                     config=ParallelConfig(n_jobs=2, min_chunk=1))
    assert blas_status()["threads"] == blas_threads


@needs_blas
def test_nested_map_inside_a_worker(blas_threads):
    inner = ParallelConfig(n_jobs=2, min_chunk=1)

    def task(i: int) -> list[list[int]]:
        return parallel_map(threads_seen, [i, i + 1], config=inner)

    got = parallel_map(task, list(range(4)),
                       config=ParallelConfig(n_jobs=2, min_chunk=1))
    assert got == [[[1] * len(blas_threads)] * 2] * 4
    assert blas_status()["threads"] == blas_threads


@needs_blas
@pytest.mark.parametrize("first_out", ["a", "b"])
def test_concurrent_maps_hold_the_pin_until_the_later_leaves(
        blas_threads, first_out):
    ones = [1] * len(blas_threads)
    entered = {k: threading.Event() for k in "ab"}
    release = {k: threading.Event() for k in "ab"}

    def holder(key: str) -> None:
        def task(_: int) -> None:
            entered[key].set()
            assert release[key].wait(10.0)
        parallel_map(task, [0])

    threads = {k: threading.Thread(target=holder, args=(k,)) for k in "ab"}
    for k in "ab":
        threads[k].start()
        assert entered[k].wait(10.0)
    assert blas_status()["threads"] == ones
    last_out = "b" if first_out == "a" else "a"
    release[first_out].set()
    threads[first_out].join(10.0)
    assert not threads[first_out].is_alive()
    assert blas_status()["threads"] == ones
    release[last_out].set()
    threads[last_out].join(10.0)
    assert not threads[last_out].is_alive()
    assert blas_status()["threads"] == blas_threads


def test_no_op_without_libraries(blas_threads, monkeypatch):
    real = blas._libraries()
    monkeypatch.setattr(blas, "_MODULES", [])
    assert blas_status() == {"libs": [], "threads": []}
    with single_thread():
        assert [int(get()) for _, get, _ in real] == blas_threads
    assert parallel_map(lambda x: x + 1, [1, 2, 3, 4],
                        config=ParallelConfig(n_jobs=2)) == [2, 3, 4, 5]
    assert [int(get()) for _, get, _ in real] == blas_threads


def test_pool_status_reports_blas():
    status = pool_status()["blas"]
    assert set(status) == {"libs", "threads"}
    assert len(status["libs"]) == len(status["threads"])
    assert all(n >= 1 for n in status["threads"])


@needs_blas
def test_many_threads_of_maps_keep_the_count(blas_threads):
    # Eight threads race their maps' entries and exits with a tiny
    # switch interval: a lost update of the holder count would restore
    # the saved counts under a running task, or never restore them.
    ones = [1] * len(blas_threads)
    bad: list[list[int]] = []

    def task(_: int) -> None:
        seen = blas_status()["threads"]
        if seen != ones:
            bad.append(seen)

    def loop() -> None:
        for _ in range(40):
            parallel_map(task, [0, 1])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=loop) for _ in range(8)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert bad == []
    assert blas._holders == 0
    assert blas_status()["threads"] == blas_threads
