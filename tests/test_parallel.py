import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from raredapt import parallel
from raredapt.parallel import WorkerDied, ordered_map

from conftest import counting_forks

TASKS = Path("/proc/self/task")
BIG = 2 * 2**20  # bytes; more than a pipe holds (64 KiB by default, at most 1 MiB unprivileged)
needs_blas = pytest.mark.skipif(parallel.blas_threads() is None, reason="no OpenBLAS found")


def finish_time(item: int) -> tuple[int, float]:
    """The item and when it finished: item 0 sleeps, so later items finish first."""
    if item == 0:
        time.sleep(0.2)
    return item, time.monotonic()


def worker_threads(item: int) -> tuple[int | None, int | None]:
    """The OS thread count and then the BLAS thread count of the calling process."""
    blas = parallel.blas_threads()
    return (len(list(TASKS.iterdir())) if TASKS.is_dir() else None,
            blas[0]() if blas else None)


def fail_at_three(item: int) -> int:
    if item == 3:
        raise ValueError("item 3")
    return item


class Refused(Exception):
    pass


def refuse_at_three(item: int) -> int:
    if item == 3:
        raise Refused(f"item {item} refused")
    return item


def refuse_at_one_then_sleep(item: int) -> int:
    if item == 1:
        raise Refused("item 1 refused")
    if item == 3:
        time.sleep(2)
    return item


def killed_at_three(item: int) -> int:
    if item == 3:
        os.kill(os.getpid(), signal.SIGKILL)
    return item


def sleep_after_the_first(item: int) -> int:
    if item:
        time.sleep(0.5)
    return item


def started_with_a_big_result(item: int) -> tuple[int, float, bytes]:
    return item, time.monotonic(), bytes(BIG)


class HoldsALock(Exception):
    def __init__(self, text):
        super().__init__(text)
        self.lock = threading.Lock()


def unpicklable_at_one(item: int):
    if item == 1:
        return threading.Lock()
    if item == 2:
        raise HoldsALock("item 2")
    return item


@pytest.fixture
def parent_blas_count():
    """Hold this process's OpenBLAS at two threads, so a worker that inherits
    its count is told apart from one held at one thread."""
    get, set_ = parallel.blas_threads()
    before = get()
    set_(2)
    yield get
    set_(before)


def test_results_come_in_input_order_when_later_items_finish_first():
    results = list(ordered_map(finish_time, range(6), 2))
    assert [item for item, _ in results] == list(range(6))
    done = [t for _, t in results]
    assert done[1] < done[0]


def test_a_worker_starts_item_k_plus_two_w_only_after_item_k_is_read():
    # each result fills the pipe, so a worker blocks until the parent reads it
    workers, started, read = 2, [], []
    for item, start, result in ordered_map(started_with_a_big_result, range(10), workers):
        assert len(result) == BIG
        started.append(start)
        read.append(time.monotonic())
        time.sleep(0.02)  # a slow reader, which workers that ran ahead would outpace
    assert all(started[k + 2 * workers] > read[k] for k in range(10 - 2 * workers))


def test_a_lambda_and_a_closure_over_a_local_array_run_as_fn():
    assert list(ordered_map(lambda x: x * x, range(5), 2)) == [0, 1, 4, 9, 16]
    table = np.arange(10.0) * 1.5

    def doubled(i):
        return table[i] * 2

    assert list(ordered_map(doubled, range(10), 3)) == list(table * 2)


def test_no_items_fork_no_worker(monkeypatch):
    forks = counting_forks(monkeypatch)
    assert list(ordered_map(abs, [], 2)) == []
    assert forks == []


def test_an_exception_from_fn_is_raised_at_its_item_with_the_workers_traceback():
    seen = []
    with pytest.raises(Refused, match="^item 3 refused$") as caught:
        for result in ordered_map(refuse_at_three, range(8), 2):
            seen.append(result)
    assert seen == [0, 1, 2]
    cause = caught.value.__cause__
    assert isinstance(cause, parallel.WorkerTraceback)
    assert "in refuse_at_three" in str(cause) and "Refused: item 3 refused" in str(cause)


def test_a_worker_starts_no_item_after_one_that_raised():
    # worker 1 of 2 would start item 3, a 2 s sleep, after item 1 raised
    began = time.monotonic()
    with pytest.raises(Refused, match="item 1 refused"):
        list(ordered_map(refuse_at_one_then_sleep, range(6), 2))
    assert time.monotonic() - began < 1.0


def test_a_result_or_an_exception_that_cannot_be_pickled_is_raised_at_its_item():
    results = ordered_map(unpicklable_at_one, range(4), 2)
    assert next(results) == 0
    with pytest.raises(TypeError, match="cannot pickle '_thread.lock' object"):
        next(results)
    results = ordered_map(unpicklable_at_one, [0, 2], 2)
    assert next(results) == 0
    with pytest.raises(RuntimeError, match=r"^HoldsALock\('item 2'\), which cannot be pickled$"):
        next(results)


def test_a_workers_output_is_flushed_and_the_parents_is_not_repeated():
    # stdout is a pipe, so print() buffers in the parent and in each worker
    script = ("from raredapt.parallel import ordered_map\n"
              "print('parent line')\n"
              "def printed(i):\n"
              "    print(f'worker line {i}')\n"
              "    return i\n"
              "assert list(ordered_map(printed, range(4), 2)) == [0, 1, 2, 3]\n")
    env = {**os.environ, "PYTHONPATH": str(Path(parallel.__file__).parents[1])}
    # unbuffered, each print() is two writes, which two workers can interleave
    env.pop("PYTHONUNBUFFERED", None)
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert sorted(out.splitlines()) == ["parent line", *(f"worker line {i}" for i in range(4))]


def test_importing_the_package_loads_no_executor():
    script = ("import sys, raredapt\n"
              "print(sorted(m for m in ('concurrent.futures', 'multiprocessing')"
              " if m in sys.modules))\n")
    env = {**os.environ, "PYTHONPATH": str(Path(parallel.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out == "[]\n"


def test_a_worker_killed_by_a_signal_is_named_with_the_item_it_did_not_return(monkeypatch):
    forks = counting_forks(monkeypatch)
    seen = []
    with pytest.raises(WorkerDied) as caught:
        for result in ordered_map(killed_at_three, range(8), 2):
            seen.append(result)
    assert seen == [0, 1, 2]
    # worker 1 of 2 computes items 1, 3, 5 and 7
    assert str(caught.value) == (f"worker process {forks[1]} was killed by signal "
                                 f"{int(signal.SIGKILL)} (SIGKILL) before returning item 4 of 8")


def test_closing_while_a_worker_is_inside_an_item_waits_for_that_item_only():
    results = ordered_map(sleep_after_the_first, range(100), 2)
    assert next(results) == 0
    began = time.monotonic()
    results.close()  # both workers are inside a 0.5 s item; neither starts another
    assert time.monotonic() - began < 1.0


def test_the_parent_runs_no_thread_while_a_map_runs():
    for _ in ordered_map(abs, range(4), 2):
        assert threading.active_count() == 1
        if TASKS.is_dir():
            assert len(list(TASKS.iterdir())) == 1


@pytest.mark.skipif(not TASKS.is_dir(), reason="no /proc/self/task")
def test_two_workers_run_one_os_thread_each():
    assert [threads for threads, _ in ordered_map(worker_threads, range(4), 2)] == [1] * 4


@needs_blas
@pytest.mark.parametrize("workers, expected", [(2, 1), (1, 2)])
def test_workers_inherit_one_blas_thread_or_with_one_worker_the_parents(
    parent_blas_count, workers, expected
):
    assert [blas for _, blas in ordered_map(worker_threads, range(4), workers)] == [expected] * 4
    assert parent_blas_count() == 2


@needs_blas
def test_closing_after_the_first_result_restores_the_blas_count(parent_blas_count):
    results = ordered_map(fail_at_three, range(100), 2)
    assert next(results) == 0
    assert parent_blas_count() == 1
    results.close()
    assert parent_blas_count() == 2


@needs_blas
def test_an_exception_is_raised_at_its_item_and_restores_the_blas_count(parent_blas_count):
    seen = []
    with pytest.raises(ValueError, match="item 3"):
        for result in ordered_map(fail_at_three, range(8), 2):
            seen.append(result)
    assert seen == [0, 1, 2]
    assert parent_blas_count() == 2
