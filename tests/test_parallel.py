import time
from pathlib import Path

import pytest

from raredapt import parallel
from raredapt.parallel import ordered_map

TASKS = Path("/proc/self/task")
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


def test_at_most_two_items_per_worker_are_in_flight():
    taken = []

    def items():
        for item in range(20):
            taken.append(item)
            yield item

    for result in ordered_map(abs, items(), 3):
        assert len(taken) <= result + 2 * 3
    assert taken == list(range(20))


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
