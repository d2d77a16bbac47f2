"""The one place raredapt starts worker processes.

``ordered_map`` runs the sweep's cells and ``save_csv``'s row blocks. Its
workers are forked, never spawned or started by a fork server, whatever the
platform's default: a forked worker imports nothing again and inherits the
parent's state, such as a patched function or a held BLAS thread count. With
two or more workers, the parent holds numpy's OpenBLAS at one thread while they
fork, so each inherits a count of one; otherwise ``workers`` processes would
run workers x nproc BLAS threads on nproc cores. Never call the setter inside a
worker instead: any call there starts a BLAS helper thread, which busy-waits
beside the worker's own.
"""

from __future__ import annotations

import collections
import ctypes
import functools
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np


@functools.cache
def blas_threads():
    """The ``(get, set)`` thread-count functions of the OpenBLAS that numpy
    loaded, resolved once per process; None if it is not found."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "")):
            getter = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            setter = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
            if getter is not None and setter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter.argtypes, setter.restype = [ctypes.c_int], None
                return getter, setter
    return None


def ordered_map(fn, items, workers: int):
    """Yield ``fn(item)`` for each item, in input order, computed on a pool of
    ``workers`` forked processes with at most ``2 * workers`` items in flight,
    so finished results never pile up in this process.

    An exception in ``fn`` is raised at its item. With two or more workers,
    OpenBLAS stays at one thread until the generator finishes, raises or is
    closed, and then gets this process's own count back.
    """
    blas = blas_threads() if workers > 1 else None
    if blas is not None:
        count = blas[0]()
        blas[1](1)
    try:
        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=multiprocessing.get_context("fork")) as pool:
            pending = collections.deque()
            for item in items:
                pending.append(pool.submit(fn, item))
                if len(pending) == 2 * workers:
                    yield pending.popleft().result()
            while pending:
                yield pending.popleft().result()
    finally:
        if blas is not None:
            blas[1](count)
