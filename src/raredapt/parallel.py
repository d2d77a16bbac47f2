"""The one place raredapt starts worker processes.

``ordered_map`` runs the sweep's cells and ``save_csv``'s row blocks on
processes made with ``os.fork``, with no executor and no thread in this
process:

- A worker inherits ``fn`` and every item at the fork, so nothing is pickled
  on the way in, a closure or a patched function works as ``fn``, and nothing
  is imported again. Only the results travel, each as one length-prefixed
  pickle on the worker's own pipe.
- Worker ``j`` of ``W`` computes items ``j, j + W, j + 2W, ...`` in order, and
  the parent reads item ``i`` from worker ``i % W``. A full pipe blocks its
  worker, so finished results never pile up in the parent.
- A worker that dies before it returns its item shows up as EOF on its pipe,
  and the parent raises ``WorkerDied``, a RuntimeError of its own, so that
  importing this module loads no executor.
- The parent forks from a single thread: it starts no helper thread whose
  stack, malloc arena or CPU time would stay with it or compete with the
  workers.

With two or more workers, the parent holds numpy's OpenBLAS at one thread
while they fork, so each inherits a count of one; otherwise ``workers``
processes would run workers x nproc BLAS threads on nproc cores. Never call the
setter inside a worker instead: any call there starts a BLAS helper thread,
which busy-waits beside the worker's own.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import pickle
import signal
import sys
import traceback
from pathlib import Path

import numpy as np


@functools.cache
def openblas(name: str):
    """Function ``name`` (``get_num_threads``, without the build's symbol prefix
    and suffix) of the OpenBLAS that numpy loaded, via ctypes; None if not found."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        with contextlib.suppress(OSError):  # a file that does not load
            lib = ctypes.CDLL(str(path))
            for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "")):
                if (function := getattr(lib, f"{prefix}{name}{suffix}", None)) is not None:
                    return function
    return None


@functools.cache
def blas_threads():
    """The ``(get, set)`` thread-count functions of :func:`openblas`, or None."""
    getter, setter = openblas("get_num_threads"), openblas("set_num_threads")
    if getter is None or setter is None:
        return None
    getter.argtypes, getter.restype = [], ctypes.c_int
    setter.argtypes, setter.restype = [ctypes.c_int], None
    return getter, setter


class WorkerDied(RuntimeError):
    """A worker ended before it returned its item; the message names its pid,
    its exit code or signal, and that item."""


class WorkerTraceback(Exception):
    """The traceback, as the worker formatted it, of an exception that ``fn``
    raised there; chained as the cause of the exception the parent raises."""


def ordered_map(fn, items, workers: int):
    """Yield ``fn(item)`` for each item, in input order, computed on
    ``min(workers, len(items))`` forked processes.

    An exception in ``fn`` is raised at its item, after the earlier items'
    results, with the worker's traceback as its cause. A worker that dies
    raises ``WorkerDied`` naming its pid, its exit code or signal, and
    the item, counted from 1, that it did not return. With two or more workers,
    OpenBLAS stays at one thread until the generator finishes, raises or is
    closed, and then gets this process's own count back. On any of these ends
    every worker is reaped; each finishes at most the item it is on.
    """
    items = list(items)
    workers = min(workers, len(items))
    blas = blas_threads() if workers > 1 else None
    if blas is not None:
        count = blas[0]()
        blas[1](1)
    pids, readers = [], []
    try:
        _flush_stdio()  # so that a worker's buffers hold only its own output
        for j in range(workers):
            read_end, write_end = os.pipe()
            readers.append(open(read_end, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _work(fn, items, j, workers, write_end, readers)
            finally:
                os.close(write_end)  # so that a worker that dies shows up as EOF
            pids.append(pid)
        for i in range(len(items)):
            result = _receive(readers[i % workers])
            if result is None:
                pid, pids[i % workers] = pids[i % workers], None
                raise WorkerDied(_death(pid, i, len(items)))
            value, trace = result
            if trace is not None:
                raise value from WorkerTraceback(trace)
            yield value
    finally:
        if blas is not None:
            blas[1](count)
        for reader in readers:
            reader.close()
        for pid in pids:
            if pid is not None:
                with contextlib.suppress(ChildProcessError):  # reaped already, as under SIG_IGN
                    os.waitpid(pid, 0)


def _work(fn, items, first: int, step: int, write_end: int, readers) -> None:
    """A worker's life: send ``(fn(item), None)`` for items ``first, first +
    step, ...``, or ``(exception, traceback text)`` and stop at the first that
    raises; a write that the closed parent refuses (EPIPE) ends it too. It
    flushes only stdout and stderr, which the parent emptied before the fork,
    and ends with ``os._exit``: it never returns into the parent's frames, runs
    atexit handlers or flushes the parent's other buffered files."""
    code = 0
    try:
        # the other workers' read ends too: while a worker held one, that
        # pipe would stay open after the parent closed it, and its writer
        # would never get EPIPE
        for reader in readers:
            reader.close()
        for i in range(first, len(items), step):
            try:
                result = (fn(items[i]), None)
                payload, failed = pickle.dumps(result, pickle.HIGHEST_PROTOCOL), False
            except BaseException as exc:  # from fn, or a value that cannot be pickled
                payload, failed = _pickled_failure(exc), True
            for chunk in (len(payload).to_bytes(8, "little"), payload):
                view = memoryview(chunk)
                while view:
                    view = view[os.write(write_end, view):]
            if failed:
                break
    except BaseException:  # EPIPE from a parent that closed early, or an interrupt
        code = 1
    finally:
        try:
            _flush_stdio()
        finally:
            os._exit(code)


def _pickled_failure(exc: BaseException) -> bytes:
    """``(exc, its traceback text)`` pickled; an exception that cannot be
    pickled is sent as a RuntimeError that names it."""
    trace = "".join(traceback.format_exception(exc))
    try:
        return pickle.dumps((exc, trace), pickle.HIGHEST_PROTOCOL)
    except Exception:
        return pickle.dumps((RuntimeError(f"{exc!r}, which cannot be pickled"), trace))


def _receive(reader):
    """The next ``(value, trace)`` pair on ``reader``; None if the worker
    closed its pipe first."""
    header = reader.read(8)
    if len(header) == 8:
        size = int.from_bytes(header, "little")
        payload = reader.read(size)
        if len(payload) == size:
            return pickle.loads(payload)
    return None


def _death(pid: int, index: int, total: int) -> str:
    """Reap the worker ``pid``, which closed its pipe before sending item
    ``index``, and say how it ended."""
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code < 0:
        try:
            how = f"was killed by signal {-code} ({signal.Signals(-code).name})"
        except ValueError:
            how = f"was killed by signal {-code}"
    else:
        how = f"exited with code {code}"
    return f"worker process {pid} {how} before returning item {index + 1} of {total}"


def _flush_stdio() -> None:
    for stream in (sys.stdout, sys.stderr):
        with contextlib.suppress(Exception):  # absent, closed, or a broken pipe
            stream.flush()
