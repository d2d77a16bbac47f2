import ctypes
import os
from types import SimpleNamespace

import numpy as np
import pytest

from raredapt import Dataset, GenSpec, data, generate, make_rng, parallel
from raredapt.domains import BatchPair
from raredapt.network import Network, NetworkSpec

KINK_MARGIN = 5e-3  # finite differences are invalid within ~h of a ReLU kink


# GenSpec fields of a generator with no real/synthetic discrepancy (A = I,
# b = 0, matched noise) and no location jitter, so real and synthetic rare
# rows are drawn i.i.d. from one Gaussian
ZERO_GAP = dict(gap_condition=1.0, gap_rotation=0.0, gap_offset=0.0, gap_noise_factor=1.0,
                location_jitter=0.0)


def tiny_gen_spec(**overrides) -> GenSpec:
    """Small, fast benchmark for unit tests (keeps the 41-sample rare class)."""
    base = dict(
        class_count=4,
        feature_dim=8,
        rare_class_id=3,
        train_counts=(120, 90, 60, 41),
        val_count_per_class=15,
        test_count_per_class=25,
        synthetic_pool_size=400,
        seed=0,
    )
    base.update(overrides)
    return GenSpec(**base)


def pytest_report_header(config):
    """Name the platform the golden digests depend on: numpy's version, the
    SIMD targets its dispatch enabled (``np.exp`` and ``np.log`` give other
    last bits under AVX2 than under AVX-512) and OpenBLAS's build and kernel."""
    lines = [f"numpy {np.__version__}"]
    try:
        try:
            from numpy._core import _multiarray_umath as umath
        except ImportError:  # numpy 1.x
            from numpy.core import _multiarray_umath as umath
        targets = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
        lines.append(f"numpy dispatch targets: {' '.join(targets) or 'none'}")
    except Exception as exc:  # the header must never fail the run
        lines.append(f"numpy dispatch targets: unknown ({type(exc).__name__})")
    try:
        found = [parallel.openblas(name) for name in ("get_config", "get_corename")]
        if None in found:
            raise LookupError("no OpenBLAS found")
        for fn in found:
            fn.argtypes, fn.restype = [], ctypes.c_char_p
        config_text, core = (fn().decode("ascii", "replace") for fn in found)
        lines.append(f"OpenBLAS: {config_text} (core {core})")
    except Exception as exc:
        lines.append(f"OpenBLAS: unknown ({type(exc).__name__}: {exc})")
    return lines


@pytest.fixture(autouse=True)
def blas_thread_count_is_restored():
    """Every test leaves the process's OpenBLAS thread count as it found it."""
    blas = parallel.blas_threads()
    before = blas[0]() if blas else None
    yield
    if blas:
        assert blas[0]() == before, "the test left the BLAS thread count changed"


@pytest.fixture(autouse=True)
def no_child_process_is_left():
    """Every test reaps each process it starts, a map's workers too, however
    they were started."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # this process has no child at all
        return
    left = f"child process {pid}, which had exited" if pid else "a running child process"
    raise AssertionError(f"the test left {left} unreaped")


def counting_forks(monkeypatch) -> list[int]:
    """Patch ``os.fork`` to record, in the returned list, the pid of each
    child this process forks."""
    forks = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return forks


def force_csv_workers(monkeypatch, cores: int = 2, block_rows: int = 7) -> None:
    """Make ``save_csv`` format even a tiny dataset on ``cores`` pool workers,
    in blocks of ``block_rows`` rows, so that the in-flight bound is reached."""
    monkeypatch.setattr(data, "ROWS_PER_WORKER", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
    monkeypatch.setattr(data, "_BLOCK_ROWS", block_rows)


@pytest.fixture(scope="session")
def tiny_dataset():
    return generate(tiny_gen_spec())


def rows_moved(dataset, split, to, keep_class=None, only_class=None) -> Dataset:
    """A copy of ``dataset`` whose ``split`` rows carry split ``to`` instead,
    except the rows of ``keep_class``; with ``only_class``, only that class's
    rows move."""
    moving = dataset.splits == split
    if keep_class is not None:
        moving &= dataset.class_ids != keep_class
    if only_class is not None:
        moving &= dataset.class_ids == only_class
    return Dataset(features=dataset.features, class_ids=dataset.class_ids,
                   domains=dataset.domains, location_ids=dataset.location_ids,
                   splits=np.where(moving, to, dataset.splits))


def micro_spec(rng: np.random.Generator) -> NetworkSpec:
    """Random micro network with all dims <= 8, for gradient checks."""
    d_in = int(rng.integers(2, 8))
    d_h = int(rng.integers(2, 8))
    d_f = int(rng.integers(2, 8))
    k = int(rng.integers(2, 8))
    d_dh = int(rng.integers(2, 8))
    return NetworkSpec(d_in, k, (d_h, d_f), (), (d_dh,))


def make_gradcheck_net(seed: int) -> tuple[Network, np.random.Generator]:
    """Random micro net with jittered biases so no pre-activation sits at 0.

    Zero-initialized biases put entire layers exactly on the ReLU kink for
    dead inputs, where the loss is not differentiable and central differences
    are meaningless; small random biases move the kinks off that measure-zero
    set. Callers must still reject instances whose traces come within
    KINK_MARGIN of a kink (see ``trace_clear_of_kinks``).
    """
    rng = make_rng(seed, 99)
    net = Network.initialize(micro_spec(rng), rng)
    for _, _, layer in net.parameters():
        layer.b[...] = rng.standard_normal(layer.b.shape) * 0.3
    return net, rng


def trace_clear_of_kinks(net, *part_traces, margin: float = KINK_MARGIN) -> bool:
    """True if every pre-activation of each ``(part, trace)`` of ``net`` is at
    least ``margin`` from 0. A trace keeps no pre-activation, so each one is
    recomputed as ``input @ w + b`` from the layer's input, as the forward
    pass computes it."""
    return all(
        np.abs(inp @ layer.w + layer.b).min() >= margin
        for part, tr in part_traces
        for layer, inp in zip(net.parts[part], [tr.x, *tr.act[:-1]])
    )


def batch_pair(method, rare_class_id, xs, ys, xt=None, yt=None):
    """A hand-built step input, routed as the paper routes one: a small array
    holder with the source rows, then the target rows, all real, and a
    ``BatchPair`` of their indices; pass no target batch for the baseline.
    deerdann routes the rare-class rows, alldann every row, and the other
    methods none; the routing is computed here, apart from the library.
    Returns ``(rows, pair)``."""
    n = len(ys)
    xt, yt = (xs[:0], ys[:0]) if xt is None else (xt, yt)
    rows = SimpleNamespace(features=np.vstack([xs, xt]), class_ids=np.concatenate([ys, yt]),
                           domains=np.full(n + len(yt), "real"))
    target = np.arange(n, n + len(yt)) if len(yt) else None

    def routed(y):
        keep = [method == "alldann" or (method == "deerdann" and c == rare_class_id) for c in y]
        return np.array([i for i, k in enumerate(keep) if k], dtype=np.int64)

    return rows, BatchPair(np.arange(n), target, routed(ys), routed(yt))
