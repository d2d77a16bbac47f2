"""The three workloads, their pinned inputs, and their output checks.

table   One in-process ``train()`` per method, all four methods, on a dataset
        generated in memory. Almost all time is the training step (sampler,
        network, losses, Adam, per-epoch evaluate); no CSV or checkpoint I/O.
        A step optimisation shows here; a data-I/O one must not.
sweep   ``main(["sweep", ...])`` for deerdann over counts 0..2000 x 2 seeds with
        ``--jobs`` = nproc (at most 4). Every pool worker parses the CSV, and
        every cell writes a run directory; count-0 cells run 42 steps per epoch
        and count-2000 cells 73, so pool idle time shows.
ingest  No training: ``main(["gen-data"])`` writes the CSV, ``load_csv`` reads
        it, and ``main(["project", ...])`` runs a checkpoint made in set-up over
        trans_test plus the synthetic pool (about 10.6k rows, forward only).

Every input value is spelled out below rather than taken from package
defaults, so a change of a ``GenSpec`` or ``TrainConfig`` default cannot change
what the benchmark measures.

Each run repeats one round of its unit of work for ``--seconds``; round 0
warms up and is not timed. Output checks run outside the timed part of a
round. ``round_s`` is the 90th percentile of the timed rounds: the host this
was tuned on (2 shared cores) has fast phases of tens of seconds in which all
work runs up to 1.6 times faster, and the median and the mean follow the share
of such phases in a run, which differs from run to run. Across sets of 5 and 10 seeds
the 90th percentile had the smallest spread (0.06 against 0.09 for the median
at 35 s; 0.14 against 0.25 in a noisier period). The median is in the record.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import raredapt
from raredapt import GenSpec, TrainConfig
from raredapt.checkpoint import load_checkpoint, save_checkpoint
from raredapt.cli import main
from raredapt.data import DataFormatError, datasets_equal, generate, load_csv, save_csv
from raredapt.domains import build_domains, paired_sampler
from raredapt.metrics import evaluate

from catalogue import METHODS
from tracing import Tracer, layer_metrics, us_per_step

GEN_SPEC = dict(
    class_count=8,
    feature_dim=32,
    rare_class_id=7,
    train_counts=None,
    max_train_count=1000,
    rare_train_count=41,
    val_count_per_class=40,
    test_count_per_class=80,
    locations_per_class=6,
    trans_locations_per_class=2,
    class_mean_scale=1.0,
    location_jitter=0.5,
    noise_scale=0.35,
    synthetic_pool_size=10000,
    gap_condition=1.5,
    gap_rotation=0.5236,
    gap_offset=1.0,
    gap_noise_factor=1.5,
    gap_matrix=None,
    gap_offset_vector=None,
)

TRAIN_CONFIG = dict(
    batch_size=64,
    learning_rate=1e-3,
    beta1=0.9,
    beta2=0.999,
    adam_eps=1e-8,
    l2=1e-4,
    coral_weight=0.5,
    domain_weight=1.0,
    grl_scale=1.0,
    grl_ramp_epochs=0,
    head_lr_multiplier=10.0,
    oversample_factor=50,
    coral_layer="logits",
    discriminator_labels="membership",
    feature_jitter=0.0,
    feature_dims=(64, 32),
    classifier_hidden=(),
    discriminator_hidden=(32,),
    selection_tolerance_points=1.0,
    rare_class_id=None,
)


@dataclass(frozen=True)
class Sizes:
    """Workload sizes; ``TINY`` exists only for the self-test."""

    gen_overrides: dict
    epochs: int
    synthetic_count: int
    sweep_counts: tuple[int, ...]
    sweep_epochs: int
    setup_repeats: int


FULL = Sizes({}, epochs=5, synthetic_count=2000, sweep_counts=(0, 500, 1000, 2000),
             sweep_epochs=5, setup_repeats=5)
TINY = Sizes(
    dict(class_count=4, feature_dim=8, rare_class_id=3, train_counts=(120, 90, 60, 41),
         val_count_per_class=15, test_count_per_class=25, synthetic_pool_size=400),
    epochs=2, synthetic_count=400, sweep_counts=(0, 400), sweep_epochs=1, setup_repeats=2,
)

# Loss fields of an EpochRecord that each method defines (the others are NaN).
_LOSSES = {
    "baseline": ("classification_loss", "composite_loss"),
    "deerdann": ("classification_loss", "composite_loss", "domain_loss", "discriminator_acc"),
    "alldann": ("classification_loss", "composite_loss", "domain_loss", "discriminator_acc"),
    "deercoral": ("classification_loss", "composite_loss", "coral_term"),
}


def unpinned_fields() -> list[str]:
    """Fields the package has that the pinned inputs do not spell out."""
    missing = [f"GenSpec.{f.name}" for f in dataclasses.fields(GenSpec)
               if f.name not in GEN_SPEC and f.name != "seed"]
    per_run = {"method", "seed", "epochs", "synthetic_count"}
    missing += [f"TrainConfig.{f.name}" for f in dataclasses.fields(TrainConfig)
                if f.name not in TRAIN_CONFIG and f.name not in per_run]
    return missing


@dataclass
class Run:
    """One benchmark run: inputs, the clock, and the tally of operations."""

    workload: str
    seed: int
    seconds: float
    sizes: Sizes
    workdir: Path
    tracer: Tracer | None
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    record: dict = field(default_factory=dict)

    def gen_spec(self) -> GenSpec:
        return GenSpec(**{**GEN_SPEC, **self.sizes.gen_overrides, "seed": self.seed})

    def train_config(self, method: str, **overrides) -> TrainConfig:
        values = dict(TRAIN_CONFIG, method=method, epochs=self.sizes.epochs,
                      synthetic_count=self.sizes.synthetic_count, seed=self.seed)
        return TrainConfig(**{**values, **overrides})

    def operation(self, what: str, problems: list[str]) -> bool:
        """Count one operation; any problem (a failed check) makes it a failed one."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)
        return not problems

    def set_up(self, fn) -> None:
        """Run the set-up ``setup_repeats`` times and report the median as ``setup_s``."""
        times = []
        for _ in range(self.sizes.setup_repeats):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        self.metrics["setup_s"] = statistics.median(times)

    def iterations(self, at_least: int = 1):
        """Yield 0, 1, ... while the next iteration, as long as the last one,
        still ends within ``seconds`` (and at least ``at_least`` times)."""
        start = last = time.perf_counter()
        i = 0
        while i < at_least or 2 * time.perf_counter() - last - start <= self.seconds:
            last = time.perf_counter()
            yield i
            i += 1

    @contextlib.contextmanager
    def tracing(self, on: bool):
        """Install the tracer for the ``with`` block when ``on``."""
        if on:
            self.tracer.install()
        try:
            yield
        finally:
            if on:
                self.tracer.uninstall()

    def rounds(self, one_round) -> dict[bool, list[float]]:
        """Repeat ``one_round(traced, timed)`` for ``seconds``. It returns the
        round's timed seconds, or None if an operation in it failed. Round 0
        warms up and is not timed; a traced run then alternates traced and
        untraced rounds, which gives the tracing overhead. Returns traced? ->
        seconds of the timed rounds."""
        times = {False: [], True: []}
        for i in self.iterations(at_least=3 if self.tracer else 2):
            traced = self.tracer is not None and i % 2 == 1
            seconds = one_round(traced, i > 0)
            if i > 0 and seconds is not None:
                times[traced].append(seconds)
        self.record["round_seconds"] = {"untraced": times[False], "traced": times[True]}
        if times[False]:
            self.metrics["round_s"] = p90(times[False])
            self.record["round_s_median"] = statistics.median(times[False])
        if times[False] and times[True]:
            overhead = statistics.median(times[True]) / statistics.median(times[False]) - 1.0
            self.metrics["trace.overhead"] = overhead
        return times

    def peak_rss_mb(self, workers: int = 0) -> None:
        """Peak RSS of this process plus ``workers`` children at the largest child's peak."""
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        self.metrics["peak_rss_mb"] = (own + workers * child) / 1024.0


def p90(values: list[float]) -> float:
    """90th percentile, interpolated between the measured values."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _cli(argv: list[str]) -> int:
    """``raredapt.cli.main`` with its progress output kept off the benchmark's stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return main([str(a) for a in argv])


def _config_file(path: Path, config) -> Path:
    """Write a GenSpec/TrainConfig as the JSON the CLI's ``--spec``/``--config`` reads."""
    payload = {k: list(v) if isinstance(v, tuple) else v
               for k, v in dataclasses.asdict(config).items()}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def history_digest(history) -> str:
    """SHA-256 over every loss and split metric of a history, bit for bit."""
    h = hashlib.sha256()
    for rec in history:
        losses = (rec.classification_loss, rec.domain_loss, rec.coral_term,
                  rec.composite_loss, rec.discriminator_acc)
        h.update(f"{rec.epoch}:{':'.join(float(v).hex() for v in losses)}".encode())
        for split in sorted(rec.split_metrics):
            m = rec.split_metrics[split]
            h.update(split.encode())
            h.update(np.ascontiguousarray(m.per_class_acc, dtype="<f8").tobytes())
            h.update(np.ascontiguousarray(m.confusion, dtype="<i8").tobytes())
    return h.hexdigest()


def _same_metrics(a, b) -> bool:
    return (
        np.array_equal(a.per_class_acc, b.per_class_acc, equal_nan=True)
        and np.array_equal(a.confusion, b.confusion)
        and all(x == y or (math.isnan(x) and math.isnan(y))
                for x, y in ((a.rare_acc, b.rare_acc), (a.other_macro, b.other_macro),
                             (a.overall, b.overall)))
    )


def check_train(dataset, config: TrainConfig, checkpoint, history) -> list[str]:
    problems = []
    if len(history) != config.epochs:
        problems.append(f"history has {len(history)} entries, expected {config.epochs}")
    for rec in history:
        bad = [name for name in _LOSSES[config.method] if not math.isfinite(getattr(rec, name))]
        if bad:
            problems.append(f"epoch {rec.epoch}: non-finite {', '.join(bad)}")
    again = evaluate(checkpoint.build_network(), dataset, "trans_test", config.rare_class_id)
    if not _same_metrics(again, history[checkpoint.epoch].split_metrics["trans_test"]):
        problems.append(f"selected checkpoint (epoch {checkpoint.epoch}) does not reproduce trans_test")
    return problems


def count_steps(dataset, config: TrainConfig) -> int:
    """Optimizer steps one ``train()`` takes: batches of every epoch's sampler pass."""
    org = build_domains(dataset, config.method, config.synthetic_count,
                        oversample_factor=config.oversample_factor, seed=config.seed,
                        rare_class_id=config.rare_class_id)
    return sum(sum(1 for _ in paired_sampler(org, config.batch_size, config.seed, epoch))
               for epoch in range(config.epochs))


def table(run: Run) -> None:
    state = {}

    def set_up():
        dataset = generate(run.gen_spec())
        state["dataset"] = dataset
        state["steps"] = {m: count_steps(dataset, run.train_config(m)) for m in METHODS}

    run.set_up(set_up)
    dataset, steps = state["dataset"], state["steps"]
    tracer = run.tracer
    per_method = {False: [], True: []}  # traced? -> per-round {method: train() seconds}
    digests = {m: set() for m in METHODS}

    def one_round(traced: bool, timed: bool) -> float | None:
        seconds, results = {}, {}
        with run.tracing(traced):
            for method in METHODS:
                config = run.train_config(method)
                t0 = time.perf_counter()
                try:
                    results[method] = (tracer.traced_train if traced else raredapt.train)(dataset, config)
                except Exception as exc:  # a failed train() is a failed operation
                    run.operation(f"train {method}", [f"{type(exc).__name__}: {exc}"])
                    continue
                seconds[method] = time.perf_counter() - t0
        for method, (checkpoint, history) in results.items():
            config = run.train_config(method)
            digests[method].add(history_digest(history))
            run.operation(f"train {method}", check_train(dataset, config, checkpoint, history))
        if len(seconds) < len(METHODS):
            return None
        if timed:
            per_method[traced].append(seconds)
        return sum(seconds.values())

    times = run.rounds(one_round)
    for method, seen in digests.items():
        if len(seen) > 1:
            run.operation(f"history digest {method}", ["differs between rounds of one run"])
    run.record["history_sha256"] = {m: sorted(d) for m, d in digests.items()}
    run.record["steps_per_train"] = steps
    run.record["train_seconds"] = {"untraced": per_method[False], "traced": per_method[True]}
    untraced = per_method[False]
    if untraced:
        # Optimizer steps over summed train() time, all methods and per method.
        run.record["steps_per_s"] = sum(steps.values()) * len(untraced) / sum(times[False])
        for m in METHODS:
            run.record[f"steps_per_s.{m}"] = steps[m] * len(untraced) / sum(r[m] for r in untraced)
    if tracer is None:
        run.peak_rss_mb()
        return
    n = len(per_method[True])
    layer = layer_metrics(tracer.spans, tracer.counts, n)
    if n and layer.get("domains.paired_sampler.batches", 0) != sum(steps.values()):
        run.operation("trace", ["sampler batches in the trace disagree with the counted steps"])
    train_wall = sum(s[3] for s in tracer.spans if s[0] == "training.train")
    train_self = sum(s[4] for s in tracer.spans)  # every span nests inside a train() span
    if n and abs(train_self - train_wall) > 1e-6 * train_wall:
        run.operation("trace", ["self times do not add up to the train() wall time"])
    run.record["us_per_step"] = us_per_step(tracer.spans, steps, n)
    run.metrics.update(layer)


def check_sweep(out: Path, rc: int, counts, seeds) -> tuple[list[str], int]:
    """Problems with one sweep's outputs, and the size of one cell checkpoint."""
    if rc != 0:
        return [f"exit code {rc}"], 0
    problems = []
    if (out / "failures.json").exists():
        problems.append("failures.json written")
    curve = out / "sweep_deerdann.csv"
    rows = len(curve.read_text(encoding="utf-8").splitlines()) - 1 if curve.is_file() else 0
    if rows != len(counts) * len(seeds):
        problems.append(f"{rows} curve rows, expected {len(counts) * len(seeds)}")
    ckpt_bytes = 0
    for count in counts:
        for seed in seeds:
            path = out / "cells" / f"deerdann_count{count}_seed{seed}" / "checkpoint.ckpt"
            try:
                load_checkpoint(path)
            except Exception as exc:  # any unreadable checkpoint fails the check
                problems.append(f"{path.parent.name}: {type(exc).__name__}: {exc}")
                continue
            ckpt_bytes = path.stat().st_size
    return problems, ckpt_bytes


def sweep(run: Run) -> None:
    jobs = max(1, min(len(os.sched_getaffinity(0)), 4))
    data = run.workdir / "sweep.csv"
    counts = run.sizes.sweep_counts
    seeds = (run.seed, run.seed + 1)
    paths = {}

    def set_up():
        paths["spec"] = _config_file(run.workdir / "spec.json", run.gen_spec())
        config = run.train_config("deerdann", epochs=run.sizes.sweep_epochs)
        paths["config"] = _config_file(run.workdir / "train.json", config)
        if _cli(["gen-data", "--spec", paths["spec"], "--out", data]) != 0:
            raise RuntimeError("gen-data failed during set-up")

    run.set_up(set_up)
    tracer = run.tracer
    busy, ckpt_bytes = [], []
    out = run.workdir / "sweep"
    argv = ["sweep", "--data", data, "--method", "deerdann",
            "--counts", ",".join(map(str, counts)), "--seeds", ",".join(map(str, seeds)),
            "--out", out, "--jobs", jobs, "--config", paths["config"]]

    def one_round(traced: bool, timed: bool) -> float | None:
        first_span = len(tracer.spans) if tracer else 0
        with run.tracing(traced):
            t0 = time.perf_counter()
            rc = _cli(argv)
            wall = time.perf_counter() - t0
        problems, size = check_sweep(out, rc, counts, seeds)
        ckpt_bytes.append(size)
        shutil.rmtree(out, ignore_errors=True)
        if traced:
            tracer.collect_files()
            cells = [s[3] for s in tracer.spans[first_span:] if s[0] == "cli.sweep.cell"]
            busy.append(sum(cells) / 1e9 / (jobs * wall))
        return wall if run.operation("sweep", problems) else None

    times = run.rounds(one_round)
    run.record["jobs"] = jobs
    if times[False]:
        cells = len(counts) * len(seeds) * len(times[False])
        run.record["sweep_cells_per_min"] = cells / sum(times[False]) * 60.0
    if tracer is None:
        # The workers run side by side and are alike, so each is counted at the largest one's peak.
        run.peak_rss_mb(workers=jobs)
        return
    layer = layer_metrics(tracer.spans, tracer.counts, len(busy))
    layer["cli.sweep.worker_busy_share"] = statistics.median(busy)
    if "data.load_csv_s" in layer:
        layer["cli.sweep.worker_load_csv_s"] = layer.pop("data.load_csv_s")
    layer["checkpoint.bytes"] = ckpt_bytes[-1]
    layer["data.csv_bytes"] = data.stat().st_size
    run.metrics.update(layer)


def ingest(run: Run) -> None:
    csv, resaved = run.workdir / "ingest.csv", run.workdir / "resaved.csv"
    rundir, projdir = run.workdir / "run", run.workdir / "projection"
    state = {}

    def set_up():
        spec = run.gen_spec()
        state["spec"] = _config_file(run.workdir / "spec.json", spec)
        state["reference"] = reference = generate(spec)
        checkpoint, _ = raredapt.train(reference, run.train_config("baseline"))
        rundir.mkdir(parents=True, exist_ok=True)
        save_checkpoint(checkpoint, rundir / "checkpoint.ckpt")

    run.set_up(set_up)
    reference = state["reference"]
    tracer = run.tracer
    parts = {"gen_data_s": [], "load_csv_s": [], "project_s": []}

    def one_round(traced: bool, timed: bool) -> float | None:
        read = tracer.wrap("data.load_csv", load_csv) if traced else load_csv
        csv.unlink(missing_ok=True)
        shutil.rmtree(projdir, ignore_errors=True)
        with run.tracing(traced):
            t0 = time.perf_counter()
            rc = _cli(["gen-data", "--spec", state["spec"], "--out", csv])
            gen_s = time.perf_counter() - t0
        if not run.operation("gen-data", [] if rc == 0 and csv.is_file() else [f"exit code {rc}"]):
            return None

        with run.tracing(traced):
            t0 = time.perf_counter()
            try:
                loaded = read(csv)
            except (DataFormatError, OSError) as exc:
                run.operation("load_csv", [f"{type(exc).__name__}: {exc}"])
                return None
            load_s = time.perf_counter() - t0
        problems = [] if datasets_equal(loaded, reference) else ["differs from the generated dataset"]
        # Every round writes the same CSV, so one re-save shows the round trip
        # for all: later rounds compare their file's digest with the first's.
        digest = hashlib.sha256(csv.read_bytes()).hexdigest()
        if "csv_sha256" not in state:
            save_csv(loaded, resaved)
            if resaved.read_bytes() != csv.read_bytes():
                problems.append("re-saving is not byte-identical")
            state["csv_sha256"] = digest
        elif digest != state["csv_sha256"]:
            problems.append("gen-data wrote a different file than in the first round")
        if not run.operation("load_csv", problems):
            return None

        with run.tracing(traced):
            t0 = time.perf_counter()
            rc = _cli(["project", "--run", rundir, "--data", csv, "--split", "trans_test",
                       "--out", projdir])
            project_s = time.perf_counter() - t0
        ok = rc == 0 and (projdir / "projection.json").is_file()
        if not run.operation("project", [] if ok else [f"exit code {rc}, no projection.json"]):
            return None
        if timed and not traced:
            for name, value in zip(parts, (gen_s, load_s, project_s)):
                parts[name].append(value)
        return gen_s + load_s + project_s

    times = run.rounds(one_round)
    run.record["op_seconds"] = parts
    run.record["csv_sha256"] = state.get("csv_sha256")
    for name, values in parts.items():
        if values:
            run.record[name] = statistics.median(values)
    if tracer is None:
        run.peak_rss_mb()
        return
    layer = layer_metrics(tracer.spans, tracer.counts, len(times[True]))
    layer["data.csv_bytes"] = csv.stat().st_size if csv.is_file() else 0
    layer["checkpoint.bytes"] = (rundir / "checkpoint.ckpt").stat().st_size
    run.metrics.update(layer)


WORKLOADS = {"table": table, "sweep": sweep, "ingest": ingest}
