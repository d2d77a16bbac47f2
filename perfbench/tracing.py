"""Span tracer that wraps raredapt's public callables from outside the package.

Each wrapper is installed under the name its caller looks up (for example
``raredapt.training.cross_entropy``, which ``train`` calls, or
``raredapt.cli.load_csv``, which the CLI calls), so the package itself is not
edited. A span records its name, the enclosing span's name, the training
method active at the time, its duration, its self time (duration minus the
time covered by child spans) and a row count. Spans stay in memory until the
run ends; forked sweep workers append theirs to one file per process after
each cell, because a pool worker has no exit hook the benchmark can rely on.
"""

from __future__ import annotations

import functools
import gzip
import json
import os
import statistics
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

import raredapt.cli
import raredapt.training
from raredapt.network import Network
from raredapt.training import Adam

from catalogue import ROW_SPANS, STEP_LAYERS, STEP_SPANS

# The pool pickles the sweep cell function by its import path, so the
# replacement must be a module-level function that finds its tracer here.
_ACTIVE: "Tracer | None" = None

ADVERSARIAL = ("deerdann", "alldann")


def _rows_of_arg1(args) -> int:
    return int(np.shape(args[1])[0])


def _rows_of_arg0(args) -> int:
    return int(np.shape(args[0])[0])


# (module or class, attribute, span name, row counter)
_TARGETS = (
    (raredapt.training, "cross_entropy", "losses.cross_entropy", _rows_of_arg0),
    (raredapt.training, "domain_confusion", "losses.domain_confusion", _rows_of_arg0),
    (raredapt.training, "coral_loss", "losses.coral_loss", _rows_of_arg0),
    (raredapt.training, "evaluate", "metrics.evaluate", None),
    (Network, "forward_features", "network.forward_features", _rows_of_arg1),
    (Network, "forward_classifier", "network.forward_classifier", _rows_of_arg1),
    (Network, "forward_discriminator", "network.forward_discriminator", _rows_of_arg1),
    (Network, "backward", "network.backward", None),
    (Network, "zero_grads", "network.zero_grads", None),
    (Network, "snapshot", "network.snapshot", None),
    (Adam, "step", "training.adam_step", None),
    (raredapt.cli, "generate", "data.generate", None),
    (raredapt.cli, "save_csv", "data.save_csv", None),
    (raredapt.cli, "load_csv", "data.load_csv", None),
    (raredapt.cli, "save_checkpoint", "checkpoint.save", None),
    (raredapt.cli, "load_checkpoint", "checkpoint.load", None),
    (raredapt.cli, "project_features", "projection.project_features", None),
    (raredapt.cli, "export_scatter", "projection.export_scatter", None),
    (raredapt.cli, "bimodality_score", "projection.bimodality_score", None),
)


class Tracer:
    """In-memory span recorder; ``install`` patches raredapt, ``uninstall`` restores it."""

    def __init__(self, spans_dir: Path):
        self.spans_dir = spans_dir
        self.spans: list[tuple] = []  # (name, parent, tag, dur_ns, self_ns, rows)
        self.counts: Counter = Counter()  # (name, tag) -> count
        self.tag: str | None = None
        self._stack: list[list] = []  # [name, rows, child_ns, start_ns]
        self._saved: list[tuple] = []
        self.pid = os.getpid()
        self.original_train = raredapt.cli.train
        self.original_cell = raredapt.cli._sweep_run_one
        os.register_at_fork(after_in_child=self._drop_spans)

    def _drop_spans(self) -> None:
        self.spans, self.counts, self._stack = [], Counter(), []

    def begin(self, name: str, rows: int = 0) -> None:
        self._stack.append([name, rows, 0, time.perf_counter_ns()])

    def end(self) -> None:
        now = time.perf_counter_ns()
        name, rows, child_ns, start = self._stack.pop()
        dur = now - start
        parent = None
        if self._stack:
            self._stack[-1][2] += dur
            parent = self._stack[-1][0]
        self.spans.append((name, parent, self.tag, dur, dur - child_ns, rows))

    def wrap(self, name: str, fn, rows_of=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.begin(name, rows_of(args) if rows_of else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end()

        return traced

    def traced_train(self, dataset, config):
        """``train`` under a ``training.train`` span tagged with the method."""
        outer, self.tag = self.tag, config.method
        self.begin("training.train")
        try:
            return self.original_train(dataset, config)
        finally:
            self.end()
            self.tag = outer

    def _traced_sampler(self, sampler):
        @functools.wraps(sampler)
        def traced(org, *args, **kwargs):
            it = sampler(org, *args, **kwargs)
            while True:
                self.begin("domains.paired_sampler")
                try:
                    pair = next(it)
                except StopIteration:
                    return
                finally:
                    self.end()
                self.counts["domains.batches", self.tag] += 1
                if org.method in ADVERSARIAL:
                    routed = pair.routed_source_rows.size + pair.routed_target_rows.size
                    self.counts["domains.routed_rows", self.tag] += routed
                yield pair

        return traced

    def _patch(self, owner, attr, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        global _ACTIVE
        _ACTIVE = self
        for owner, attr, name, rows_of in _TARGETS:
            self._patch(owner, attr, self.wrap(name, getattr(owner, attr), rows_of))
        training = raredapt.training
        self._patch(training, "paired_sampler", self._traced_sampler(training.paired_sampler))
        self._patch(raredapt.cli, "train", self.traced_train)
        self._patch(raredapt.cli, "_sweep_run_one", sweep_cell)

    def uninstall(self) -> None:
        global _ACTIVE
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        _ACTIVE = None

    def flush_to_file(self) -> None:
        """In a forked worker: append its spans and counts to its own file, then forget them."""
        if os.getpid() == self.pid:
            return
        self.spans_dir.mkdir(parents=True, exist_ok=True)
        with open(self.spans_dir / f"spans-{os.getpid()}.jsonl", "a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(["span", *span]) + "\n")
            for (name, tag), value in self.counts.items():
                fh.write(json.dumps(["count", name, tag, value]) + "\n")
        self._drop_spans()

    def collect_files(self) -> None:
        """Merge the workers' span files into memory and delete them."""
        for path in sorted(self.spans_dir.glob("spans-*.jsonl")):
            for line in path.read_text(encoding="utf-8").splitlines():
                kind, *fields = json.loads(line)
                if kind == "span":
                    self.spans.append(tuple(fields))
                else:
                    name, tag, value = fields
                    self.counts[name, tag] += value
            path.unlink()

    def write(self, path: Path) -> None:
        """Write every span, one JSON list per line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps(["name", "parent", "method", "dur_ns", "self_ns", "rows"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def sweep_cell(job: dict) -> dict:
    """Replacement for ``raredapt.cli._sweep_run_one``: one ``cli.sweep.cell`` span per cell."""
    tracer = _ACTIVE
    tracer.begin("cli.sweep.cell")
    try:
        return tracer.original_cell(job)
    finally:
        tracer.end()
        tracer.flush_to_file()


# Spans of the I/O layers, reported as the median duration of one call.
_PER_CALL = {
    "data.generate": ("data.generate_s", 1e-9),
    "data.save_csv": ("data.save_csv_s", 1e-9),
    "data.load_csv": ("data.load_csv_s", 1e-9),
    "checkpoint.save": ("checkpoint.save_ms", 1e-6),
    "checkpoint.load": ("checkpoint.load_ms", 1e-6),
    "projection.project_features": ("projection.project_features_ms", 1e-6),
    "projection.export_scatter": ("projection.export_scatter_ms", 1e-6),
    "projection.bimodality_score": ("projection.bimodality_score_ms", 1e-6),
    "cli.sweep.cell": ("cli.sweep.cell_s_p50", 1e-9),
}


def layer_metrics(spans, counts, iterations: int) -> dict[str, float]:
    """Per-layer numbers from spans; totals are per workload iteration."""
    by_name = defaultdict(list)
    for span in spans:
        by_name[span[0]].append(span)
    out: dict[str, float] = {}
    per_iter = 1.0 / max(iterations, 1)
    for name, group in by_name.items():
        if name in STEP_SPANS:
            out[f"{name}.self_ms"] = sum(s[4] for s in group) / 1e6 * per_iter
            if name != "domains.paired_sampler":
                out[f"{name}.calls"] = len(group) * per_iter
        if name in ROW_SPANS:
            out[f"{name}.rows"] = sum(s[5] for s in group) * per_iter
        if name in _PER_CALL:
            metric, scale = _PER_CALL[name]
            out[metric] = statistics.median(s[3] for s in group) * scale
    if "metrics.evaluate" in by_name:
        evaluated = (s[5] for s in by_name["network.forward_features"] if s[1] == "metrics.evaluate")
        out["metrics.evaluate.rows"] = sum(evaluated) * per_iter
    if "training.train" in by_name:
        out["training.train.wall_ms"] = sum(s[3] for s in by_name["training.train"]) / 1e6 * per_iter
    adam_us = [s[3] / 1e3 for s in by_name.get("training.adam_step", ())]
    if len(adam_us) >= 2:
        cuts = statistics.quantiles(adam_us, n=100)
        out["training.adam_step.us_p50"] = cuts[49]
        out["training.adam_step.us_p99"] = cuts[98]
    batches = {tag: v for (name, tag), v in counts.items() if name == "domains.batches"}
    if batches:
        out["domains.paired_sampler.batches"] = sum(batches.values()) * per_iter
    adversarial = sum(v for tag, v in batches.items() if tag in ADVERSARIAL)
    if adversarial:
        routed = sum(v for (name, _), v in counts.items() if name == "domains.routed_rows")
        out["domains.routed_rows_per_step"] = routed / adversarial
    return out


def us_per_step(spans, steps_by_method: dict[str, int], iterations: int) -> dict[str, float]:
    """``<layer>.us_per_step.<method>``: each step layer's self time per optimizer
    step of one method, given the steps of one ``train()`` per method."""
    per_iter = 1.0 / max(iterations, 1)
    out = {}
    for method, steps in steps_by_method.items():
        for layer in STEP_LAYERS:
            self_ns = sum(s[4] for s in spans if s[2] == method and s[0].startswith(layer + "."))
            out[f"{layer}.us_per_step.{method}"] = self_ns / 1e3 / steps * per_iter
    return out
