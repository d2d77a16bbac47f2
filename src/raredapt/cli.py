"""Command-line entry point.

Subcommands wire the library end to end:

    raredapt gen-data  [--spec spec.json] --out data.csv [--seed N]
    raredapt train     --data data.csv --method M --out rundir [--config cfg.json] [...]
    raredapt sweep     --data data.csv --method M --counts 0,100 --seeds 0,1 --out dir [...]
    raredapt compare   --runs dir1,dir2 --out dir
    raredapt project   --run dir --data data.csv --split s --out dir

gen-data writes two files: the dataset CSV and, beside it, its parsed cache
``<out>.parsed.npz``, which train, sweep and project read instead of parsing
the CSV while the cache still matches the CSV's bytes (see
:func:`raredapt.data.load_csv`). The cache is safe to delete. gen-data formats
a large CSV's rows on forked worker processes that inherit the dataset (see
:func:`raredapt.data.save_csv`).
Before writing, it deletes the ``<file>.<pid>.tmp`` that a killed gen-data
left for either file, and no other file.

Config files are JSON mirrors of the GenSpec / TrainConfig dataclasses; one
builder makes either, and each flag given overrides the field its dest names.
Choice flags take their choices from the library's tuples. Every subcommand is
deterministic given its inputs and seeds, and exits 0 only when the requested
artifact files were fully written. Every artifact file atomically replaces its
target (see :mod:`raredapt.artifacts`), so even a killed process leaves no
artifact half-written.

A train run directory is written in this order: config.json (resolved config
+ dataset reference), checkpoint.ckpt, history.csv (per-epoch losses and
split metrics), and selected_metrics.json (the selected checkpoint's metrics)
last, so that it marks a complete run.
Before writing, it deletes the ``<file>.<pid>.tmp`` that a killed writer of
one of those files left behind, and no other file.

A sweep directory holds one train run directory per (count, seed) cell under
cells/<method>_count<N>_seed<S>/, and the learning curve sweep_<method>.csv
with one row per successful cell (columns SWEEP_CSV_COLUMNS). --counts and
--seeds set each cell's synthetic_count and seed over any --config value. A
cell whose training diverges (TrainingDiverged) or rejects the cell's values
(ValueError, such as a count beyond the synthetic pool) gets no curve row and
no directory; its message goes to failures.json under count<N>_seed<S>, and
the sweep still exits 0; a sweep without one removes the failures.json of an
earlier sweep. Any other error ends the sweep: an OSError exits 1 with an
error line, and anything else raises with its traceback.

An undefined (NaN) metric is an empty cell in sweep_<method>.csv and
comparison.csv, null in JSON, and nan in history.csv.

The sweep runs its cells on W = min(--jobs, cells) forked worker processes,
worker j taking cells j, j + W, ... in order (see :mod:`raredapt.parallel`);
each worker loads the dataset with ``load_csv``, from the parsed cache while it
matches, in its first cell and keeps it for the rest. An unreadable CSV ends
the sweep with one error and no output directory.
A malformed --counts/--seeds list or a --jobs below 1 is a usage error (exit
2): counts and seeds are non-negative ints with no empty entry, seeds
distinct, counts strictly increasing. So is a compare --runs list with an
empty entry or two entries that resolve to one directory.

project projects the split's real rows and the whole synthetic pool onto the
first two principal components of their pre-logit features. It rejects a
dataset whose feature or class count differs from the checkpoint's network.

A worker process that dies (killed by a signal or the OOM killer) in sweep or
gen-data ends the command with exit 1 and one error line that names its pid,
its exit code or signal, and the item it did not return; gen-data then leaves
the earlier CSV and cache, or none, and no temporary file.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .artifacts import remove_stale_temps, write_csv, write_json, write_text
from .checkpoint import Checkpoint, CheckpointError, load_checkpoint, save_checkpoint
from .data import (
    SPLITS, Dataset, GenSpec, class_histogram, generate, load_csv, save_csv
)
from .domains import METHODS
from .metrics import TABLE_COLUMNS, comparison_table, none_if_nan, table_row
from .numerics import json_tuples
from .parallel import WorkerDied, ordered_map
from .projection import bimodality_score, export_scatter, project_features
from .training import (
    CORAL_LAYERS, DISCRIMINATOR_LABELS, EpochRecord, TrainConfig, TrainingDiverged, train
)

SWEEP_CSV_COLUMNS = ("count", "seed", "trans_rare_acc", "trans_other_avg", "cis_rare_acc",
                     "cis_other_avg")


class CliError(RuntimeError):
    pass


def _load_config_payload(path, cls) -> dict:
    try:
        # json_tuples recurses as deep as the parse, with two frames per level
        payload = json_tuples(json.loads(Path(path).read_text(encoding="utf-8")))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise CliError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise CliError(f"config {path} must be a JSON object")
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(payload) - known)
    if unknown:
        raise CliError(f"unknown {cls.__name__} field(s) in {path}: {', '.join(unknown)}")
    return payload


def _build_config(cls, path, args, what: str):
    """A ``cls`` from the JSON file at ``path`` (if given), overridden by every
    flag given whose ``dest`` is a field of ``cls``."""
    payload = _load_config_payload(path, cls) if path else {}
    for field in dataclasses.fields(cls):
        value = getattr(args, field.name, None)
        if value is not None:
            payload[field.name] = value
    try:
        return cls(**payload)
    except (TypeError, ValueError) as exc:
        raise CliError(f"invalid {what}: {exc}") from exc


def _write_history_csv(path, history: list[EpochRecord]) -> None:
    loss_cols = ("classification_loss", "domain_loss", "coral_term", "composite_loss",
                 "discriminator_acc")
    split_cols = [(s, m) for s in SPLITS for m in ("rare_acc", "other_macro", "overall")]
    header = ["epoch", *loss_cols] + [f"{s}_{m}" for s, m in split_cols]
    rows = (
        [rec.epoch, *(getattr(rec, c) for c in loss_cols)]
        + [getattr(rec.split_metrics[split], metric) for split, metric in split_cols]
        for rec in history
    )
    write_csv(path, header, rows)


def _selected_metrics_payload(config: TrainConfig, checkpoint: Checkpoint, history) -> dict:
    split_metrics = history[checkpoint.epoch].split_metrics
    row = table_row(split_metrics)
    return {
        "method": config.method,
        "config_hash": config.config_hash(),
        "selected_epoch": checkpoint.epoch,
        "synthetic_count": config.synthetic_count,
        "seed": config.seed,
        "table_row": {k: none_if_nan(v) for k, v in row.items()},
        "splits": {split: m.to_dict() for split, m in split_metrics.items()},
    }


_RUN_DIR_FILES = ("config.json", "checkpoint.ckpt", "history.csv", "selected_metrics.json")


def _write_run_dir(out: Path, data_path, config: TrainConfig, checkpoint, history) -> dict:
    """Write one run directory, ``selected_metrics.json`` last; return its payload.
    First delete the temporary file a killed writer left for any of its files."""
    remove_stale_temps(out, _RUN_DIR_FILES)
    write_json(out / "config.json", {"data": str(data_path), "config": asdict(config),
                                     "config_hash": config.config_hash()})
    save_checkpoint(checkpoint, out / "checkpoint.ckpt")
    _write_history_csv(out / "history.csv", history)
    selected = _selected_metrics_payload(config, checkpoint, history)
    write_json(out / "selected_metrics.json", selected)
    return selected


def cmd_gen_data(args) -> int:
    spec = _build_config(GenSpec, args.spec, args, "generator spec")
    dataset = generate(spec)
    out = Path(args.out)
    save_csv(dataset, out)
    hist = class_histogram(dataset, "train")
    print(f"wrote {len(dataset)} samples to {out}")
    print("train split (real) class counts:")
    for c, count in enumerate(hist):
        rare = "  <- rare" if c == dataset.rare_class_id else ""
        print(f"  class{c}: {count}{rare}")
    print(f"synthetic pool: {len(dataset.synthetic_indices)}")
    return 0


def cmd_train(args) -> int:
    config = _build_config(TrainConfig, args.config, args, "train config")
    dataset = load_csv(args.data)
    checkpoint, history = train(dataset, config)
    out = Path(args.out)
    _write_run_dir(out, args.data, config, checkpoint, history)
    row = table_row(history[checkpoint.epoch].split_metrics)
    print(f"run written to {out} (selected epoch {checkpoint.epoch})")
    for key in TABLE_COLUMNS:
        print(f"  {key}: {row[key]:.4f}")
    return 0


@functools.lru_cache(maxsize=1)
def _sweep_dataset(data_path: str) -> Dataset:
    """The sweep's dataset, loaded by a worker's first cell and kept for the rest."""
    return load_csv(data_path)


def _sweep_run_one(job: tuple[TrainConfig, str, Path]) -> dict | str:
    """One sweep cell: its ``selected_metrics.json`` payload, or the message of
    a training that diverged or rejected the cell's values. Any other error
    (an unreadable dataset, a failed write, a bug) raises and ends the sweep."""
    config, data_path, out = job
    dataset = _sweep_dataset(data_path)
    try:
        checkpoint, history = train(dataset, config)
    except (TrainingDiverged, ValueError) as exc:  # this cell's failure: record, keep sweeping
        return str(exc)
    return _write_run_dir(out, data_path, config, checkpoint, history)


def _positive_int(text: str) -> int:
    """argparse type of a count that must be at least 1 (a usage error otherwise)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _int_list(text: str) -> list[int]:
    """argparse type of a comma-separated list of ints >= 0, no entry empty."""
    entries = text.split(",")
    if "" in entries:
        raise argparse.ArgumentTypeError(f"empty entry in {text!r}")
    try:
        values = [int(v) for v in entries]
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int list: {text!r}") from None
    if min(values) < 0:
        raise argparse.ArgumentTypeError(f"values must be >= 0, got {values}")
    return values


def _count_list(text: str) -> list[int]:
    counts = _int_list(text)
    if any(b <= a for a, b in zip(counts, counts[1:])):
        raise argparse.ArgumentTypeError(f"counts must be strictly increasing, got {counts}")
    return counts


def _seed_list(text: str) -> list[int]:
    seeds = _int_list(text)
    if len(set(seeds)) != len(seeds):
        raise argparse.ArgumentTypeError(f"seeds must be distinct, got {seeds}")
    return seeds


def cmd_sweep(args) -> int:
    base = _build_config(TrainConfig, args.config, args, "train config")
    out = Path(args.out)
    jobs = [
        (
            replace(base, synthetic_count=count, seed=seed),
            args.data,
            out / "cells" / f"{args.method}_count{count}_seed{seed}",
        )
        for count in args.counts
        for seed in args.seeds
    ]
    results = list(ordered_map(_sweep_run_one, jobs, args.jobs))

    rows = []
    failures = {}
    for (config, _, _), result in zip(jobs, results):
        if isinstance(result, str):
            failures[f"count{config.synthetic_count}_seed{config.seed}"] = result
            continue
        row = result["table_row"]
        rows.append([config.synthetic_count, config.seed, *(row[k] for k in SWEEP_CSV_COLUMNS[2:])])
    curve_path = out / f"sweep_{args.method}.csv"
    write_csv(curve_path, SWEEP_CSV_COLUMNS, rows)
    if failures:
        write_json(out / "failures.json", failures)
        print(f"{len(failures)} cell(s) failed; see {out / 'failures.json'}", file=sys.stderr)
    else:
        (out / "failures.json").unlink(missing_ok=True)
    print(f"sweep curve written to {curve_path} ({len(rows)} rows)")
    return 0


def _run_list(text: str) -> list[str]:
    """argparse type of a comma-separated list of run directories, no entry
    empty and no two naming the same directory once resolved."""
    runs = text.split(",")
    if "" in runs:
        raise argparse.ArgumentTypeError(f"empty run directory in {text!r}")
    if len({Path(run).resolve() for run in runs}) != len(runs):
        raise argparse.ArgumentTypeError(f"run directories must be distinct, got {text!r}")
    return runs


def _run_labels(runs: list[str]) -> list[str]:
    """Label each run by its last path parts, as few as keep the labels distinct;
    the runs name distinct paths, so the whole paths always do."""
    parts = [Path(run).parts for run in runs]
    for depth in itertools.count(1):
        labels = [str(Path(*p[-depth:])) for p in parts]
        if len(set(labels)) == len(labels):
            return labels


def cmd_compare(args) -> int:
    entries = []
    for run, label in zip(args.runs, _run_labels(args.runs)):
        metrics_path = Path(run) / "selected_metrics.json"
        if not metrics_path.is_file():
            raise CliError(f"run directory {run} has no selected_metrics.json")
        try:
            table = json.loads(metrics_path.read_text(encoding="utf-8"))["table_row"]
            row = {k: (None if table[k] is None else float(table[k])) for k in TABLE_COLUMNS}
        except (ValueError, KeyError, TypeError, RecursionError) as exc:
            raise CliError(f"malformed {metrics_path}: {type(exc).__name__}: {exc}") from exc
        entries.append((label, row))
    text, csv_text = comparison_table(entries)
    out = Path(args.out)
    write_text(out / "comparison.txt", text)
    write_text(out / "comparison.csv", csv_text)
    print(text, end="")
    return 0


def cmd_project(args) -> int:
    run = Path(args.run)
    ckpt_path = run / "checkpoint.ckpt"
    if not ckpt_path.is_file():
        raise CliError(f"run directory {run} has no checkpoint.ckpt")
    checkpoint = load_checkpoint(ckpt_path)
    spec = checkpoint.network_spec
    net = checkpoint.build_network()
    dataset = load_csv(args.data)
    if (dataset.feature_dim, dataset.num_classes) != (spec.input_dim, spec.class_count):
        raise CliError(
            f"{args.data} has {dataset.feature_dim} features and {dataset.num_classes} classes, "
            f"but {ckpt_path} expects {spec.input_dim} features and {spec.class_count} classes"
        )
    indices = np.concatenate([dataset.real_split_indices[args.split], dataset.synthetic_indices])
    if indices.size == 0:
        raise CliError(f"no samples selected for split {args.split!r}")
    proj = project_features(net, dataset, indices)
    out = Path(args.out)
    csv_path, svg_path = export_scatter(proj, out / f"scatter_{args.split}")
    score = None
    try:
        score = bimodality_score(proj, dataset.rare_class_id)
    except ValueError as exc:
        print(f"bimodality score unavailable: {exc}")
    write_json(out / "projection.json", {"split": args.split, "bimodality_score": score,
                                         "explained_variances": proj.explained_variances.tolist()})
    print(f"scatter written to {csv_path} and {svg_path}")
    if score is not None:
        print(f"bimodality score: {score:.4f}")
    return 0


def _add_train_overrides(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON train config (flags override file values)")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--lr", type=float, dest="learning_rate")
    p.add_argument("--l2", type=float)
    p.add_argument("--coral-weight", type=float)
    p.add_argument("--domain-weight", type=float)
    p.add_argument("--grl-scale", type=float)
    p.add_argument("--grl-ramp-epochs", type=int)
    p.add_argument("--head-lr-multiplier", type=float)
    p.add_argument("--oversample-factor", type=int)
    p.add_argument("--coral-layer", choices=CORAL_LAYERS)
    p.add_argument("--disc-labels", choices=DISCRIMINATOR_LABELS, dest="discriminator_labels")
    p.add_argument("--feature-jitter", type=float)
    p.add_argument("--selection-tolerance", type=float, dest="selection_tolerance_points")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="raredapt",
        description="Rare-class domain adaptation testbed: data generation, training, sweeps, comparison, projection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate the benchmark CSV and its parsed cache")
    p.add_argument("--spec", help="JSON generator spec (defaults used when omitted)")
    p.add_argument("--out", required=True,
                   help="output CSV path; the parsed cache goes to <out>.parsed.npz")
    p.add_argument("--seed", type=int, help="override the spec seed")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train one method and write a run directory")
    p.add_argument("--data", required=True, help="dataset CSV")
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--out", required=True, help="run directory")
    p.add_argument("--seed", type=int)
    p.add_argument("--synthetic-count", type=int)
    _add_train_overrides(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sweep", help="grid of runs over synthetic counts and seeds")
    p.add_argument("--data", required=True)
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--counts", required=True, type=_count_list,
                   help="comma-separated synthetic counts, strictly increasing")
    p.add_argument("--seeds", required=True, type=_seed_list, help="comma-separated distinct seeds")
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=_positive_int, default=1, help="parallel cells")
    _add_train_overrides(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("compare", help="comparison table from run directories")
    p.add_argument("--runs", required=True, type=_run_list,
                   help="comma-separated distinct run directories; each row is named by the "
                        "fewest trailing path parts that tell the runs apart")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("project", help="PCA scatter of pre-logit features")
    p.add_argument("--run", required=True, help="run directory with checkpoint.ckpt")
    p.add_argument("--data", required=True)
    p.add_argument("--split", required=True, choices=SPLITS)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_project)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, CheckpointError, TrainingDiverged, ValueError, OSError,
            WorkerDied) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
