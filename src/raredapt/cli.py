"""Command-line entry point.

Subcommands wire the library end to end:

    raredapt gen-data  [--spec spec.json] --out data.csv [--seed N]
    raredapt train     --data data.csv --method M --out rundir [--config cfg.json] [...]
    raredapt sweep     --data data.csv --method M --counts 0,100 --seeds 0,1 --out dir [...]
    raredapt compare   --runs dir1,dir2 --out dir
    raredapt project   --run dir --data data.csv --split s --out dir [...]

Config files are JSON mirrors of the GenSpec / TrainConfig dataclasses;
explicit command-line flags override config-file values. Every subcommand is
deterministic given its inputs and seeds, and exits 0 only when the requested
artifact files were fully written.

A train run directory contains: config.json (resolved config + dataset
reference), checkpoint.ckpt (+ .meta.json sidecar), history.csv (per-epoch
losses and split metrics), selected_metrics.json (the selected checkpoint's
metrics), and train.log.

A sweep directory holds one train run directory per (count, seed) cell under
cells/<method>_count<N>_seed<S>/, and the learning curve sweep_<method>.csv
with one row per successful cell (columns SWEEP_CSV_COLUMNS; a NaN metric is
written as an empty cell). A cell that fails gets no curve row; its error
message goes to failures.json under the key count<N>_seed<S>, and the sweep
still exits 0. A cell whose training fails writes no directory.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .checkpoint import Checkpoint, CheckpointError, load_checkpoint, save_checkpoint
from .data import SPLITS, DataFormatError, GenSpec, class_histogram, generate, load_csv, save_csv
from .domains import METHODS
from .metrics import TABLE_COLUMNS, comparison_table, table_row
from .projection import bimodality_score, export_scatter, project_features
from .training import EpochRecord, TrainConfig, TrainingDiverged, train

SWEEP_CSV_COLUMNS = (
    "count",
    "seed",
    "trans_rare_acc",
    "trans_other_avg",
    "cis_rare_acc",
    "cis_other_avg",
)

_TUPLE_FIELDS = {"feature_dims", "classifier_hidden", "discriminator_hidden", "train_counts"}


class CliError(RuntimeError):
    pass


def _load_config_payload(path, cls) -> dict:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise CliError(f"config {path} must be a JSON object")
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(payload) - known)
    if unknown:
        raise CliError(f"unknown {cls.__name__} field(s) in {path}: {', '.join(unknown)}")
    for key, value in payload.items():
        if isinstance(value, list) and key in _TUPLE_FIELDS:
            payload[key] = tuple(value)
        elif key == "gap_matrix" and value is not None:
            payload[key] = tuple(tuple(row) for row in value)
        elif key == "gap_offset_vector" and value is not None:
            payload[key] = tuple(value)
    return payload


def _build_gen_spec(args) -> GenSpec:
    payload = _load_config_payload(args.spec, GenSpec) if args.spec else {}
    if args.seed is not None:
        payload["seed"] = args.seed
    try:
        return GenSpec(**payload)
    except (TypeError, ValueError) as exc:
        raise CliError(f"invalid generator spec: {exc}") from exc


def _build_train_config(args) -> TrainConfig:
    payload = _load_config_payload(args.config, TrainConfig) if args.config else {}
    overrides = {
        "method": args.method,
        "epochs": args.epochs,
        "batch_size": args.batch_size,
        "learning_rate": args.lr,
        "l2": args.l2,
        "coral_weight": args.coral_weight,
        "domain_weight": args.domain_weight,
        "grl_scale": args.grl_scale,
        "grl_ramp_epochs": args.grl_ramp_epochs,
        "head_lr_multiplier": args.head_lr_multiplier,
        "oversample_factor": args.oversample_factor,
        "synthetic_count": args.synthetic_count,
        "coral_layer": args.coral_layer,
        "discriminator_labels": args.disc_labels,
        "feature_jitter": args.feature_jitter,
        "selection_tolerance_points": args.selection_tolerance,
        "seed": getattr(args, "seed", None),
    }
    payload.update({k: v for k, v in overrides.items() if v is not None})
    try:
        return TrainConfig(**payload)
    except (TypeError, ValueError) as exc:
        raise CliError(f"invalid train config: {exc}") from exc


def _none_if_nan(x: float):
    return None if isinstance(x, float) and math.isnan(x) else x


def _history_csv(history: list[EpochRecord]) -> str:
    loss_cols = (
        "classification_loss",
        "domain_loss",
        "coral_term",
        "composite_loss",
        "discriminator_acc",
    )
    split_cols = [
        (split, metric)
        for split in SPLITS
        for metric in ("rare_acc", "other_macro", "overall")
    ]
    header = ["epoch", *loss_cols] + [f"{s}_{m}" for s, m in split_cols]
    lines = [",".join(header)]
    for rec in history:
        row = [str(rec.epoch)]
        row += [repr(float(getattr(rec, c))) for c in loss_cols]
        for split, metric in split_cols:
            row.append(repr(float(getattr(rec.split_metrics[split], metric))))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _selected_metrics_payload(config: TrainConfig, checkpoint: Checkpoint, history) -> dict:
    split_metrics = history[checkpoint.epoch].split_metrics
    row = table_row(split_metrics)
    return {
        "method": config.method,
        "config_hash": config.config_hash(),
        "selected_epoch": checkpoint.epoch,
        "synthetic_count": config.synthetic_count,
        "seed": config.seed,
        "table_row": {k: _none_if_nan(v) for k, v in row.items()},
        "splits": {split: m.to_dict() for split, m in split_metrics.items()},
    }


def _write_run_dir(out: Path, data_path, config: TrainConfig, checkpoint, history) -> dict:
    """Write one run directory; return its ``selected_metrics.json`` payload."""
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(
        json.dumps(
            {
                "data": str(data_path),
                "config_hash": config.config_hash(),
                "config": asdict(config),
            },
            indent=2,
            sort_keys=True,
        )
        + "\n",
        encoding="utf-8",
    )
    save_checkpoint(checkpoint, out / "checkpoint.ckpt")
    (out / "history.csv").write_text(_history_csv(history), encoding="utf-8")
    selected = _selected_metrics_payload(config, checkpoint, history)
    (out / "selected_metrics.json").write_text(
        json.dumps(selected, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    log_lines = []
    for rec in history:
        tv = rec.split_metrics["trans_val"]
        log_lines.append(
            f"epoch {rec.epoch}: classification={rec.classification_loss:.6f} "
            f"domain={rec.domain_loss:.6f} coral={rec.coral_term:.6f} "
            f"trans_val_rare={tv.rare_acc:.4f} trans_val_other={tv.other_macro:.4f}"
        )
    log_lines.append(f"selected epoch {checkpoint.epoch}")
    (out / "train.log").write_text("\n".join(log_lines) + "\n", encoding="utf-8")
    return selected


def cmd_gen_data(args) -> int:
    spec = _build_gen_spec(args)
    dataset = generate(spec)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_csv(dataset, out)
    hist = class_histogram(dataset, "train")
    print(f"wrote {len(dataset)} samples to {out}")
    print("train split (real) class counts:")
    for c, count in enumerate(hist):
        rare = "  <- rare" if c == dataset.rare_class_id else ""
        print(f"  {dataset.class_names[c]}: {count}{rare}")
    print(f"synthetic pool: {len(dataset.synthetic_pool_indices())}")
    return 0


def cmd_train(args) -> int:
    dataset = load_csv(args.data)
    config = _build_train_config(args)
    checkpoint, history = train(dataset, config)
    out = Path(args.out)
    _write_run_dir(out, args.data, config, checkpoint, history)
    row = table_row(history[checkpoint.epoch].split_metrics)
    print(f"run written to {out} (selected epoch {checkpoint.epoch})")
    for key in TABLE_COLUMNS:
        print(f"  {key}: {row[key]:.4f}")
    return 0


_SWEEP_STATE: dict = {}


def _single_thread_blas() -> None:
    """Cap the OpenBLAS that numpy loaded at one thread; do nothing if it is not found.

    Each forked sweep worker inherits a BLAS pool as wide as the machine, so
    ``--jobs`` workers would run jobs x nproc BLAS threads on nproc cores.
    """
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for symbol in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads"):
            setter = getattr(lib, symbol, None)
            if setter is not None:
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                setter(1)
                return


def _sweep_worker_init(data_path: str, jobs: int) -> None:
    """Load the dataset once per worker. A load error is kept for the first
    cell to raise, so a pool reports it as ``main()`` does instead of breaking."""
    if jobs > 1:
        _single_thread_blas()
    _SWEEP_STATE.clear()
    _SWEEP_STATE["data"] = data_path
    try:
        _SWEEP_STATE["dataset"] = load_csv(data_path)
    except (ValueError, OSError) as exc:
        _SWEEP_STATE["error"] = exc


def _sweep_run_one(job: tuple[TrainConfig, Path]) -> dict | str:
    """One sweep cell: its ``selected_metrics.json`` payload, or its error message."""
    config, out = job
    if "error" in _SWEEP_STATE:
        raise _SWEEP_STATE["error"]
    try:
        checkpoint, history = train(_SWEEP_STATE["dataset"], config)
        return _write_run_dir(out, _SWEEP_STATE["data"], config, checkpoint, history)
    except Exception as exc:  # per-cell failure: record, keep sweeping
        return str(exc)


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",") if v != ""]
    except ValueError as exc:
        raise CliError(f"cannot parse {what} list {text!r}: {exc}") from exc


def cmd_sweep(args) -> int:
    counts = _parse_int_list(args.counts, "counts")
    seeds = _parse_int_list(args.seeds, "seeds")
    if not counts or not seeds:
        raise CliError("need at least one count and one seed")
    if len(set(seeds)) != len(seeds):
        raise CliError(f"seeds must be distinct, got {seeds}")
    if min(counts) < 0 or min(seeds) < 0:
        raise CliError(f"counts and seeds must be >= 0, got counts {counts}, seeds {seeds}")
    if any(b <= a for a, b in zip(counts, counts[1:])):
        raise CliError(f"counts must be strictly increasing, got {counts}")
    base = _build_train_config(args)
    out = Path(args.out)
    jobs = [
        (
            replace(base, synthetic_count=count, seed=seed),
            out / "cells" / f"{args.method}_count{count}_seed{seed}",
        )
        for count in counts
        for seed in seeds
    ]
    if args.jobs > 1:
        with ProcessPoolExecutor(
            max_workers=args.jobs, initializer=_sweep_worker_init, initargs=(args.data, args.jobs)
        ) as pool:
            results = list(pool.map(_sweep_run_one, jobs))
    else:
        try:
            _sweep_worker_init(args.data, args.jobs)
            results = [_sweep_run_one(job) for job in jobs]
        finally:  # do not keep the dataset alive after the sweep
            _SWEEP_STATE.clear()

    lines = [",".join(SWEEP_CSV_COLUMNS)]
    failures = {}
    for (config, _), result in zip(jobs, results):
        if isinstance(result, str):
            failures[f"count{config.synthetic_count}_seed{config.seed}"] = result
            continue
        row = result["table_row"]
        cells = [str(config.synthetic_count), str(config.seed)]
        cells += ["" if row[k] is None else repr(float(row[k])) for k in SWEEP_CSV_COLUMNS[2:]]
        lines.append(",".join(cells))
    out.mkdir(parents=True, exist_ok=True)
    curve_path = out / f"sweep_{args.method}.csv"
    curve_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    if failures:
        (out / "failures.json").write_text(
            json.dumps(failures, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"{len(failures)} cell(s) failed; see {out / 'failures.json'}", file=sys.stderr)
    print(f"sweep curve written to {curve_path} ({len(lines) - 1} rows)")
    return 0


def cmd_compare(args) -> int:
    entries = []
    for run in args.runs.split(","):
        metrics_path = Path(run) / "selected_metrics.json"
        if not metrics_path.is_file():
            raise CliError(f"run directory {run} has no selected_metrics.json")
        try:
            table = json.loads(metrics_path.read_text(encoding="utf-8"))["table_row"]
            row = {k: (math.nan if table[k] is None else float(table[k])) for k in TABLE_COLUMNS}
        except (ValueError, KeyError, TypeError) as exc:
            raise CliError(f"malformed {metrics_path}: {type(exc).__name__}: {exc}") from exc
        entries.append((Path(run).name, row))
    text, csv_text = comparison_table(entries)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "comparison.txt").write_text(text, encoding="utf-8")
    (out / "comparison.csv").write_text(csv_text, encoding="utf-8")
    print(text, end="")
    return 0


def cmd_project(args) -> int:
    run = Path(args.run)
    ckpt_path = run / "checkpoint.ckpt"
    if not ckpt_path.is_file():
        raise CliError(f"run directory {run} has no checkpoint.ckpt")
    checkpoint = load_checkpoint(ckpt_path)
    net = checkpoint.build_network()
    dataset = load_csv(args.data)
    indices = dataset.indices(split=args.split, domain="real")
    if args.include_synthetic:
        indices = np.concatenate([indices, dataset.synthetic_pool_indices()])
    if indices.size == 0:
        raise CliError(f"no samples selected for split {args.split!r}")
    proj = project_features(net, dataset, indices, n_components=args.components)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    csv_path, svg_path = export_scatter(proj, out / f"scatter_{args.split}")
    score = None
    try:
        score = bimodality_score(proj, dataset.rare_class_id)
    except ValueError as exc:
        print(f"bimodality score unavailable: {exc}")
    (out / "projection.json").write_text(
        json.dumps(
            {
                "split": args.split,
                "explained_variances": [float(v) for v in proj.explained_variances],
                "bimodality_score": score,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n",
        encoding="utf-8",
    )
    print(f"scatter written to {csv_path} and {svg_path}")
    if score is not None:
        print(f"bimodality score: {score:.4f}")
    return 0


def _add_train_overrides(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON train config (flags override file values)")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--lr", type=float, dest="lr")
    p.add_argument("--l2", type=float)
    p.add_argument("--coral-weight", type=float)
    p.add_argument("--domain-weight", type=float)
    p.add_argument("--grl-scale", type=float)
    p.add_argument("--grl-ramp-epochs", type=int)
    p.add_argument("--head-lr-multiplier", type=float)
    p.add_argument("--oversample-factor", type=int)
    p.add_argument("--synthetic-count", type=int)
    p.add_argument("--coral-layer", choices=("logits", "features"))
    p.add_argument("--disc-labels", choices=("membership", "provenance"))
    p.add_argument("--feature-jitter", type=float)
    p.add_argument("--selection-tolerance", type=float)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="raredapt",
        description="Rare-class domain adaptation testbed: data generation, training, sweeps, comparison, projection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate the benchmark CSV")
    p.add_argument("--spec", help="JSON generator spec (defaults used when omitted)")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--seed", type=int, help="override the spec seed")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train one method and write a run directory")
    p.add_argument("--data", required=True, help="dataset CSV")
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--out", required=True, help="run directory")
    p.add_argument("--seed", type=int)
    _add_train_overrides(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sweep", help="grid of runs over synthetic counts and seeds")
    p.add_argument("--data", required=True)
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--counts", required=True, help="comma-separated synthetic counts")
    p.add_argument("--seeds", required=True, help="comma-separated seeds")
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int, default=1, help="parallel cells")
    _add_train_overrides(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("compare", help="comparison table from run directories")
    p.add_argument("--runs", required=True, help="comma-separated run directories")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("project", help="PCA scatter of pre-logit features")
    p.add_argument("--run", required=True, help="run directory with checkpoint.ckpt")
    p.add_argument("--data", required=True)
    p.add_argument("--split", required=True, choices=SPLITS)
    p.add_argument("--out", required=True)
    p.add_argument("--components", type=int, default=2)
    p.add_argument(
        "--include-synthetic",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="also project the synthetic pool (needed for the bimodality score)",
    )
    p.set_defaults(func=cmd_project)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        CliError, CheckpointError, DataFormatError, TrainingDiverged, ValueError, OSError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
