"""Every metric the benchmark prints, with its unit.

Every run prints the same names: all of ``END_TO_END`` untraced, all of
``PER_LAYER`` traced. ``PRODUCED`` says which per-layer metrics a workload's
path actually runs through; a run that misses one of those fails its checks,
and the others are printed as 0 (no call of that layer in this workload).
``BENCHMARK.json`` lists the same names; ``selftest.py`` checks that the two
agree and that each run prints exactly the names listed here.
"""

from __future__ import annotations

METHODS = ("baseline", "deerdann", "alldann", "deercoral")
WORKLOADS = ("table", "sweep", "ingest")

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "round_s": "s",
}

# Layers the training step runs through; each reports self time and calls.
STEP_SPANS = (
    "domains.paired_sampler",
    "network.forward_features",
    "network.forward_classifier",
    "network.forward_discriminator",
    "network.backward",
    "network.zero_grads",
    "network.snapshot",
    "losses.cross_entropy",
    "losses.domain_confusion",
    "losses.coral_loss",
    "training.adam_step",
    "training.train",
    "metrics.evaluate",
)
ROW_SPANS = (
    "network.forward_features",
    "network.forward_classifier",
    "network.forward_discriminator",
    "metrics.evaluate",
)
STEP_LAYERS = ("domains", "network", "losses", "training", "metrics")


def _step_metrics(spans) -> dict:
    out = {}
    for span in spans:
        out[f"{span}.self_ms"] = "ms"
        out[f"{span}.batches" if span == "domains.paired_sampler" else f"{span}.calls"] = "count"
        if span in ROW_SPANS:
            out[f"{span}.rows"] = "count"
    return out


_STEP = {
    **_step_metrics(STEP_SPANS),
    "domains.routed_rows_per_step": "count",
    "training.adam_step.us_p50": "us",
    "training.adam_step.us_p99": "us",
    "training.train.wall_ms": "ms",
}

PER_LAYER = {
    **_STEP,
    "data.generate_s": "s",
    "data.save_csv_s": "s",
    "data.load_csv_s": "s",
    "data.csv_bytes": "B",
    "checkpoint.save_ms": "ms",
    "checkpoint.load_ms": "ms",
    "checkpoint.bytes": "B",
    "projection.project_features_ms": "ms",
    "projection.export_scatter_ms": "ms",
    "projection.bimodality_score_ms": "ms",
    "cli.sweep.worker_busy_share": "fraction",
    "cli.sweep.worker_load_csv_s": "s",
    "cli.sweep.cell_s_p50": "s",
    "trace.overhead": "fraction",
}

_FORWARD = ("network.forward_features", "network.forward_classifier")

# workload -> per-layer metrics its path produces
PRODUCED = {
    "table": set(_STEP) | {"trace.overhead"},
    "sweep": ({m for m in _STEP if not m.startswith("losses.coral_loss.")}
              | {"data.csv_bytes", "checkpoint.save_ms", "checkpoint.bytes",
                 "cli.sweep.worker_busy_share", "cli.sweep.worker_load_csv_s",
                 "cli.sweep.cell_s_p50", "trace.overhead"}),
    "ingest": (set(_step_metrics(_FORWARD))
               | {"data.generate_s", "data.save_csv_s", "data.load_csv_s", "data.csv_bytes",
                  "checkpoint.load_ms", "checkpoint.bytes", "projection.project_features_ms",
                  "projection.export_scatter_ms", "projection.bimodality_score_ms",
                  "trace.overhead"}),
}


def expected(trace: bool) -> dict[str, str]:
    """The metric names (with units) every run prints."""
    return dict(PER_LAYER if trace else END_TO_END)
