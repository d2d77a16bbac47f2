"""Per-class evaluation metrics and the method comparison table.

Accuracy here is per-class recall: correct predictions of a class divided by
its sample count in the split. The rare class is reported on its own; the
"other" aggregate is the unweighted (macro) mean over the remaining classes,
excluding classes absent from the split. Evaluation always runs on the real
samples of a split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .artifacts import csv_lines
from .data import SPLITS, Dataset
from .network import Network
from .numerics import require_finite


def none_if_nan(x: float) -> float | None:
    """A metric for JSON: NaN (undefined accuracy) becomes null."""
    return None if math.isnan(x) else float(x)


@dataclass(eq=False)  # == is identity: an array field makes the generated == raise
class RunMetrics:
    """Evaluation result on one split."""

    per_class_acc: np.ndarray
    rare_class_id: int
    rare_acc: float
    other_macro: float
    overall: float
    confusion: np.ndarray

    def to_dict(self) -> dict:
        return {
            "per_class_acc": [none_if_nan(float(a)) for a in self.per_class_acc],
            "rare_class_id": int(self.rare_class_id),
            "rare_acc": none_if_nan(self.rare_acc),
            "other_macro": none_if_nan(self.other_macro),
            "overall": none_if_nan(self.overall),
            "confusion": self.confusion.tolist(),
        }


def evaluate(
    net: Network, dataset: Dataset, split: str, rare_class_id: int | None = None
) -> RunMetrics:
    """Argmax-of-logits evaluation of the real samples in a split.

    Classes absent from the split have undefined (NaN) accuracy and are
    excluded from the macro average. The split's rows come from the
    Dataset's cached ``real_split_indices``. The logits are checked once:
    a network holding NaN or Inf parameters raises NonFiniteError instead of
    returning the argmax of garbage. A ``rare_class_id`` that is not a class
    id of the dataset (outside ``[0, num_classes)``, a bool or a float) is a
    ValueError.
    """
    if split not in SPLITS:
        raise ValueError(f"unknown split {split!r}")
    k = dataset.num_classes
    rare = dataset.rare_class_id if rare_class_id is None else rare_class_id
    if isinstance(rare, bool) or not isinstance(rare, (int, np.integer)) or not 0 <= rare < k:
        raise ValueError(f"rare_class_id must be a class id in [0, {k}), got {rare!r}")
    idx = dataset.real_split_indices[split]
    if idx.size == 0:
        raise ValueError(f"split {split!r} has no real samples")
    features, _ = net.forward_features(dataset.features[idx])
    logits, _ = net.forward_classifier(features)
    require_finite(logits, f"{split} logits")
    preds = np.argmax(logits, axis=1)
    truth = dataset.class_ids[idx]
    confusion = np.bincount(truth * k + preds, minlength=k * k).reshape(k, k)
    row_totals = confusion.sum(axis=1)
    with np.errstate(invalid="ignore"):
        per_class = np.where(row_totals > 0, np.diag(confusion) / row_totals, np.nan)
    others = np.delete(per_class, rare)
    other_macro = float(np.nanmean(others)) if np.isfinite(others).any() else math.nan
    return RunMetrics(
        per_class_acc=per_class,
        rare_class_id=rare,
        rare_acc=float(per_class[rare]),
        other_macro=other_macro,
        overall=float(np.trace(confusion) / confusion.sum()),
        confusion=confusion,
    )


TABLE_COLUMNS = ("trans_rare_acc", "cis_rare_acc", "trans_other_avg", "cis_other_avg")


def table_row(metrics_by_split: dict[str, RunMetrics]) -> dict[str, float]:
    """The four comparison-table numbers from test-split metrics."""
    return {
        "trans_rare_acc": metrics_by_split["trans_test"].rare_acc,
        "cis_rare_acc": metrics_by_split["cis_test"].rare_acc,
        "trans_other_avg": metrics_by_split["trans_test"].other_macro,
        "cis_other_avg": metrics_by_split["cis_test"].other_macro,
    }


def comparison_table(entries: list[tuple[str, dict[str, float | None]]]) -> tuple[str, str]:
    """Render the method comparison as aligned text and as CSV.

    ``entries`` maps a method name to its four accuracies (see ``table_row``);
    an accuracy may be None. The text table shows percentages with one decimal
    and None as ``-``; the CSV keeps full precision fractions, which re-parse
    to the exact in-memory values, and None as an empty cell.
    """
    name_width = max([len("method")] + [len(name) for name, _ in entries])
    headers = ("trans rare", "cis rare", "trans other", "cis other")
    lines = ["method".ljust(name_width) + "".join(h.rjust(13) for h in headers)]
    for name, row in entries:
        cells = ["-" if row[c] is None else f"{100.0 * row[c]:.1f}" for c in TABLE_COLUMNS]
        lines.append(name.ljust(name_width) + "".join(cell.rjust(13) for cell in cells))
    csv_rows = ([name, *(row[c] for c in TABLE_COLUMNS)] for name, row in entries)
    return "\n".join(lines) + "\n", "".join(csv_lines(("method", *TABLE_COLUMNS), csv_rows))
