"""Method-specific source/target domain organization and batch pairing.

Unlike classic domain adaptation, both domains here live inside the training
data. The source set S is always the real training set extended with the
chosen synthetic rare-class samples. The target set T depends on the method:

    baseline   T = {} (plain classification on S)
    deerdann   T = real rare-class train samples, oversampled (default x50)
    alldann    T = train + oversampled real rare samples
    deercoral  T = train + oversampled real rare samples

T never contains synthetic samples, and oversampling is index multiplicity,
not data duplication. A batch pair is dataset row indices; the step gathers
the rows it reads. The routing rule picks which rows of a batch reach the
discriminator, so only the adversarial methods route any: rare-class rows for
deerdann, every row for alldann. The baseline and deercoral route none.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .data import Dataset
from .numerics import make_rng

METHODS = ("baseline", "deerdann", "alldann", "deercoral")
ADVERSARIAL = ("deerdann", "alldann")

_SRC_STREAM = 10
_TGT_STREAM = 11
_SYN_CHOICE_STREAM = 12


@dataclass
class DomainOrg:
    """Resolved source/target index sets for one training run."""

    method: str
    source_indices: np.ndarray
    target_indices: np.ndarray
    rare_class_id: int
    dataset: Dataset = field(repr=False)


@dataclass
class BatchPair:
    """One step's dataset row indices, and the positions within each batch
    that reach the discriminator. ``target`` is None for the baseline."""

    source: np.ndarray
    target: np.ndarray | None
    routed_source_rows: np.ndarray
    routed_target_rows: np.ndarray


def build_domains(
    dataset: Dataset,
    method: str,
    synthetic_count: int,
    oversample_factor: int = 50,
    seed: int = 0,
    rare_class_id: int | None = None,
) -> DomainOrg:
    """Assemble S and T for a method; sizes are exact and seed-deterministic.

    |S| = |train| + synthetic_count for every method. The synthetic subset is
    a seeded draw without replacement from the pool.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if oversample_factor < 1:
        raise ValueError(f"oversample_factor must be >= 1, got {oversample_factor}")
    rare = dataset.rare_class_id if rare_class_id is None else rare_class_id
    train = dataset.real_split_indices["train"]
    pool = dataset.synthetic_indices
    if synthetic_count < 0:
        raise ValueError(f"synthetic_count must be >= 0, got {synthetic_count}")
    if synthetic_count > len(pool):
        raise ValueError(
            f"requested {synthetic_count} synthetic samples but the pool has {len(pool)}"
        )
    rng = make_rng(seed, _SYN_CHOICE_STREAM)
    chosen = np.sort(rng.permutation(pool)[:synthetic_count])
    source = np.concatenate([train, chosen])

    rare_train = train[dataset.class_ids[train] == rare]
    if rare_train.size == 0:
        raise ValueError(f"no real train samples of rare class {rare}")
    oversampled = np.tile(rare_train, oversample_factor)
    if method == "baseline":
        target = np.empty(0, dtype=np.int64)
    elif method == "deerdann":
        target = oversampled
    else:
        target = np.concatenate([train, oversampled])
    return DomainOrg(
        method=method,
        source_indices=source,
        target_indices=target,
        rare_class_id=rare,
        dataset=dataset,
    )


def route_delta(class_ids: np.ndarray, method: str, rare_class_id: int) -> np.ndarray:
    """Rows whose features reach the discriminator.

    deerdann selects rare-class rows and alldann every row; the baseline and
    deercoral route nothing (they have no adversarial term). The rows come
    sorted and unique, so the training step can add their gradients back with
    one fancy-index add.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    class_ids = np.asarray(class_ids)
    if method == "alldann":
        return np.arange(class_ids.shape[0])
    if method == "deerdann":
        return np.flatnonzero(class_ids == rare_class_id)
    return np.empty(0, dtype=np.int64)


def paired_sampler(
    org: DomainOrg, batch_size: int, seed: int, epoch: int
) -> Iterator[BatchPair]:
    """One seeded epoch: a shuffled pass over S, each batch paired with T rows.

    The target sequence is 1 + |S| // |T| shuffled passes over T (enough to
    cover S), drawn up front; the source batch at offset ``start`` pairs with
    the target rows at the same offset. A last source batch of 1 row is
    dropped (covariance over a single row is undefined). Source and target
    shuffles use independent streams, so the source sequence is identical
    across methods for a given seed.
    """
    if batch_size < 2:
        raise ValueError(f"batch_size must be >= 2, got {batch_size}")
    has_target = org.method != "baseline"
    if has_target and org.target_indices.size == 0:
        raise ValueError(f"method {org.method!r} requires a non-empty target set")
    src_perm = make_rng(seed, _SRC_STREAM, epoch).permutation(org.source_indices)
    target_seq = None
    if has_target:
        tgt_rng = make_rng(seed, _TGT_STREAM, epoch)
        passes = range(1 + src_perm.size // org.target_indices.size)
        target_seq = np.concatenate([tgt_rng.permutation(org.target_indices) for _ in passes])
    classes, method, rare = org.dataset.class_ids, org.method, org.rare_class_id
    none = np.empty(0, dtype=np.int64)
    for start in range(0, src_perm.size, batch_size):
        source = src_perm[start : start + batch_size]
        if source.size < 2:
            continue
        target = None if target_seq is None else target_seq[start : start + source.size]
        routed_tgt = none if target is None else route_delta(classes[target], method, rare)
        yield BatchPair(source, target, route_delta(classes[source], method, rare), routed_tgt)
