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
the rows it reads. Which rows reach the discriminator is resolved once per
run as a row mask, ``DomainOrg.routed``: rare-class rows for deerdann, every
row for alldann, None for the baseline and deercoral, which route none.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .data import Dataset
from .numerics import make_rng

METHODS = ("baseline", "deerdann", "alldann", "deercoral")
ADVERSARIAL = ("deerdann", "alldann")

_SRC_STREAM = 10
_TGT_STREAM = 11
_SYN_CHOICE_STREAM = 12


@dataclass(eq=False)  # == is identity: an array field makes the generated == raise
class DomainOrg:
    """Resolved source/target index sets and routing mask for one training run."""

    method: str
    source_indices: np.ndarray
    target_indices: np.ndarray
    rare_class_id: int
    routed: np.ndarray | None


@dataclass(eq=False)  # == is identity: an array field makes the generated == raise
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
    # permuting positions, not the read-only pool itself, which numpy would
    # try to shuffle in place when it is empty
    chosen = np.sort(pool[rng.permutation(pool.size)[:synthetic_count]])
    source = np.concatenate([train, chosen])

    is_rare = dataset.class_ids == rare
    rare_train = train[is_rare[train]]
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
        routed={"deerdann": is_rare, "alldann": np.ones_like(is_rare)}.get(method),
    )


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

    A batch routes the positions of its ``org.routed`` rows, sorted. The step
    relies on every batch of an adversarial method routing >= 2 rows: alldann
    routes all, and deerdann's target batch (>= 2 rows) is all rare-class.
    """
    if batch_size < 2:
        raise ValueError(f"batch_size must be >= 2, got {batch_size}")
    src_perm = make_rng(seed, _SRC_STREAM, epoch).permutation(org.source_indices)
    target_seq = None
    if org.method != "baseline":
        if org.target_indices.size == 0:
            raise ValueError(f"method {org.method!r} requires a non-empty target set")
        tgt_rng = make_rng(seed, _TGT_STREAM, epoch)
        passes = range(1 + src_perm.size // org.target_indices.size)
        target_seq = np.concatenate([tgt_rng.permutation(org.target_indices) for _ in passes])
    none = np.empty(0, dtype=np.int64)
    for start in range(0, src_perm.size, batch_size):
        source = src_perm[start : start + batch_size]
        if source.size < 2:
            continue
        target = None if target_seq is None else target_seq[start : start + source.size]
        routed = (none, none) if org.routed is None else (
            np.flatnonzero(org.routed[source]), np.flatnonzero(org.routed[target]))
        yield BatchPair(source, target, *routed)
