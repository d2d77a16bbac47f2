"""Scalar training objectives with exact input gradients.

Three building blocks: classification cross-entropy, the two-class domain
confusion loss of the adversarial path, and the covariance-alignment loss. The
training step sums them into each method's composite objective. Each loss
returns its value together with the gradient w.r.t. its input
logits/activations so the network backward pass never has to re-derive loss
gradients.

Inputs are trusted to be finite 2-D float arrays: the losses check shapes and
labels, not values, so a NaN or Inf input yields a non-finite value, which
the training step reports as divergence (see :mod:`raredapt.training`).

Domain label convention: 0 = source, 1 = target. The discriminator's two logit
columns follow the same order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .numerics import softmax

DOMAIN_SOURCE = 0
DOMAIN_TARGET = 1


@dataclass
class LossValue:
    """A scalar loss plus its gradient w.r.t. the input logits."""

    value: float
    dlogits: np.ndarray


@dataclass
class CoralValue:
    """Covariance-alignment loss with gradients w.r.t. both input batches."""

    value: float
    d_source: np.ndarray
    d_target: np.ndarray


def cross_entropy(logits: np.ndarray, labels: Sequence[int]) -> LossValue:
    """Mean negative log softmax-probability of the true class.

    Labels are integer class ids in [0, K); float or bool labels are a
    ValueError, not cast. Gradient w.r.t. logits is (softmax - onehot) / n,
    computed in place in the softmax array once the loss value has been read
    from it.
    """
    n, k = logits.shape
    if n < 1 or k < 2:
        raise ValueError(f"cross_entropy needs n >= 1 and K >= 2, got shape {logits.shape}")
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise ValueError(f"expected {n} labels, got shape {labels.shape}")
    if labels.dtype.kind not in "iu":  # a cast would truncate floats and pass bools as 0/1
        raise ValueError(f"labels must be integers, got dtype {labels.dtype}")
    labels = labels.astype(np.int64, copy=False)
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError(f"label out of range [0, {k}): {labels[(labels < 0) | (labels >= k)][0]}")
    probs = softmax(logits)
    rows = np.arange(n)
    # true-class probability can underflow to exactly 0 for huge margins; the
    # resulting inf loss is the caller's divergence signal, not an error here
    picked = probs[rows, labels]
    with np.errstate(divide="ignore"):
        value = float(-(np.log(picked).sum() / n))
    probs[rows, labels] = picked - 1.0
    probs /= n
    return LossValue(value=value, dlogits=probs)


def domain_confusion(logits: np.ndarray, domain_labels: Sequence[int]) -> LossValue:
    """Two-class cross-entropy of the discriminator (source vs target).

    An empty batch is an error: it signals that routing selected no rare-class
    samples, and the caller is expected to skip the term instead. With two
    logit columns, the label range check of :func:`cross_entropy` admits only
    DOMAIN_SOURCE and DOMAIN_TARGET.
    """
    if logits.shape[0] < 1:
        raise ValueError("domain_confusion got an empty batch; skip the term instead")
    if logits.shape[1] != 2:
        raise ValueError(f"discriminator logits must have 2 columns, got {logits.shape[1]}")
    return cross_entropy(logits, domain_labels)


def covariance(batch: np.ndarray) -> np.ndarray:
    """Unbiased covariance estimator of a batch of row vectors.

    Computed as (B'B - (1'B)'(1'B)/n) / (n-1); symmetric PSD up to roundoff.
    """
    n, _ = batch.shape
    if n < 2:
        raise ValueError(f"covariance needs at least 2 rows, got {n}")
    col_sums = batch.sum(axis=0, keepdims=True)
    return (batch.T @ batch - col_sums.T @ col_sums / n) / (n - 1)


def coral_loss(source_acts: np.ndarray, target_acts: np.ndarray) -> CoralValue:
    """Squared Frobenius distance of the two batch covariances, scaled by 1/(4 d^2).

    Gradients are exact backprop through the covariance estimator:
    d/dS = S_centered (C_S - C_T) / (d^2 (n_S - 1)), and the negated analogue
    for the target batch.
    """
    if source_acts.shape[1] != target_acts.shape[1]:
        raise ValueError(
            f"dimension mismatch: source {source_acts.shape} vs target {target_acts.shape}"
        )
    d = source_acts.shape[1]
    n_s = source_acts.shape[0]
    n_t = target_acts.shape[0]
    if n_s < 2 or n_t < 2:
        raise ValueError(f"coral_loss needs >= 2 rows per batch, got {n_s} and {n_t}")
    diff = covariance(source_acts) - covariance(target_acts)
    value = float(np.sum(diff * diff) / (4.0 * d * d))
    s_centered = source_acts - source_acts.mean(axis=0, keepdims=True)
    t_centered = target_acts - target_acts.mean(axis=0, keepdims=True)
    d_source = s_centered @ diff / (d * d * (n_s - 1))
    d_target = -(t_centered @ diff) / (d * d * (n_t - 1))
    return CoralValue(value=value, d_source=d_source, d_target=d_target)

