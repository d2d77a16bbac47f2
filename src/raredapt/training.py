"""End-to-end training of the classification + adaptation objectives.

One optimizer drives all three network parts every step (so ablated methods
share bit-identical trajectories): the classifier path always minimizes
cross-entropy on source batches; the adversarial methods add the domain
confusion term with the reversal layer between extractor and discriminator;
the covariance method forwards a target batch and adds the weighted alignment
term. Per epoch, every split is evaluated and a parameter snapshot is kept;
the returned checkpoint is the epoch with the best trans-validation rare-class
accuracy among epochs whose trans-validation other-class accuracy stays within
a tolerance of the best value seen.

The adversarial methods differ only in routing: each batch pair carries the
positions of the feature rows that reach the discriminator (rare-class rows
for deerdann, every row for alldann; no other method routes any), sorted and
unique, and the step takes its alignment term from the pair alone. It gathers
those rows on the forward pass and adds their gradient back into the same rows
on the backward pass, through the gradient reversal layer: identity forward,
negate-and-scale backward, so the extractor is pushed to *maximize* the
discriminator's loss while the discriminator minimizes it.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from .checkpoint import Checkpoint
from .data import SPLITS, Dataset
from .domains import METHODS, BatchPair, build_domains, paired_sampler
from .losses import DOMAIN_SOURCE, DOMAIN_TARGET, coral_loss, cross_entropy, domain_confusion
from .metrics import RunMetrics, evaluate
from .network import ARCH_RULES, Network, NetworkSpec, grl_backward
from .numerics import make_rng, require_fields

_INIT_STREAM = 20
_JITTER_STREAM = 21

CORAL_LAYERS = ("logits", "features")
DISCRIMINATOR_LABELS = ("membership", "provenance")


class TrainingDiverged(RuntimeError):
    """Non-finite loss or gradient encountered; the run is aborted."""


def select_epoch(
    rare_acc: Sequence[float], other_macro: Sequence[float], tolerance_points: float
) -> int:
    """Checkpoint selection on the trans validation split.

    Primary metric: rare-class accuracy. Constraint: other-class macro
    accuracy within ``tolerance_points`` (percentage points) of the best value
    observed over the run. Ties break to the earliest epoch.
    """
    if len(rare_acc) != len(other_macro) or not rare_acc:
        raise ValueError("selection needs equal-length, non-empty metric histories")
    other = np.asarray(other_macro, dtype=np.float64)
    rare = np.asarray(rare_acc, dtype=np.float64)
    best_other = np.nanmax(other)
    eligible = np.flatnonzero(other >= best_other - tolerance_points / 100.0)
    ranked = rare[eligible]
    ranked = np.where(np.isnan(ranked), -np.inf, ranked)
    return int(eligible[np.argmax(ranked)])


_TRAIN_CONFIG_RULES = (
    (">= 1", lambda v: v >= 1, ("epochs", "oversample_factor")),
    (">= 2", lambda v: v >= 2, ("batch_size",)),
    ("> 0", lambda v: v > 0, ("learning_rate", "head_lr_multiplier", "adam_eps")),
    (">= 0", lambda v: v >= 0, ("l2", "coral_weight", "domain_weight", "grl_scale",
                                "grl_ramp_epochs", "synthetic_count", "feature_jitter",
                                "selection_tolerance_points", "seed")),
    ("in [0, 1)", lambda v: 0 <= v < 1, ("beta1", "beta2")),
    ("None or >= 0", lambda v: v is None or v >= 0, ("rare_class_id",)),
    *ARCH_RULES,
    (" or ".join(map(repr, CORAL_LAYERS)), lambda v: v in CORAL_LAYERS, ("coral_layer",)),
    (" or ".join(map(repr, DISCRIMINATOR_LABELS)), lambda v: v in DISCRIMINATOR_LABELS,
     ("discriminator_labels",)),
)


@dataclass(frozen=True)
class TrainConfig:
    """All hyperparameters of one run; hashable for provenance tracking."""

    method: str
    epochs: int = 100
    batch_size: int = 64
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    l2: float = 1e-4
    coral_weight: float = 0.5
    domain_weight: float = 1.0
    grl_scale: float = 1.0
    grl_ramp_epochs: int = 0
    head_lr_multiplier: float = 10.0
    oversample_factor: int = 50
    synthetic_count: int = 2000
    coral_layer: str = "logits"
    discriminator_labels: str = "membership"
    feature_jitter: float = 0.0
    feature_dims: tuple[int, ...] = (64, 32)
    classifier_hidden: tuple[int, ...] = ()
    discriminator_hidden: tuple[int, ...] = (32,)
    selection_tolerance_points: float = 1.0
    rare_class_id: int | None = None
    seed: int = 0

    def __post_init__(self):
        require_fields(self, _TRAIN_CONFIG_RULES)
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")

    def config_hash(self) -> str:
        payload = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()

    def effective_grl_scale(self, epoch: int) -> float:
        if self.grl_ramp_epochs > 0:
            return self.grl_scale * min(1.0, (epoch + 1) / self.grl_ramp_epochs)
        return self.grl_scale


class Adam:
    """Adam with bias correction and classical L2 on the weight matrices.

    One fused update of the network's flat parameter vector (see
    :mod:`raredapt.network`). The L2 term is added to the gradient before the
    moment updates (weight decay inside the loss, not the decoupled variant)
    and is applied to weights only, never biases: its mask is the leading
    ``net.weight_size`` elements, where the layout keeps every weight matrix.
    The learning rate is a per-element vector, the base rate times
    ``head_lr_multiplier`` on classifier-head elements. Every parameter of
    every part is stepped on every call so ablated methods stay on identical
    trajectories, and every element goes through the same floating-point
    operations in the same order as a per-array update, so results are
    bit-identical to one.

    ``step`` checks the whole gradient for non-finite values once, before it
    changes any parameter or moment: a divergence leaves the network and the
    optimizer state exactly as they were.
    """

    def __init__(self, net: Network, config: TrainConfig):
        self.net = net
        self.config = config
        self.t = 0
        self.m = np.zeros_like(net.params)
        self.v = np.zeros_like(net.params)
        self.lr = np.full_like(net.params, config.learning_rate)
        for key, (span, _) in net.slots.items():
            if key.startswith("classifier."):
                self.lr[span] = config.learning_rate * config.head_lr_multiplier

    def step(self) -> None:
        cfg = self.config
        net = self.net
        weights = slice(0, net.weight_size)
        g = net.grads.copy()
        g[weights] += cfg.l2 * net.params[weights]
        finite = np.isfinite(g)
        if not finite.all():
            key = next(k for k, (span, _) in net.slots.items() if not finite[span].all())
            raise TrainingDiverged(f"non-finite gradient in {key} at step {self.t + 1}")
        self.t += 1
        bc1 = 1.0 - cfg.beta1**self.t
        bc2 = 1.0 - cfg.beta2**self.t
        self.m *= cfg.beta1
        self.m += (1.0 - cfg.beta1) * g
        self.v *= cfg.beta2
        self.v += (1.0 - cfg.beta2) * g * g
        net.params -= self.lr * (self.m / bc1) / (np.sqrt(self.v / bc2) + cfg.adam_eps)


@dataclass(eq=False)  # == is identity, as for the RunMetrics it holds
class EpochRecord:
    """Learning-curve entry: loss terms plus metrics on every split."""

    epoch: int
    classification_loss: float
    domain_loss: float
    coral_term: float
    composite_loss: float
    discriminator_acc: float
    split_metrics: dict[str, RunMetrics] = field(repr=False)


class _Totals:
    """One epoch's sums behind an EpochRecord's loss fields.

    ``sums`` maps a loss field to [sum of value * weight, sum of weight] in
    step order: a loss weighs its rows, the coral term 1 per step; a term
    never added reports NaN. ``disc`` holds the discriminator's hits and rows
    per domain label, and its accuracy is balanced over domains, so chance
    stays 0.5 under routing imbalance.
    """

    def __init__(self):
        terms = ("classification_loss", "domain_loss", "coral_term", "composite_loss")
        self.sums = {name: [0.0, 0] for name in terms}
        self.disc = np.zeros((2, 2), dtype=np.int64)

    def add(self, name: str, value: float, weight: int) -> None:
        self.sums[name][0] += value * weight
        self.sums[name][1] += weight

    def summary(self) -> dict[str, float]:
        hits, rows = self.disc
        acc = hits[rows > 0] / rows[rows > 0]
        out = {name: total / n if n else math.nan for name, (total, n) in self.sums.items()}
        out["discriminator_acc"] = float(np.mean(acc)) if acc.size else math.nan
        return out


def _train_batch(
    net: Network,
    dataset: Dataset,
    pair: BatchPair,
    config: TrainConfig,
    grl_scale: float,
    jitter_rng: np.random.Generator,
    totals: _Totals,
) -> None:
    """Forward and backward passes of one step; leaves the gradients in ``net``.

    The step gathers the rows of ``pair`` from ``dataset``. Every method
    classifies the source batch. A pair with a target batch also forwards it
    and adds one alignment term, chosen by the pair: the domain confusion of
    its routed rows behind the reversal layer if it routes any, else the
    covariance alignment of logits or features. 'membership' labels routed
    rows by set; 'provenance' labels source rows by origin
    (synthetic -> source, real -> target).
    Each loss goes into ``totals`` as it is computed (see :class:`_Totals`).
    Raises TrainingDiverged on a non-finite loss, before any backward pass.

    The order of the backward calls does not change a bit: within a step,
    each layer's gradient buffer receives at most two products, one per side,
    added to the +0.0 that ``zero_grads`` wrote, and two terms summed onto
    +0.0 give the same bits in either order. A discriminator pass over a side
    that routes no row adds exact zeros. The reversed gradient of each side
    is a full-width array, zero outside the routed rows: adding it changes a
    feature gradient at most in the sign of a zero, which a sum onto a +0.0
    buffer drops.
    """
    xs = dataset.features[pair.source]
    xt = None if pair.target is None else dataset.features[pair.target]
    if config.feature_jitter > 0:  # source noise is drawn first, then target
        xs = xs + jitter_rng.standard_normal(xs.shape) * config.feature_jitter
        if xt is not None:
            xt = xt + jitter_rng.standard_normal(xt.shape) * config.feature_jitter
    net.zero_grads()
    f_src, tr_f_src = net.forward_features(xs)
    logits_src, tr_c_src = net.forward_classifier(f_src)
    classification = cross_entropy(logits_src, dataset.class_ids[pair.source])
    composite = classification.value
    terms = {"classification": classification.value}
    confusion = coral = None
    rs, rt = pair.routed_source_rows, pair.routed_target_rows
    if xt is not None:
        f_tgt, tr_f_tgt = net.forward_features(xt)
    if rs.size + rt.size:
        d_logits_src, tr_d_src = net.forward_discriminator(f_src[rs])
        d_logits_tgt, tr_d_tgt = net.forward_discriminator(f_tgt[rt])
        stacked = np.vstack((d_logits_src, d_logits_tgt))
        labels = np.repeat([DOMAIN_SOURCE, DOMAIN_TARGET], [rs.size, rt.size])
        if config.discriminator_labels == "provenance":
            synthetic = dataset.domains[pair.source[rs]] == "synthetic"
            labels[: rs.size] = np.where(synthetic, DOMAIN_SOURCE, DOMAIN_TARGET)
        confusion = domain_confusion(stacked, labels)
        hits = labels[np.argmax(stacked, axis=1) == labels]
        totals.disc += (np.bincount(hits, minlength=2), np.bincount(labels, minlength=2))
        totals.add("domain_loss", confusion.value, confusion.dlogits.shape[0])
        composite += config.domain_weight * confusion.value
        terms["domain"] = confusion.value
    elif xt is not None:
        if config.coral_layer == "logits":
            logits_tgt, tr_c_tgt = net.forward_classifier(f_tgt)
            coral = coral_loss(logits_src, logits_tgt)
        else:
            coral = coral_loss(f_src, f_tgt)
        totals.add("coral_term", coral.value, 1)
        composite += config.coral_weight * coral.value
        terms["coral"] = coral.value
    if not math.isfinite(composite):
        listed = ", ".join(f"{name} {value!r}" for name, value in terms.items())
        raise TrainingDiverged(f"non-finite loss ({listed}, composite {composite!r})")
    totals.add("classification_loss", classification.value, xs.shape[0])
    totals.add("composite_loss", composite, xs.shape[0])
    dlogits = classification.dlogits
    dfeat_src = dfeat_tgt = None  # each side's gradient w.r.t. its features from the term
    if confusion is not None:
        dlogits_d = config.domain_weight * confusion.dlogits
        dfeat_src, dfeat_tgt = np.zeros_like(f_src), np.zeros_like(f_tgt)
        d_routed = net.backward("discriminator", tr_d_src, dlogits_d[: rs.size])
        dfeat_src[rs] += grl_backward(d_routed, grl_scale)
        d_routed = net.backward("discriminator", tr_d_tgt, dlogits_d[rs.size :])
        dfeat_tgt[rt] += grl_backward(d_routed, grl_scale)
    elif coral is not None:
        dfeat_tgt = config.coral_weight * coral.d_target
        if config.coral_layer == "logits":
            dlogits = dlogits + config.coral_weight * coral.d_source
            dfeat_tgt = net.backward("classifier", tr_c_tgt, dfeat_tgt)
        else:
            dfeat_src = config.coral_weight * coral.d_source
    dfeat = net.backward("classifier", tr_c_src, dlogits)
    if dfeat_src is not None:
        dfeat += dfeat_src
    net.backward("extractor", tr_f_src, dfeat)
    if dfeat_tgt is not None:
        net.backward("extractor", tr_f_tgt, dfeat_tgt)


def train(dataset: Dataset, config: TrainConfig) -> tuple[Checkpoint, list[EpochRecord]]:
    """Run the full optimization; returns the selected checkpoint and history.

    Deterministic: identical dataset + config reproduce the history and the
    selected parameters bit for bit.

    Inputs are checked at the boundary and the step then trusts its arrays:
    the Dataset checked its features when it was built, ``TrainConfig`` its
    fields, and the labels and splits are checked here once: a label out of
    range, a split with no real rows, or a trans_val without real rows both
    of the rare class and outside it raises a plain ValueError before any
    step. Inside the step, two checks catch numerical divergence, each
    raising TrainingDiverged that names the epoch and batch before the
    optimizer changes anything:

    - the composite loss: a NaN or Inf in an input row, an activation or a
      loss term makes it non-finite; the message lists each term's value,
      so a bad domain or coral term points at the discriminator or the
      alignment;
    - ``Adam.step``'s check of the whole gradient, which names the first
      non-finite parameter slot.

    After each epoch ``evaluate`` checks its logits and raises NonFiniteError
    naming the split. Any other error propagates unchanged.
    """
    labels = dataset.class_ids
    if labels.size and (labels.min() < 0 or labels.max() >= dataset.num_classes):
        raise ValueError(f"label out of range [0, {dataset.num_classes}) in the dataset")
    org = build_domains(
        dataset,
        config.method,
        config.synthetic_count,
        oversample_factor=config.oversample_factor,
        seed=config.seed,
        rare_class_id=config.rare_class_id,
    )
    # every split is evaluated each epoch, and selection needs trans_val's rare
    # class and at least one other
    for split, rows in dataset.real_split_indices.items():
        if rows.size == 0:
            raise ValueError(f"split {split!r} has no real samples")
    rare = dataset.class_ids[dataset.real_split_indices["trans_val"]] == org.rare_class_id
    if rare.all():
        raise ValueError(
            f"split 'trans_val' has no real samples outside rare class {org.rare_class_id}"
        )
    if not rare.any():
        raise ValueError(
            f"split 'trans_val' has no real samples of rare class {org.rare_class_id}"
        )
    net_spec = NetworkSpec(dataset.feature_dim, dataset.num_classes, config.feature_dims,
                           config.classifier_hidden, config.discriminator_hidden)
    net = Network.initialize(net_spec, make_rng(config.seed, _INIT_STREAM))
    opt = Adam(net, config)
    jitter_rng = make_rng(config.seed, _JITTER_STREAM)
    history: list[EpochRecord] = []
    snapshots: list[np.ndarray] = []
    # Non-finite values are reported by the loss, gradient and logits checks,
    # not by numpy's floating-point warnings: an Inf input row or an
    # overflowing product becomes a NaN loss, which aborts the run as divergence.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            grl_scale = config.effective_grl_scale(epoch)
            totals = _Totals()
            for batch_i, pair in enumerate(
                paired_sampler(org, config.batch_size, config.seed, epoch)
            ):
                try:
                    _train_batch(net, dataset, pair, config, grl_scale, jitter_rng, totals)
                    opt.step()
                except TrainingDiverged as exc:
                    raise TrainingDiverged(
                        f"run aborted at epoch {epoch} batch {batch_i}: {exc}"
                    ) from exc
            split_metrics = {
                split: evaluate(net, dataset, split, org.rare_class_id) for split in SPLITS
            }
            history.append(
                EpochRecord(epoch=epoch, split_metrics=split_metrics, **totals.summary())
            )
            snapshots.append(net.snapshot())

    selected = select_epoch(
        [rec.split_metrics["trans_val"].rare_acc for rec in history],
        [rec.split_metrics["trans_val"].other_macro for rec in history],
        config.selection_tolerance_points,
    )
    best = Checkpoint(
        params=snapshots[selected],
        network_spec=net_spec,
        epoch=selected,
        config_hash=config.config_hash(),
    )
    return best, history
