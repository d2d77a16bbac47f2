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

The adversarial methods differ only in routing: the sampler's ``route_delta``
picks which feature rows of each batch reach the discriminator (rare-class
rows for deerdann, every row for alldann), sorted and unique. The step
gathers those rows on the forward pass and adds their gradient back into the
same rows on the backward pass, through the gradient reversal layer: identity
forward, negate-and-scale backward, so the extractor is pushed to *maximize*
the discriminator's loss while the discriminator minimizes it.
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
from .network import Network, default_network_spec, grl_backward
from .numerics import NonFiniteError, make_rng

_INIT_STREAM = 20
_JITTER_STREAM = 21


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
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 2:
            raise ValueError(f"batch_size must be >= 2, got {self.batch_size}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.coral_weight < 0 or self.grl_scale < 0:
            raise ValueError("coral_weight and grl_scale must be >= 0")
        if self.coral_layer not in ("logits", "features"):
            raise ValueError(f"coral_layer must be 'logits' or 'features', got {self.coral_layer!r}")
        if self.discriminator_labels not in ("membership", "provenance"):
            raise ValueError(
                "discriminator_labels must be 'membership' or 'provenance', "
                f"got {self.discriminator_labels!r}"
            )

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


@dataclass
class EpochRecord:
    """Learning-curve entry: loss terms plus metrics on every split."""

    epoch: int
    classification_loss: float
    domain_loss: float
    coral_term: float
    composite_loss: float
    discriminator_acc: float
    split_metrics: dict[str, RunMetrics] = field(repr=False)


def _discriminator_labels(pair: BatchPair, config: TrainConfig) -> np.ndarray:
    """Domain labels for the routed rows, source block then target block.

    'membership' labels by set: source-batch rows are DOMAIN_SOURCE even for
    the real rare samples living in S. 'provenance' labels by sample origin
    (synthetic -> source, real -> target) regardless of set.
    """
    rs, rt = pair.routed_source_rows, pair.routed_target_rows
    if config.discriminator_labels == "membership":
        src = np.full(rs.size, DOMAIN_SOURCE, dtype=np.int64)
    else:
        src = np.where(
            pair.source.domains[rs] == "synthetic", DOMAIN_SOURCE, DOMAIN_TARGET
        ).astype(np.int64)
    tgt = np.full(rt.size, DOMAIN_TARGET, dtype=np.int64)
    return np.concatenate([src, tgt])


class _Totals:
    def __init__(self):
        self.ce_sum = 0.0
        self.ce_n = 0
        self.dom_sum = 0.0
        self.dom_n = 0
        self.coral_sum = 0.0
        self.coral_n = 0
        self.comp_sum = 0.0
        self.comp_n = 0
        # per-domain correct/total; the reported discriminator accuracy is
        # balanced over domains, so chance stays 0.5 under routing imbalance
        self.disc_correct = np.zeros(2, dtype=np.int64)
        self.disc_total = np.zeros(2, dtype=np.int64)

    def record(self, ce, n, composite, dom=None, dom_n=0, coral=None):
        self.ce_sum += ce * n
        self.ce_n += n
        self.comp_sum += composite * n
        self.comp_n += n
        if dom is not None:
            self.dom_sum += dom * dom_n
            self.dom_n += dom_n
        if coral is not None:
            self.coral_sum += coral
            self.coral_n += 1

    def record_discriminator(self, preds: np.ndarray, labels: np.ndarray) -> None:
        self.disc_correct += np.bincount(labels[preds == labels], minlength=2)
        self.disc_total += np.bincount(labels, minlength=2)

    def summary(self) -> dict[str, float]:
        present = self.disc_total > 0
        disc = (
            float(np.mean(self.disc_correct[present] / self.disc_total[present]))
            if present.any()
            else math.nan
        )
        return {
            "classification_loss": self.ce_sum / self.ce_n if self.ce_n else math.nan,
            "domain_loss": self.dom_sum / self.dom_n if self.dom_n else math.nan,
            "coral_term": self.coral_sum / self.coral_n if self.coral_n else math.nan,
            "composite_loss": self.comp_sum / self.comp_n if self.comp_n else math.nan,
            "discriminator_acc": disc,
        }


def _train_batch(
    net: Network,
    pair: BatchPair,
    config: TrainConfig,
    grl_scale: float,
    jitter_rng: np.random.Generator,
    totals: _Totals,
) -> None:
    """Forward and backward passes of one step; leaves the gradients in ``net``.

    Every method classifies the source batch. A method with a target set
    also forwards the target batch and adds its alignment term: the domain
    confusion of the routed rows behind the reversal layer (deerdann,
    alldann), or the covariance alignment of logits or features (deercoral).
    Raises TrainingDiverged on a non-finite loss, before any backward pass.
    The backward pass runs the source side, then the target side; each side
    runs its heads, then the extractor.
    """
    xs = pair.source.features
    xt = None if pair.target is None else pair.target.features
    if config.feature_jitter > 0:  # source noise is drawn first, then target
        xs = xs + jitter_rng.standard_normal(xs.shape) * config.feature_jitter
        if xt is not None:
            xt = xt + jitter_rng.standard_normal(xt.shape) * config.feature_jitter
    net.zero_grads()
    f_src, tr_f_src = net.forward_features(xs)
    logits_src, tr_c_src = net.forward_classifier(f_src)
    classification = cross_entropy(logits_src, pair.source.class_ids)
    composite = classification.value
    confusion = coral = None
    rs, rt = pair.routed_source_rows, pair.routed_target_rows
    if xt is not None:
        f_tgt, tr_f_tgt = net.forward_features(xt)
    if config.method in ("deerdann", "alldann") and rs.size + rt.size > 0:
        blocks = []
        if rs.size:
            d_logits_src, tr_d_src = net.forward_discriminator(f_src[rs])
            blocks.append(d_logits_src)
        if rt.size:
            d_logits_tgt, tr_d_tgt = net.forward_discriminator(f_tgt[rt])
            blocks.append(d_logits_tgt)
        stacked = np.vstack(blocks)
        labels = _discriminator_labels(pair, config)
        confusion = domain_confusion(stacked, labels)
        totals.record_discriminator(np.argmax(stacked, axis=1), labels)
        composite += config.domain_weight * confusion.value
    elif config.method == "deercoral":
        if config.coral_layer == "logits":
            logits_tgt, tr_c_tgt = net.forward_classifier(f_tgt)
            coral = coral_loss(logits_src, logits_tgt)
        else:
            coral = coral_loss(f_src, f_tgt)
        composite += config.coral_weight * coral.value

    if not math.isfinite(composite):
        raise TrainingDiverged(
            f"non-finite loss (classification {classification.value!r}, composite {composite!r})"
        )
    weight = config.coral_weight
    coral_on_logits = coral is not None and config.coral_layer == "logits"
    if confusion is not None:
        dlogits_d = config.domain_weight * confusion.dlogits
    # source side
    dlogits = classification.dlogits
    if coral_on_logits:
        dlogits = dlogits + weight * coral.d_source
    dfeat = net.backward("classifier", tr_c_src, dlogits)
    if confusion is not None and rs.size:
        d_routed = net.backward("discriminator", tr_d_src, dlogits_d[: rs.size])
        dfeat[rs] += grl_backward(d_routed, grl_scale)
    if coral is not None and not coral_on_logits:
        dfeat += weight * coral.d_source
    net.backward("extractor", tr_f_src, dfeat)
    # target side
    dfeat = None
    if confusion is not None and rt.size:
        dfeat = np.zeros_like(f_tgt)
        d_routed = net.backward("discriminator", tr_d_tgt, dlogits_d[rs.size :])
        dfeat[rt] += grl_backward(d_routed, grl_scale)
    elif coral is not None:
        dfeat = weight * coral.d_target
        if coral_on_logits:
            dfeat = net.backward("classifier", tr_c_tgt, dfeat)
    if dfeat is not None:
        net.backward("extractor", tr_f_tgt, dfeat)
    totals.record(
        classification.value,
        xs.shape[0],
        composite,
        dom=None if confusion is None else confusion.value,
        dom_n=0 if confusion is None else confusion.n_terms,
        coral=None if coral is None else coral.value,
    )


def train(dataset: Dataset, config: TrainConfig) -> tuple[Checkpoint, list[EpochRecord]]:
    """Run the full optimization; returns the selected checkpoint and history.

    Deterministic: identical dataset + config reproduce the history and the
    selected parameters bit for bit. A non-finite loss, activation or gradient
    raises TrainingDiverged naming the epoch and batch, before the optimizer
    changes anything; other errors, such as a label out of range, propagate
    unchanged.
    """
    net_spec = default_network_spec(
        dataset.feature_dim,
        dataset.num_classes,
        feature_dims=config.feature_dims,
        classifier_hidden=config.classifier_hidden,
        discriminator_hidden=config.discriminator_hidden,
    )
    net = Network.initialize(net_spec, make_rng(config.seed, _INIT_STREAM))
    org = build_domains(
        dataset,
        config.method,
        config.synthetic_count,
        oversample_factor=config.oversample_factor,
        seed=config.seed,
        rare_class_id=config.rare_class_id,
    )
    opt = Adam(net, config)
    jitter_rng = make_rng(config.seed, _JITTER_STREAM)
    history: list[EpochRecord] = []
    snapshots: list[np.ndarray] = []
    for epoch in range(config.epochs):
        grl_scale = config.effective_grl_scale(epoch)
        totals = _Totals()
        for batch_i, pair in enumerate(
            paired_sampler(org, config.batch_size, config.seed, epoch)
        ):
            try:
                _train_batch(net, pair, config, grl_scale, jitter_rng, totals)
                opt.step()
            except (TrainingDiverged, NonFiniteError) as exc:
                raise TrainingDiverged(
                    f"run aborted at epoch {epoch} batch {batch_i}: {exc}"
                ) from exc
        split_metrics = {
            split: evaluate(net, dataset, split, org.rare_class_id) for split in SPLITS
        }
        history.append(EpochRecord(epoch=epoch, split_metrics=split_metrics, **totals.summary()))
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
