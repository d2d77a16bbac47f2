"""Rare-class domain adaptation testbed.

Trains a classifier on a long-tailed benchmark whose rarest class is augmented
with synthetic samples separated from the real ones by a controllable domain
gap, and compares four ways of handling that gap: a plain synthetic-augmented
baseline, adversarial alignment fed only rare-class features, adversarial
alignment fed all features, and covariance alignment between the source and
target batch statistics.
"""

from .checkpoint import Checkpoint, CheckpointError, load_checkpoint, save_checkpoint
from .data import (
    DataFormatError,
    Dataset,
    GenSpec,
    class_histogram,
    datasets_equal,
    generate,
    load_csv,
    save_csv,
)
from .domains import METHODS, BatchPair, DomainOrg, build_domains, paired_sampler
from .losses import (
    CoralValue,
    LossValue,
    coral_loss,
    covariance,
    cross_entropy,
    domain_confusion,
)
from .metrics import RunMetrics, comparison_table, evaluate, table_row
from .network import Network, NetworkSpec, grl_backward
from .numerics import NonFiniteError, make_rng
from .projection import ProjectedFeatures, bimodality_score, export_scatter, pca_fit, project_features
from .training import (
    Adam,
    EpochRecord,
    TrainConfig,
    TrainingDiverged,
    select_epoch,
    train,
)

__version__ = "0.1.0"
