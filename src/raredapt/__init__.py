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
    Sample,
    class_histogram,
    datasets_equal,
    generate,
    load_csv,
    save_csv,
)
from .domains import METHODS, BatchPair, DomainOrg, build_domains, paired_sampler, route_delta
from .losses import (
    CoralValue,
    LossValue,
    composite_coral,
    composite_dann,
    coral_loss,
    covariance,
    cross_entropy,
    domain_confusion,
)
from .metrics import RunMetrics, comparison_table, evaluate, table_row
from .network import (
    MlpSpec,
    Network,
    NetworkSpec,
    default_network_spec,
    grl_backward,
    grl_forward,
)
from .numerics import (
    NonFiniteError,
    finite_diff_grad,
    make_rng,
    matmul,
    relative_error,
    softmax_rows,
)
from .projection import ProjectedFeatures, bimodality_score, export_scatter, pca_fit, project_features
from .sweeps import SweepCell, SweepResult, sweep, sweep_csv
from .training import (
    Adam,
    EpochRecord,
    SelectionRule,
    TrainConfig,
    TrainingDiverged,
    select_epoch,
    train,
)

__version__ = "0.1.0"
