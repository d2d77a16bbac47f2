import numpy as np
import pytest

from raredapt import GenSpec, generate, make_rng, route_delta
from raredapt.domains import BatchPair, SideBatch
from raredapt.network import MlpSpec, Network, NetworkSpec

KINK_MARGIN = 5e-3  # finite differences are invalid within ~h of a ReLU kink


def tiny_gen_spec(**overrides) -> GenSpec:
    """Small, fast benchmark for unit tests (keeps the 41-sample rare class)."""
    base = dict(
        class_count=4,
        feature_dim=8,
        rare_class_id=3,
        train_counts=(120, 90, 60, 41),
        val_count_per_class=15,
        test_count_per_class=25,
        synthetic_pool_size=400,
        seed=0,
    )
    base.update(overrides)
    return GenSpec(**base)


@pytest.fixture(scope="session")
def tiny_dataset():
    return generate(tiny_gen_spec())


def micro_spec(rng: np.random.Generator) -> NetworkSpec:
    """Random micro network with all dims <= 8, for gradient checks."""
    d_in = int(rng.integers(2, 8))
    d_h = int(rng.integers(2, 8))
    d_f = int(rng.integers(2, 8))
    k = int(rng.integers(2, 8))
    d_dh = int(rng.integers(2, 8))
    return NetworkSpec(
        extractor=MlpSpec(d_in, (d_h,), d_f),
        classifier=MlpSpec(d_f, (), k),
        discriminator=MlpSpec(d_f, (d_dh,), 2),
    )


def make_gradcheck_net(seed: int) -> tuple[Network, np.random.Generator]:
    """Random micro net with jittered biases so no pre-activation sits at 0.

    Zero-initialized biases put entire layers exactly on the ReLU kink for
    dead inputs, where the loss is not differentiable and central differences
    are meaningless; small random biases move the kinks off that measure-zero
    set. Callers must still reject instances whose traces come within
    KINK_MARGIN of a kink (see ``trace_clear_of_kinks``).
    """
    rng = make_rng(seed, 99)
    net = Network.initialize(micro_spec(rng), rng)
    for _, _, layer in net.parameters():
        layer.b[...] = rng.standard_normal(layer.b.shape) * 0.3
    return net, rng


def trace_clear_of_kinks(*traces, margin: float = KINK_MARGIN) -> bool:
    return all(np.abs(z).min() >= margin for tr in traces if tr is not None for z in tr.pre)


def batch_pair(method, rare_class_id, xs, ys, xt=None, yt=None) -> BatchPair:
    """A hand-built batch pair, routed as ``paired_sampler`` routes one; pass
    no target batch for the baseline."""

    def side(x, y):
        return SideBatch(features=x, class_ids=y, domains=np.full(len(y), "real"),
                         indices=np.arange(len(y)))

    if xt is None:
        target, routed_target = None, np.empty(0, dtype=np.int64)
    else:
        target, routed_target = side(xt, yt), route_delta(yt, method, rare_class_id)
    return BatchPair(side(xs, ys), target, route_delta(ys, method, rare_class_id), routed_target)
