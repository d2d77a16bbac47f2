"""Golden per-epoch histories: training must reproduce them bit for bit.

Each digest is the SHA-256 of one run's per-epoch losses and split metrics
(every float by its exact hex form, confusion matrices as raw int64 bytes),
followed by the selected checkpoint's parameters as raw float64 bytes. The
values were recorded from the per-array implementation of ``Network`` and
``Adam`` that the flat parameter buffer replaced; any change to the order of
floating-point operations in the training step shows here as a new digest.
The cases cover every branch of the step: each method, feature jitter, the
feature-level CORAL variant, provenance discriminator labels, the GRL ramp,
a target set smaller than the source set, so target batches wrap around T,
and deerdann source batches that route no row (small batches, no synthetic
samples), whose discriminator passes run on zero rows.
"""

import hashlib

import numpy as np
import pytest

from raredapt import Adam, TrainConfig, load_checkpoint, save_checkpoint, train
from raredapt.network import Network

SHARED = dict(epochs=3, synthetic_count=80, batch_size=32)

CASES = {
    "baseline": dict(method="baseline"),
    "deerdann": dict(method="deerdann"),
    "alldann": dict(method="alldann"),
    "deercoral": dict(method="deercoral"),
    "baseline_seed1": dict(method="baseline", seed=1),
    "deerdann_seed1": dict(method="deerdann", seed=1),
    "alldann_seed1": dict(method="alldann", seed=1),
    "deercoral_seed1": dict(method="deercoral", seed=1),
    "baseline_jitter": dict(method="baseline", feature_jitter=0.2),
    "deerdann_jitter": dict(method="deerdann", feature_jitter=0.2),
    "deercoral_jitter": dict(method="deercoral", feature_jitter=0.2),
    "deercoral_features": dict(method="deercoral", coral_layer="features"),
    "deerdann_provenance": dict(method="deerdann", discriminator_labels="provenance"),
    "alldann_grl_ramp": dict(method="alldann", grl_ramp_epochs=2, grl_scale=0.5),
    # |T| below |S|: the sampler wraps around T within each epoch
    "deerdann_oversample1": dict(method="deerdann", oversample_factor=1),
    "deercoral_oversample1": dict(method="deercoral", oversample_factor=1),
    # 39 of 117 source batches hold no rare-class row
    "deerdann_count0_batch8": dict(method="deerdann", synthetic_count=0, batch_size=8),
}

GOLDEN = {
    "alldann": "8f0b634dd92803bd067704422a8c43083a810f80093b60f14b469e78ba9b8481",
    "alldann_grl_ramp": "34d0e1721ba9130f0cf4561659974e35aed03b1848dd102f5c9c8120739e3c2b",
    "alldann_seed1": "8bdda2fd068ed8109ddd62ce8fe2c82962c9a6429d42d7d6884a0d55634f07f1",
    "baseline": "2ce3f5c2fffaee308f41d3ee70582a79d0f89ef40ba4e6cb59ef886efc33d75b",
    "baseline_jitter": "e8575f0e8e7bcc7b9967a9be56401e503ac98f27cf144c417898327c0829a753",
    "baseline_seed1": "0a678d8f91f37dd9d24a9851220c415e4c7b4877db7b6ebf056617c0c0db6fdc",
    "deercoral": "c253cac19773e118428bf95f6b80d82661d9b5075df34155cee4f85be1182f85",
    "deercoral_features": "9112a317046e9df21c4a63bb39dcb40dd119f556c9707c4725504c75f52f77a7",
    "deercoral_jitter": "7a9dc004584cd4be2cc088f413887dc663e5f754c7fa1aa3d5e154cf42b88198",
    "deercoral_oversample1": "d961f852a6ff50b010edee3702af5e34d196ea5e2008d45ae19b65d21bf6acab",
    "deercoral_seed1": "3b881936b3b890f43722771ea4871590f41b6bcace7387c6da86b0fc9e76e4ce",
    "deerdann": "283b0037e20e1a836bbf1845fd94321c015f1d3ccc7b41e1a726c1053189601b",
    "deerdann_count0_batch8": "8f279a9c44cd0045c1c72c269e2acb2afe83891d2aa66af40516cde191055984",
    "deerdann_jitter": "17ee28ad962c12161075cafb73c55f52ac438db81b938ca87f5fb7535cf11f94",
    "deerdann_oversample1": "eb523404b8db3db40b937769ca24f739ccd6c22392b758b55f93b3849248e706",
    "deerdann_provenance": "c790c7c832d404190fbb235fecf577d6a0b6ca4f2ea91920fb9262b80c8c60d0",
    "deerdann_seed1": "05fd17ff8ee321eb526bbfd38cdcbd6301c3a6714dac025411a08726144e77f2",
}


def run_digest(history, checkpoint) -> str:
    h = hashlib.sha256()
    for rec in history:
        losses = (rec.classification_loss, rec.domain_loss, rec.coral_term,
                  rec.composite_loss, rec.discriminator_acc)
        h.update(f"{rec.epoch}:{':'.join(float(v).hex() for v in losses)}".encode())
        for split in sorted(rec.split_metrics):
            m = rec.split_metrics[split]
            h.update(split.encode())
            h.update(np.ascontiguousarray(m.per_class_acc, dtype="<f8").tobytes())
            h.update(np.ascontiguousarray(m.confusion, dtype="<i8").tobytes())
    h.update(f"selected:{checkpoint.epoch}".encode())
    slots = Network(checkpoint.network_spec).slots
    for key in sorted(slots):
        span, _ = slots[key]
        h.update(key.encode())
        h.update(np.ascontiguousarray(checkpoint.params[span], dtype="<f8").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_history_matches_golden_digest(tiny_dataset, case):
    cp, history = train(tiny_dataset, TrainConfig(**{**SHARED, **CASES[case]}))
    assert run_digest(history, cp) == GOLDEN[case]


def _one_step_moves_forward(net: Network, x: np.ndarray) -> None:
    """One Adam step on unit gradients changes what ``forward_features`` computes,
    and every layer array it reads still lives in the flat buffer."""
    for _, _, layer in net.parameters():
        assert np.shares_memory(layer.w, net.params) and np.shares_memory(layer.b, net.params)
        assert np.shares_memory(layer.gw, net.grads) and np.shares_memory(layer.gb, net.grads)
    before, _ = net.forward_features(x)
    weights = [layer.w.copy() for layer in net.parts["extractor"]]
    opt = Adam(net, TrainConfig(method="baseline"))
    net.zero_grads()
    for _, _, layer in net.parameters():
        layer.gw[...] = 1.0
        layer.gb[...] = 1.0
    opt.step()
    for old, layer in zip(weights, net.parts["extractor"]):
        assert not np.array_equal(old, layer.w)
    after, _ = net.forward_features(x)
    assert not np.array_equal(before, after)


def test_views_stay_bound_after_load_state_and_build_network(tiny_dataset, tmp_path):
    cp, _ = train(tiny_dataset, TrainConfig(method="baseline", epochs=1, synthetic_count=0))
    x = tiny_dataset.features[:16]

    net = cp.build_network()
    _one_step_moves_forward(net, x)

    net.load_state(cp.params)
    assert np.array_equal(net.snapshot(), cp.params)
    _one_step_moves_forward(net, x)

    save_checkpoint(cp, tmp_path / "model.ckpt")
    _one_step_moves_forward(load_checkpoint(tmp_path / "model.ckpt").build_network(), x)
