import numpy as np
import pytest

from raredapt import (
    Network,
    TrainConfig,
    cross_entropy,
    grl_backward,
    make_rng,
)
from raredapt.network import Layer, MlpSpec, NetworkSpec, default_network_spec
from raredapt.training import _Totals, _train_batch

from conftest import batch_pair
from oracles import relative_error


def small_spec():
    return NetworkSpec(
        extractor=MlpSpec(4, (5,), 3),
        classifier=MlpSpec(3, (), 4),
        discriminator=MlpSpec(3, (3,), 2),
    )


def test_default_spec_shapes():
    spec = default_network_spec(32, 8)
    assert [l for l in spec.extractor.layer_dims] == [(32, 64), (64, 32)]
    assert spec.classifier.layer_dims == [(32, 8)]
    assert spec.discriminator.layer_dims == [(32, 32), (32, 2)]


def test_spec_rejects_bad_wiring():
    with pytest.raises(ValueError, match="classifier input"):
        NetworkSpec(MlpSpec(4, (), 3), MlpSpec(5, (), 2), MlpSpec(3, (), 2))
    with pytest.raises(ValueError, match="2 logits"):
        NetworkSpec(MlpSpec(4, (), 3), MlpSpec(3, (), 2), MlpSpec(3, (), 3))


def test_zero_weights_give_zero_features_and_logits():
    net = Network.initialize(small_spec(), make_rng(0))
    for _, _, layer in net.parameters():
        layer.w[...] = 0.0
        layer.b[...] = 0.0
    x = make_rng(1).standard_normal((5, 4))
    features, _ = net.forward_features(x)
    assert np.array_equal(features, np.zeros((5, 3)))
    logits, _ = net.forward_classifier(features)
    assert np.array_equal(logits, np.zeros((5, 4)))


def test_single_identity_layer_passes_input_through():
    spec = NetworkSpec(MlpSpec(3, (), 3), MlpSpec(3, (), 2), MlpSpec(3, (), 2))
    net = Network.initialize(spec, make_rng(0))
    net.parts["extractor"][0].w = np.eye(3)
    net.parts["extractor"][0].b = np.zeros(3)
    x = np.abs(make_rng(2).standard_normal((4, 3)))  # positive -> relu is identity
    features, _ = net.forward_features(x)
    assert np.array_equal(features, x)


def test_forward_matches_layer_by_layer_recomputation():
    net = Network.initialize(small_spec(), make_rng(3))
    x = make_rng(4).standard_normal((6, 4))
    features, _ = net.forward_features(x)
    a = x
    for layer in net.parts["extractor"]:
        a = np.maximum(a @ layer.w + layer.b, 0.0)
    assert relative_error(features, a) < 1e-12
    logits, _ = net.forward_classifier(features)
    c = net.parts["classifier"][0]
    assert relative_error(logits, features @ c.w + c.b) < 1e-12


def test_head_output_widths():
    net = Network.initialize(small_spec(), make_rng(5))
    features, _ = net.forward_features(make_rng(6).standard_normal((7, 4)))
    assert net.forward_classifier(features)[0].shape == (7, 4)
    assert net.forward_discriminator(features)[0].shape == (7, 2)


def test_forward_shape_mismatch_errors():
    net = Network.initialize(small_spec(), make_rng(7))
    with pytest.raises(ValueError, match="input dim"):
        net.forward_features(np.zeros((2, 5)))
    with pytest.raises(ValueError, match="input dim"):
        net.forward_classifier(np.zeros((2, 4)))


def test_forward_deterministic():
    net = Network.initialize(small_spec(), make_rng(8))
    x = make_rng(9).standard_normal((5, 4))
    f1, _ = net.forward_features(x)
    f2, _ = net.forward_features(x)
    assert np.array_equal(f1, f2)


def test_grl_backward_examples():
    assert np.array_equal(grl_backward(np.array([[1.0, 2.0]]), 1.0), [[-1.0, -2.0]])
    g = make_rng(11).standard_normal((4, 3))
    assert np.array_equal(grl_backward(g, 0.0), np.zeros((4, 3)))
    scale = 2.5
    assert np.array_equal(grl_backward(g, scale), -scale * g)
    with pytest.raises(ValueError):
        grl_backward(g, -1.0)


def manual_classifier_grads(net, x, labels):
    """Independent backprop of extractor + classifier under cross-entropy."""
    acts = [x]
    pres = []
    for layer in net.parts["extractor"]:
        z = acts[-1] @ layer.w + layer.b
        pres.append(z)
        acts.append(np.maximum(z, 0.0))
    c = net.parts["classifier"][0]
    logits = acts[-1] @ c.w + c.b
    exp = np.exp(logits - logits.max(axis=1, keepdims=True))
    g = exp / exp.sum(axis=1, keepdims=True)
    g[np.arange(len(labels)), labels] -= 1.0
    g /= len(labels)
    grads = {"classifier.0.w": acts[-1].T @ g, "classifier.0.b": g.sum(axis=0)}
    g = g @ c.w.T
    for i in reversed(range(len(net.parts["extractor"]))):
        g = g * (pres[i] > 0)
        grads[f"extractor.{i}.w"] = acts[i].T @ g
        grads[f"extractor.{i}.b"] = g.sum(axis=0)
        g = g @ net.parts["extractor"][i].w.T
    return grads


def test_backward_without_discriminator_equals_plain_classifier_backprop():
    net = Network.initialize(small_spec(), make_rng(12))
    x = make_rng(13).standard_normal((6, 4))
    labels = make_rng(14).integers(0, 4, 6)
    net.zero_grads()
    features, tr_f = net.forward_features(x)
    logits, tr_c = net.forward_classifier(features)
    loss = cross_entropy(logits, labels)
    # the extractor's input is data: no input gradient is computed or returned
    assert net.backward("extractor", tr_f, net.backward("classifier", tr_c, loss.dlogits)) is None
    expected = manual_classifier_grads(net, x, labels)
    for part, i, layer in net.parameters():
        if part == "discriminator":
            assert np.array_equal(layer.gw, 0.0 * layer.gw)
            continue
        assert relative_error(layer.gw, expected[f"{part}.{i}.w"]) < 1e-12
        assert relative_error(layer.gb, expected[f"{part}.{i}.b"]) < 1e-12


def test_grl_scale_zero_reproduces_classifier_only_extractor_grads():
    # one deerdann step with the reversal scale at 0 leaves exactly the
    # baseline's extractor and classifier gradients
    rng = make_rng(16)
    xs, xt = rng.standard_normal((6, 4)), rng.standard_normal((6, 4))
    ys, yt = np.array([3, 0, 1, 3, 3, 2]), np.full(6, 3)

    def step(method, rows_and_pair):
        net = Network.initialize(small_spec(), make_rng(15))
        config = TrainConfig(method=method, grl_scale=0.0)
        _train_batch(net, *rows_and_pair, config, 0.0, make_rng(0), _Totals())
        return {key: net.grads[span] for key, (span, _) in net.slots.items()}

    plain = step("baseline", batch_pair("baseline", 3, xs, ys))
    gated = step("deerdann", batch_pair("deerdann", 3, xs, ys, xt, yt))
    assert gated["discriminator.0.w"].any()  # the discriminator did learn
    for key in plain:
        if not key.startswith("discriminator."):
            assert np.array_equal(plain[key], gated[key]), key


def test_backward_rejects_wrong_upstream_shape():
    net = Network.initialize(small_spec(), make_rng(17))
    x = make_rng(18).standard_normal((4, 4))
    features, tr_f = net.forward_features(x)
    _, tr_d = net.forward_discriminator(features[:2])
    with pytest.raises(ValueError, match=r"discriminator upstream gradient shape \(4, 2\)"):
        net.backward("discriminator", tr_d, np.ones((4, 2)))
    with pytest.raises(ValueError, match=r"extractor upstream gradient shape \(4, 2\)"):
        net.backward("extractor", tr_f, np.ones((4, 2)))
    assert not net.grads.any()
