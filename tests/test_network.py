import re
import tracemalloc

import numpy as np
import pytest

from raredapt import (
    Network,
    TrainConfig,
    cross_entropy,
    evaluate,
    generate,
    grl_backward,
    make_rng,
)
from raredapt.network import Layer, NetworkSpec
from raredapt.training import _Totals, _train_batch

from conftest import batch_pair, tiny_gen_spec
from oracles import relative_error


def small_spec():
    return NetworkSpec(4, 4, (5, 3), (), (3,))


def test_default_spec_shapes():
    cfg = TrainConfig(method="baseline")
    spec = NetworkSpec(32, 8, cfg.feature_dims, cfg.classifier_hidden, cfg.discriminator_hidden)
    assert spec.layer_dims("extractor") == [(32, 64), (64, 32)]
    assert spec.layer_dims("classifier") == [(32, 8)]
    assert spec.layer_dims("discriminator") == [(32, 32), (32, 2)]
    assert spec.feature_dim == 32
    assert spec.param_count == 33 * 64 + 65 * 32 + 33 * 8 + 33 * 32 + 33 * 2


def test_config_and_spec_reject_a_bad_architecture_in_the_same_words():
    base = {"feature_dims": (4,), "classifier_hidden": (), "discriminator_hidden": ()}
    for field, value, message in (
        ("feature_dims", (), "feature_dims must be non-empty, got ()"),
        ("classifier_hidden", (0,), "classifier_hidden must be all >= 1, got (0,)"),
        ("discriminator_hidden", (-1,), "discriminator_hidden must be all >= 1, got (-1,)"),
    ):
        arch = {**base, field: value}
        for build in (lambda: TrainConfig(method="baseline", **arch),
                      lambda: NetworkSpec(3, 2, **arch)):
            with pytest.raises(ValueError) as info:
                build()
            assert str(info.value) == message
    with pytest.raises(ValueError) as info:
        NetworkSpec(0, 0, (4,), (), ())
    assert str(info.value) == "input_dim must be >= 1, got 0; class_count must be >= 1, got 0"


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
    spec = NetworkSpec(3, 2, (3,), (), ())
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


def test_load_state_of_another_shape_is_rejected_and_writes_nothing():
    net = Network.initialize(small_spec(), make_rng(7))
    before = net.snapshot()
    n = before.size
    for params in (np.zeros(n - 1), np.zeros((1, n))):
        message = f"parameter vector shape {params.shape} != ({n},)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            net.load_state(params)
    assert np.array_equal(net.snapshot(), before)


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


def traced_peak(fn):
    """``fn()``'s result and the most memory it held at once, in bytes."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_large_batch_forwards_allocate_little_beyond_their_activations():
    # each layer allocates its output and nothing else, and a trace keeps the
    # outputs only, so a forward pass peaks at the activations it returns; an
    # evaluation peaks at its input rows, the extractor activations and the
    # logits. A kept pre-activation or a per-layer temporary doubles this.
    slack = 128 * 1024
    spec = NetworkSpec(8, 4, (64, 32), (), (32,))
    net = Network.initialize(spec, make_rng(19))
    x = make_rng(20).standard_normal((4000, 8))
    (_, trace), peak = traced_peak(lambda: net.forward_features(x))
    assert peak <= sum(a.nbytes for a in trace.act) + slack

    dataset = generate(tiny_gen_spec(test_count_per_class=1000))
    rows = dataset.real_split_indices["trans_test"].size
    assert rows == 4000
    _, peak = traced_peak(lambda: evaluate(net, dataset, "trans_test"))
    assert peak <= rows * (8 + 64 + 32 + 4) * 8 + slack
