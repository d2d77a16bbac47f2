import numpy as np
import pytest

from raredapt import (
    Network,
    cross_entropy,
    domain_confusion,
    finite_diff_grad,
    grl_backward,
    grl_forward,
    make_rng,
    relative_error,
    softmax_rows,
)
from raredapt.network import Layer, MlpSpec, NetworkSpec, default_network_spec

from conftest import make_gradcheck_net, trace_clear_of_kinks


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


def test_grl_forward_is_identity_bitwise():
    x = make_rng(10).standard_normal((3, 4))
    out = grl_forward(x)
    assert out is x


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
    probs = softmax_rows(logits)
    g = probs.copy()
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
    net.backward(tr_f, classifier_trace=tr_c, dlogits_classifier=loss.dlogits)
    expected = manual_classifier_grads(net, x, labels)
    for part, i, layer in net.parameters():
        if part == "discriminator":
            assert np.array_equal(layer.gw, 0.0 * layer.gw)
            continue
        assert relative_error(layer.gw, expected[f"{part}.{i}.w"]) < 1e-12
        assert relative_error(layer.gb, expected[f"{part}.{i}.b"]) < 1e-12


def test_grl_scale_zero_reproduces_classifier_only_extractor_grads():
    net = Network.initialize(small_spec(), make_rng(15))
    rng = make_rng(16)
    x = rng.standard_normal((6, 4))
    labels = rng.integers(0, 4, 6)
    rows = np.array([0, 3, 4])

    def run(with_disc, scale):
        net.zero_grads()
        features, tr_f = net.forward_features(x)
        logits, tr_c = net.forward_classifier(features)
        loss = cross_entropy(logits, labels)
        kwargs = {}
        if with_disc:
            d_logits, tr_d = net.forward_discriminator(features[rows])
            conf = domain_confusion(d_logits, [0, 1, 0])
            kwargs = dict(
                discriminator_trace=tr_d,
                dlogits_discriminator=conf.dlogits,
                discriminator_rows=rows,
                grl_scale=scale,
            )
        net.backward(tr_f, classifier_trace=tr_c, dlogits_classifier=loss.dlogits, **kwargs)
        return {
            f"{p}.{i}.{a}": getattr(l, g).copy()
            for p, i, l in net.parameters()
            for a, g in (("w", "gw"), ("b", "gb"))
            if p == "extractor"
        }

    plain = run(False, 0.0)
    gated = run(True, 0.0)
    for key in plain:
        assert np.array_equal(plain[key], gated[key])


def test_backward_rejects_bad_row_map():
    net = Network.initialize(small_spec(), make_rng(17))
    x = make_rng(18).standard_normal((4, 4))
    features, tr_f = net.forward_features(x)
    d_logits, tr_d = net.forward_discriminator(features[:2])
    with pytest.raises(ValueError, match="out of range"):
        net.backward(
            tr_f,
            discriminator_trace=tr_d,
            dlogits_discriminator=np.ones((2, 2)),
            discriminator_rows=np.array([0, 7]),
        )
    with pytest.raises(ValueError, match="strictly increasing"):
        net.backward(
            tr_f,
            discriminator_trace=tr_d,
            dlogits_discriminator=np.ones((2, 2)),
            discriminator_rows=np.array([1, 1]),
        )
    with pytest.raises(ValueError, match="at least one gradient"):
        net.backward(tr_f)


def dann_instance(seed):
    """A composite-loss micro instance clear of ReLU kinks, or None."""
    net, rng = make_gradcheck_net(seed)
    n = int(rng.integers(2, 8))
    d_in = net.spec.extractor.input_dim
    k = net.spec.class_count
    xs = rng.standard_normal((n, d_in))
    ys = rng.integers(0, k, n)
    xt = rng.standard_normal((n, d_in))
    rs = np.flatnonzero(rng.random(n) < 0.6)
    rt = np.flatnonzero(rng.random(n) < 0.6)
    if rs.size + rt.size == 0:
        return None
    f_s, tr_f_s = net.forward_features(xs)
    f_t, tr_f_t = net.forward_features(xt)
    _, tr_c = net.forward_classifier(f_s)
    tr_d_s = net.forward_discriminator(f_s[rs])[1] if rs.size else None
    tr_d_t = net.forward_discriminator(f_t[rt])[1] if rt.size else None
    if not trace_clear_of_kinks(tr_f_s, tr_f_t, tr_c, tr_d_s, tr_d_t):
        return None
    labels = np.concatenate([np.zeros(rs.size, dtype=int), np.ones(rt.size, dtype=int)])
    return net, xs, ys, xt, rs, rt, labels


def test_composite_adversarial_gradient_matches_finite_differences():
    grl, w_d = 0.7, 1.0
    checked = 0
    seed = 0
    while checked < 5:
        seed += 1
        instance = dann_instance(seed)
        if instance is None:
            continue
        net, xs, ys, xt, rs, rt, labels = instance

        def losses():
            f_s, _ = net.forward_features(xs)
            f_t, _ = net.forward_features(xt)
            lc = cross_entropy(net.forward_classifier(f_s)[0], ys)
            blocks = []
            if rs.size:
                blocks.append(net.forward_discriminator(f_s[rs])[0])
            if rt.size:
                blocks.append(net.forward_discriminator(f_t[rt])[0])
            ld = domain_confusion(np.vstack(blocks), labels)
            return lc.value, ld.value

        net.zero_grads()
        f_s, tr_f_s = net.forward_features(xs)
        f_t, tr_f_t = net.forward_features(xt)
        logits, tr_c = net.forward_classifier(f_s)
        lc = cross_entropy(logits, ys)
        blocks, traces = [], []
        if rs.size:
            out, tr = net.forward_discriminator(f_s[rs])
            blocks.append(out)
            traces.append(tr)
        if rt.size:
            out, tr = net.forward_discriminator(f_t[rt])
            blocks.append(out)
            traces.append(tr)
        ld = domain_confusion(np.vstack(blocks), labels)
        dd = w_d * ld.dlogits
        net.backward(
            tr_f_s,
            classifier_trace=tr_c,
            dlogits_classifier=lc.dlogits,
            discriminator_trace=traces[0] if rs.size else None,
            dlogits_discriminator=dd[: rs.size] if rs.size else None,
            discriminator_rows=rs if rs.size else None,
            grl_scale=grl,
        )
        if rt.size:
            net.backward(
                tr_f_t,
                discriminator_trace=traces[-1],
                dlogits_discriminator=dd[rs.size :],
                discriminator_rows=rt,
                grl_scale=grl,
            )

        # the reversal layer makes the extractor follow L_C - grl*w*L_D while
        # the heads follow L_C + w*L_D; check each block against its objective
        for part, i, layer in net.parameters():
            sign = -grl * w_d if part == "extractor" else w_d
            for attr, gattr in (("w", "gw"), ("b", "gb")):
                param = getattr(layer, attr)

                def f(mat, layer=layer, attr=attr, sign=sign):
                    old = getattr(layer, attr)
                    setattr(layer, attr, mat.reshape(old.shape))
                    lcv, ldv = losses()
                    setattr(layer, attr, old)
                    return lcv + sign * ldv

                flat = param.reshape(1, -1).copy()
                fd = finite_diff_grad(f, flat, 1e-4).reshape(param.shape)
                assert relative_error(getattr(layer, gattr), fd) < 1e-4
        checked += 1
