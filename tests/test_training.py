import math

import numpy as np
import pytest

from raredapt import (
    Adam,
    Network,
    TrainConfig,
    TrainingDiverged,
    coral_loss,
    cross_entropy,
    domain_confusion,
    finite_diff_grad,
    generate,
    make_rng,
    relative_error,
    select_epoch,
    train,
)
from raredapt.losses import DOMAIN_SOURCE, DOMAIN_TARGET
from raredapt.network import MlpSpec, NetworkSpec
from raredapt.training import _Totals, _train_batch

from conftest import batch_pair, make_gradcheck_net, tiny_gen_spec, trace_clear_of_kinks


def scalar_net():
    spec = NetworkSpec(MlpSpec(1, (), 1), MlpSpec(1, (), 2), MlpSpec(1, (), 2))
    return Network.initialize(spec, make_rng(0))


def test_adam_zero_grads_no_l2_is_noop():
    net = scalar_net()
    cfg = TrainConfig(method="baseline", l2=0.0)
    before = net.snapshot()
    opt = Adam(net, cfg)
    net.zero_grads()
    opt.step()
    assert np.array_equal(net.snapshot(), before)


def test_adam_first_step_magnitude_is_lr():
    net = scalar_net()
    cfg = TrainConfig(method="baseline", learning_rate=1e-3, l2=0.0)
    opt = Adam(net, cfg)
    net.zero_grads()
    layer = net.parts["extractor"][0]
    before = layer.w.copy()
    layer.gw[...] = 0.731  # any nonzero gradient: first-step size is +-lr
    opt.step()
    assert abs(abs(layer.w[0, 0] - before[0, 0]) - 1e-3) < 1e-9


def test_adam_head_multiplier_applies_to_classifier_only():
    net = scalar_net()
    cfg = TrainConfig(method="baseline", learning_rate=1e-3, l2=0.0, head_lr_multiplier=10.0)
    opt = Adam(net, cfg)
    net.zero_grads()
    ext, cls = net.parts["extractor"][0], net.parts["classifier"][0]
    ext.gw[...] = 1.0
    cls.gw[...] = 1.0
    w_ext, w_cls = ext.w.copy(), cls.w.copy()
    opt.step()
    ratio = abs(cls.w - w_cls).max() / abs(ext.w - w_ext).max()
    assert abs(ratio - 10.0) < 1e-6


def test_adam_matches_straight_line_reimplementation():
    rng = make_rng(21)
    spec = NetworkSpec(MlpSpec(3, (4,), 2), MlpSpec(2, (), 3), MlpSpec(2, (), 2))
    net = Network.initialize(spec, rng)
    cfg = TrainConfig(method="baseline", learning_rate=3e-3, l2=0.01, beta1=0.9, beta2=0.999)
    opt = Adam(net, cfg)

    # independent reference: same update equations, separate state
    ref = {}
    for part, i, layer in net.parameters():
        for attr in ("w", "b"):
            key = f"{part}.{i}.{attr}"
            p = getattr(layer, attr)
            ref[key] = [p.copy(), np.zeros_like(p), np.zeros_like(p)]

    for t in range(1, 11):
        grads = {}
        net.zero_grads()
        for part, i, layer in net.parameters():
            gw = rng.standard_normal(layer.w.shape)
            gb = rng.standard_normal(layer.b.shape)
            layer.gw[...] = gw
            layer.gb[...] = gb
            grads[f"{part}.{i}.w"] = gw
            grads[f"{part}.{i}.b"] = gb
        opt.step()
        for part, i, layer in net.parameters():
            lr = cfg.learning_rate * (cfg.head_lr_multiplier if part == "classifier" else 1.0)
            for attr in ("w", "b"):
                key = f"{part}.{i}.{attr}"
                p, m, v = ref[key]
                g = grads[key] + (cfg.l2 * p if attr == "w" else 0.0)
                m[...] = cfg.beta1 * m + (1 - cfg.beta1) * g
                v[...] = cfg.beta2 * v + (1 - cfg.beta2) * g * g
                mhat = m / (1 - cfg.beta1**t)
                vhat = v / (1 - cfg.beta2**t)
                p -= lr * mhat / (np.sqrt(vhat) + cfg.adam_eps)
                actual = getattr(layer, attr)
                assert np.max(np.abs(actual - p)) < 1e-12


def test_adam_aborts_on_non_finite_gradient():
    net = scalar_net()
    opt = Adam(net, TrainConfig(method="baseline"))
    net.parts["extractor"][0].gw[...] = np.nan
    with pytest.raises(TrainingDiverged, match="non-finite gradient"):
        opt.step()


def test_adam_non_finite_gradient_leaves_state_untouched():
    rng = make_rng(5)
    spec = NetworkSpec(MlpSpec(3, (4,), 2), MlpSpec(2, (), 3), MlpSpec(2, (3,), 2))
    net = Network.initialize(spec, rng)
    opt = Adam(net, TrainConfig(method="baseline"))
    net.grads[...] = rng.standard_normal(net.grads.shape)
    opt.step()  # non-zero moments, so an update would change them
    params, m, v = net.snapshot(), opt.m.copy(), opt.v.copy()
    net.grads[...] = rng.standard_normal(net.grads.shape)
    net.parts["discriminator"][-1].gb[1] = np.nan
    with pytest.raises(TrainingDiverged, match=r"discriminator\.1\.b at step 2"):
        opt.step()
    assert np.array_equal(net.snapshot(), params)
    assert np.array_equal(opt.m, m) and np.array_equal(opt.v, v)
    assert opt.t == 1


def test_select_epoch_constraint_and_tiebreak():
    rare = [0.2, 0.9, 0.5, 0.9]
    other = [0.80, 0.70, 0.80, 0.795]
    # epoch 1 has the best rare acc but violates the 1-point constraint
    assert select_epoch(rare, other, 1.0) == 3
    # ties break to the earliest epoch
    assert select_epoch([0.5, 0.5], [0.8, 0.8], 1.0) == 0
    with pytest.raises(ValueError):
        select_epoch([], [], 1.0)


def test_train_histories_deterministic(tiny_dataset):
    cfg = TrainConfig(method="deerdann", epochs=3, synthetic_count=80, batch_size=32, seed=9)
    cp1, h1 = train(tiny_dataset, cfg)
    cp2, h2 = train(tiny_dataset, cfg)
    assert cp1.epoch == cp2.epoch
    assert np.array_equal(cp1.params, cp2.params)
    for r1, r2 in zip(h1, h2):
        assert r1.classification_loss == r2.classification_loss
        assert r1.domain_loss == r2.domain_loss or (
            math.isnan(r1.domain_loss) and math.isnan(r2.domain_loss)
        )
        for split in r1.split_metrics:
            assert np.array_equal(
                r1.split_metrics[split].confusion, r2.split_metrics[split].confusion
            )


def test_ablated_methods_share_identical_trajectories(tiny_dataset):
    shared = dict(epochs=3, synthetic_count=60, batch_size=32, seed=4, l2=1e-4)
    runs = {}
    runs["baseline"] = train(tiny_dataset, TrainConfig(method="baseline", **shared))
    runs["coral0"] = train(
        tiny_dataset, TrainConfig(method="deercoral", coral_weight=0.0, **shared)
    )
    runs["dann0"] = train(
        tiny_dataset,
        TrainConfig(method="deerdann", grl_scale=0.0, domain_weight=0.0, **shared),
    )
    base_cp, base_hist = runs["baseline"]
    for name in ("coral0", "dann0"):
        cp, hist = runs[name]
        assert cp.epoch == base_cp.epoch
        assert np.array_equal(cp.params, base_cp.params), name
        for r1, r2 in zip(base_hist, hist):
            assert r1.classification_loss == r2.classification_loss


def test_selected_epoch_satisfies_constraint(tiny_dataset):
    cfg = TrainConfig(method="deercoral", epochs=5, synthetic_count=100, batch_size=32, seed=2)
    cp, hist = train(tiny_dataset, cfg)
    others = [r.split_metrics["trans_val"].other_macro for r in hist]
    assert others[cp.epoch] >= max(others) - cfg.selection_tolerance_points / 100.0


def test_train_aborts_with_diagnostic_on_divergence(tiny_dataset):
    cfg = TrainConfig(
        method="baseline", epochs=2, synthetic_count=0, batch_size=32, learning_rate=1e12
    )
    with pytest.raises(TrainingDiverged, match=r"epoch \d+ batch \d+"):
        train(tiny_dataset, cfg)


def test_train_forced_divergence_names_epoch_and_batch(tiny_dataset):
    cfg = TrainConfig(
        method="deerdann", epochs=2, synthetic_count=40, batch_size=32, learning_rate=1e6
    )
    with pytest.raises(TrainingDiverged, match=r"run aborted at epoch \d+ batch \d+: non-finite"):
        train(tiny_dataset, cfg)


def test_train_mislabelled_batch_raises_plain_value_error():
    dataset = generate(tiny_gen_spec())
    dataset.class_ids[dataset.train_real_indices()[0]] = dataset.num_classes  # out of range
    cfg = TrainConfig(method="baseline", epochs=1, synthetic_count=0, batch_size=32)
    with pytest.raises(ValueError, match="label out of range") as info:
        train(dataset, cfg)
    assert not isinstance(info.value, TrainingDiverged)


def test_grl_ramp_schedule():
    cfg = TrainConfig(method="deerdann", grl_scale=2.0, grl_ramp_epochs=4)
    assert cfg.effective_grl_scale(0) == 0.5
    assert cfg.effective_grl_scale(3) == 2.0
    assert cfg.effective_grl_scale(10) == 2.0
    const = TrainConfig(method="deerdann", grl_scale=1.5)
    assert const.effective_grl_scale(0) == 1.5


def test_discriminator_near_chance_on_zero_gap_control():
    spec = tiny_gen_spec()  # reuse sizes, but with a zero-gap generator
    zero = type(spec).zero_gap(
        class_count=spec.class_count,
        feature_dim=spec.feature_dim,
        rare_class_id=spec.rare_class_id,
        train_counts=spec.train_counts,
        val_count_per_class=spec.val_count_per_class,
        test_count_per_class=spec.test_count_per_class,
        synthetic_pool_size=spec.synthetic_pool_size,
    )
    accs = []
    for seed in range(3):
        ds = generate(type(zero)(**{**zero.__dict__, "seed": seed}))
        cfg = TrainConfig(
            method="deerdann", epochs=15, synthetic_count=300, batch_size=32, seed=seed
        )
        _, hist = train(ds, cfg)
        accs.extend(r.discriminator_acc for r in hist[-10:])
    assert 0.45 <= float(np.mean(accs)) <= 0.55


def test_coral_term_decreases_by_selected_epoch(tiny_dataset):
    cfg = TrainConfig(method="deercoral", epochs=12, synthetic_count=200, batch_size=32, seed=0)
    cp, hist = train(tiny_dataset, cfg)
    assert cp.epoch > 0
    assert hist[cp.epoch].coral_term < hist[0].coral_term


def test_config_validation():
    with pytest.raises(ValueError, match="unknown method"):
        TrainConfig(method="dan")
    with pytest.raises(ValueError, match="batch_size"):
        TrainConfig(method="baseline", batch_size=1)
    with pytest.raises(ValueError, match="coral_layer"):
        TrainConfig(method="deercoral", coral_layer="embeddings")
    cfg = TrainConfig(method="baseline")
    assert cfg.coral_weight == 0.5  # default trade-off
    assert cfg.config_hash() == TrainConfig(method="baseline").config_hash()
    assert cfg.config_hash() != TrainConfig(method="baseline", seed=1).config_hash()


def test_feature_level_coral_variant_runs(tiny_dataset):
    cfg = TrainConfig(
        method="deercoral",
        epochs=2,
        synthetic_count=50,
        batch_size=32,
        coral_layer="features",
    )
    cp, hist = train(tiny_dataset, cfg)
    assert math.isfinite(hist[-1].coral_term)


def test_provenance_discriminator_labels_change_dynamics(tiny_dataset):
    shared = dict(method="deerdann", epochs=2, synthetic_count=80, batch_size=32, seed=3)
    _, h_member = train(tiny_dataset, TrainConfig(discriminator_labels="membership", **shared))
    _, h_prov = train(tiny_dataset, TrainConfig(discriminator_labels="provenance", **shared))
    assert h_member[-1].domain_loss != h_prov[-1].domain_loss


def step_terms(net, pair, config):
    """The step's loss terms by plain forward passes: L_C, the alignment term
    (L_D or L_coral), and every trace, for the kink check."""
    f_s, tr_fs = net.forward_features(pair.source.features)
    f_t, tr_ft = net.forward_features(pair.target.features)
    logits_s, tr_cs = net.forward_classifier(f_s)
    lc = cross_entropy(logits_s, pair.source.class_ids).value
    traces = [tr_fs, tr_ft, tr_cs]
    if config.method == "deercoral":
        if config.coral_layer == "features":
            return lc, coral_loss(f_s, f_t).value, traces
        logits_t, tr_ct = net.forward_classifier(f_t)
        return lc, coral_loss(logits_s, logits_t).value, traces + [tr_ct]
    rs, rt = pair.routed_source_rows, pair.routed_target_rows
    d_s, tr_ds = net.forward_discriminator(f_s[rs])
    d_t, tr_dt = net.forward_discriminator(f_t[rt])
    labels = np.repeat([DOMAIN_SOURCE, DOMAIN_TARGET], [rs.size, rt.size])
    ld = domain_confusion(np.vstack([d_s, d_t]), labels).value
    return lc, ld, traces + [tr for tr in (tr_ds, tr_dt) if tr.x.shape[0]]


def step_instance(seed, config):
    """A micro net and a hand-built batch pair clear of ReLU kinks, or None."""
    net, rng = make_gradcheck_net(seed)
    n = int(rng.integers(3, 8))
    d_in, k = net.spec.extractor.input_dim, net.spec.class_count
    rare = k - 1
    xs, xt = rng.standard_normal((n, d_in)), rng.standard_normal((n, d_in))
    ys, yt = (np.where(rng.random(n) < 0.5, rare, rng.integers(0, k, n)) for _ in range(2))
    pair = batch_pair(config.method, rare, xs, ys, xt, yt)
    if pair.routed_source_rows.size + pair.routed_target_rows.size == 0:
        return None
    if not trace_clear_of_kinks(*step_terms(net, pair, config)[2]):
        return None
    return net, pair


def test_composite_adversarial_gradient_matches_finite_differences():
    grl, w_d, w_c = 0.7, 0.6, 1.7
    variants = (
        TrainConfig(method="deerdann", domain_weight=w_d, grl_scale=grl),
        TrainConfig(method="alldann", domain_weight=w_d, grl_scale=grl),
        TrainConfig(method="deercoral", coral_weight=w_c, coral_layer="logits"),
        TrainConfig(method="deercoral", coral_weight=w_c, coral_layer="features"),
    )
    for config in variants:
        checked = 0
        seed = 0
        while checked < 3:
            seed += 1
            instance = step_instance(seed, config)
            if instance is None:
                continue
            net, pair = instance
            totals = _Totals()
            _train_batch(net, pair, config, grl, make_rng(0), totals)
            lc, term, _ = step_terms(net, pair, config)
            adversarial = config.method != "deercoral"
            weight = w_d if adversarial else w_c
            composite = totals.summary()["composite_loss"]
            assert composite == pytest.approx(lc + weight * term, rel=1e-12)

            # the reversal layer makes the extractor follow L_C - grl*w*L_D while
            # the heads follow L_C + w*L_D; covariance alignment has no reversal
            for part, i, layer in net.parameters():
                sign = -grl * w_d if adversarial and part == "extractor" else weight
                for attr, gattr in (("w", "gw"), ("b", "gb")):
                    param = getattr(layer, attr)

                    def f(mat, layer=layer, attr=attr, sign=sign):
                        old = getattr(layer, attr)
                        setattr(layer, attr, mat.reshape(old.shape))
                        lcv, termv, _ = step_terms(net, pair, config)
                        setattr(layer, attr, old)
                        return lcv + sign * termv

                    flat = param.reshape(1, -1).copy()
                    fd = finite_diff_grad(f, flat, 1e-4).reshape(param.shape)
                    err = relative_error(getattr(layer, gattr), fd)
                    assert err < 1e-4, (config.method, config.coral_layer, seed, part, i, attr)
            checked += 1
