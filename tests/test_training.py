import math

import numpy as np
import pytest

import raredapt.training
from raredapt import (
    Adam,
    Network,
    TrainConfig,
    TrainingDiverged,
    build_domains,
    coral_loss,
    cross_entropy,
    domain_confusion,
    generate,
    make_rng,
    paired_sampler,
    select_epoch,
    train,
)
from raredapt.domains import ADVERSARIAL
from raredapt.losses import DOMAIN_SOURCE, DOMAIN_TARGET
from raredapt.network import NetworkSpec
from raredapt.training import _Totals, _train_batch

from conftest import (
    ZERO_GAP,
    batch_pair,
    make_gradcheck_net,
    rows_moved,
    tiny_gen_spec,
    trace_clear_of_kinks,
)
from oracles import finite_diff_grad, relative_error


def scalar_net():
    spec = NetworkSpec(1, 2, (1,), (), ())
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
    spec = NetworkSpec(3, 3, (4, 2), (), ())
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
    spec = NetworkSpec(3, 3, (4, 2), (), (3,))
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
    dataset.class_ids[dataset.real_split_indices["train"][0]] = dataset.num_classes  # out of range
    cfg = TrainConfig(method="baseline", epochs=1, synthetic_count=0, batch_size=32)
    with pytest.raises(ValueError, match="label out of range") as info:
        train(dataset, cfg)
    assert not isinstance(info.value, TrainingDiverged)


@pytest.mark.parametrize("split, to, moved, message", [
    ("cis_val", "cis_test", {}, "split 'cis_val' has no real samples"),
    ("trans_val", "trans_test", {"keep_class": 3},
     "split 'trans_val' has no real samples outside rare class 3"),
    ("trans_val", "trans_test", {"only_class": 3},
     "split 'trans_val' has no real samples of rare class 3"),
])
def test_train_rejects_a_split_it_cannot_evaluate_before_any_step(
    tiny_dataset, monkeypatch, split, to, moved, message
):
    # evaluation needs every split, and selection trans_val's rare class and
    # its other classes; such a dataset is valid, so train() refuses it
    # before the first step
    assert tiny_dataset.rare_class_id == 3
    dataset = rows_moved(tiny_dataset, split, to, **moved)

    def no_step(*args):
        raise AssertionError("a step ran")

    monkeypatch.setattr(raredapt.training, "paired_sampler", no_step)
    cfg = TrainConfig(method="deerdann", epochs=2, synthetic_count=40, batch_size=32)
    with pytest.raises(ValueError, match=f"^{message}$"):
        train(dataset, cfg)


@pytest.mark.parametrize("method", ["baseline", "deerdann", "alldann", "deercoral"])
def test_train_nan_feature_written_after_build_diverges_in_epoch_0(method):
    # the Dataset checked its features when it was built; the step trusts
    # them, and the composite-loss check still catches the corrupted row
    dataset = generate(tiny_gen_spec())
    dataset.features[dataset.real_split_indices["train"][0], 0] = np.nan
    cfg = TrainConfig(method=method, epochs=2, synthetic_count=40, batch_size=32)
    with pytest.raises(TrainingDiverged, match=r"aborted at epoch 0 batch \d+: non-finite loss"):
        train(dataset, cfg)


def test_grl_ramp_schedule():
    cfg = TrainConfig(method="deerdann", grl_scale=2.0, grl_ramp_epochs=4)
    assert cfg.effective_grl_scale(0) == 0.5
    assert cfg.effective_grl_scale(3) == 2.0
    assert cfg.effective_grl_scale(10) == 2.0
    const = TrainConfig(method="deerdann", grl_scale=1.5)
    assert const.effective_grl_scale(0) == 1.5


def test_discriminator_near_chance_on_zero_gap_control():
    accs = []
    for seed in range(3):
        ds = generate(tiny_gen_spec(**ZERO_GAP, seed=seed))
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
    # a NaN weight would pass the sign checks and surface only as divergence
    with pytest.raises(ValueError, match="^coral_weight, grl_scale must be finite$"):
        TrainConfig(method="deercoral", coral_weight=math.nan, grl_scale=math.inf)
    # every out-of-range field is named in one error, before any training
    with pytest.raises(ValueError) as info:
        TrainConfig(method="deerdann", l2=-0.5, coral_weight=-1.0, domain_weight=-1.0,
                    grl_scale=-1.0, grl_ramp_epochs=-4, feature_jitter=-0.2,
                    selection_tolerance_points=-5.0, head_lr_multiplier=0.0, adam_eps=-1e-8,
                    beta1=1.0, beta2=-0.1)
    assert str(info.value).split("; ") == [
        "head_lr_multiplier must be > 0, got 0.0",
        "adam_eps must be > 0, got -1e-08",
        "l2 must be >= 0, got -0.5",
        "coral_weight must be >= 0, got -1.0",
        "domain_weight must be >= 0, got -1.0",
        "grl_scale must be >= 0, got -1.0",
        "grl_ramp_epochs must be >= 0, got -4",
        "feature_jitter must be >= 0, got -0.2",
        "selection_tolerance_points must be >= 0, got -5.0",
        "beta1 must be in [0, 1), got 1.0",
        "beta2 must be in [0, 1), got -0.1",
    ]
    with pytest.raises(ValueError, match="^epochs must be >= 1, got 0$"):
        TrainConfig(method="baseline", epochs=0)
    with pytest.raises(ValueError, match="^learning_rate must be > 0, got 0.0$"):
        TrainConfig(method="baseline", learning_rate=0.0)
    # the sampler's checks hold for the config too, so a sweep fails before any cell runs
    with pytest.raises(ValueError) as info:
        TrainConfig(method="deerdann", oversample_factor=0, synthetic_count=-1)
    assert str(info.value) == (
        "oversample_factor must be >= 1, got 0; synthetic_count must be >= 0, got -1"
    )
    TrainConfig(method="deerdann", oversample_factor=1, synthetic_count=0)
    # the boundary values themselves are allowed
    TrainConfig(method="deerdann", l2=0.0, coral_weight=0.0, domain_weight=0.0, grl_scale=0.0,
                grl_ramp_epochs=0, feature_jitter=0.0, selection_tolerance_points=0.0,
                beta1=0.0, beta2=0.0)
    # a value of the wrong type is named before any range check; a bool is not
    # an int, and an int is a float (JSON writes 1 for 1.0)
    with pytest.raises(ValueError) as info:
        TrainConfig(method="deerdann", epochs=1.5, batch_size=32.0, oversample_factor=True,
                    seed=1.5, synthetic_count=10.0, grl_ramp_epochs=2.5,
                    feature_dims=(16.5, 8), rare_class_id="3", learning_rate="0.1")
    assert str(info.value).split("; ") == [
        "epochs must be int, got 1.5",
        "batch_size must be int, got 32.0",
        "learning_rate must be float, got '0.1'",
        "grl_ramp_epochs must be int, got 2.5",
        "oversample_factor must be int, got True",
        "synthetic_count must be int, got 10.0",
        "feature_dims must be tuple[int, ...], got (16.5, 8)",
        "rare_class_id must be int | None, got '3'",
        "seed must be int, got 1.5",
    ]
    with pytest.raises(ValueError, match="^epochs must be int, got True$"):
        TrainConfig(method="baseline", epochs=True)
    with pytest.raises(ValueError, match="^l2 must be float, got False$"):
        TrainConfig(method="baseline", l2=False)
    with pytest.raises(ValueError, match=r"^discriminator_hidden must be tuple\[int, \.\.\.\]"):
        TrainConfig(method="baseline", discriminator_hidden=32)
    typed = TrainConfig(method="baseline", learning_rate=1, rare_class_id=None,
                        classifier_hidden=(), seed=np.int64(2))
    assert typed.learning_rate == 1 and typed.rare_class_id is None
    cfg = TrainConfig(method="baseline")
    assert cfg.coral_weight == 0.5  # default trade-off
    assert cfg.config_hash() == TrainConfig(method="baseline").config_hash()
    assert cfg.config_hash() != TrainConfig(method="baseline", seed=1).config_hash()


def test_config_rejects_network_shapes_and_ids_that_would_fail_inside_train():
    with pytest.raises(ValueError) as info:
        TrainConfig(method="deerdann", seed=-1, rare_class_id=-2, feature_dims=(8, 0),
                    classifier_hidden=(0,), discriminator_hidden=(-1, 4))
    assert str(info.value).split("; ") == [
        "seed must be >= 0, got -1",
        "rare_class_id must be None or >= 0, got -2",
        "feature_dims must be all >= 1, got (8, 0)",
        "classifier_hidden must be all >= 1, got (0,)",
        "discriminator_hidden must be all >= 1, got (-1, 4)",
    ]
    with pytest.raises(ValueError, match=r"^feature_dims must be non-empty, got \(\)$"):
        TrainConfig(method="baseline", feature_dims=())
    TrainConfig(method="baseline", feature_dims=(1,), classifier_hidden=(),
                discriminator_hidden=(), rare_class_id=0)


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


def step_terms(net, rows, pair, config):
    """The step's loss terms by plain forward passes: L_C, the alignment term
    (L_D or L_coral), and every ``(part, trace)`` pair, for the kink check."""
    f_s, tr_fs = net.forward_features(rows.features[pair.source])
    f_t, tr_ft = net.forward_features(rows.features[pair.target])
    logits_s, tr_cs = net.forward_classifier(f_s)
    lc = cross_entropy(logits_s, rows.class_ids[pair.source]).value
    traces = [("extractor", tr_fs), ("extractor", tr_ft), ("classifier", tr_cs)]
    if config.method == "deercoral":
        if config.coral_layer == "features":
            return lc, coral_loss(f_s, f_t).value, traces
        logits_t, tr_ct = net.forward_classifier(f_t)
        return lc, coral_loss(logits_s, logits_t).value, traces + [("classifier", tr_ct)]
    rs, rt = pair.routed_source_rows, pair.routed_target_rows
    d_s, tr_ds = net.forward_discriminator(f_s[rs])
    d_t, tr_dt = net.forward_discriminator(f_t[rt])
    labels = np.repeat([DOMAIN_SOURCE, DOMAIN_TARGET], [rs.size, rt.size])
    ld = domain_confusion(np.vstack([d_s, d_t]), labels).value
    return lc, ld, traces + [("discriminator", tr) for tr in (tr_ds, tr_dt) if tr.x.shape[0]]


def step_instance(seed, config):
    """A micro net and a hand-built step input clear of ReLU kinks, or None."""
    net, rng = make_gradcheck_net(seed)
    n = int(rng.integers(3, 8))
    d_in, k = net.spec.input_dim, net.spec.class_count
    rare = k - 1
    xs, xt = rng.standard_normal((n, d_in)), rng.standard_normal((n, d_in))
    ys, yt = (np.where(rng.random(n) < 0.5, rare, rng.integers(0, k, n)) for _ in range(2))
    rows, pair = batch_pair(config.method, rare, xs, ys, xt, yt)
    adversarial = config.method in ADVERSARIAL
    if adversarial and pair.routed_source_rows.size + pair.routed_target_rows.size == 0:
        return None
    if not trace_clear_of_kinks(net, *step_terms(net, rows, pair, config)[2]):
        return None
    return net, rows, pair


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
            net, rows, pair = instance
            totals = _Totals()
            _train_batch(net, rows, pair, config, grl, make_rng(0), totals)
            lc, term, _ = step_terms(net, rows, pair, config)
            adversarial = config.method in ADVERSARIAL
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
                        lcv, termv, _ = step_terms(net, rows, pair, config)
                        setattr(layer, attr, old)
                        return lcv + sign * termv

                    flat = param.reshape(1, -1).copy()
                    fd = finite_diff_grad(f, flat, 1e-4).reshape(param.shape)
                    err = relative_error(getattr(layer, gattr), fd)
                    assert err < 1e-4, (config.method, config.coral_layer, seed, part, i, attr)
            checked += 1


def test_array_holding_records_compare_by_identity_without_raising(tiny_dataset):
    # a generated == compares the array fields as a tuple and raises; each pair
    # below holds equal content, as train() and the sampler are deterministic
    cfg = TrainConfig(method="deerdann", epochs=1, batch_size=32, synthetic_count=50)
    runs = [train(tiny_dataset, cfg) for _ in range(2)]
    assert np.array_equal(runs[0][0].params, runs[1][0].params)
    orgs = [build_domains(tiny_dataset, "deerdann", synthetic_count=50) for _ in range(2)]
    pairs = [next(paired_sampler(org, 32, seed=0, epoch=0)) for org in orgs]
    for a, b in [
        [ckpt for ckpt, _ in runs],
        [history[0] for _, history in runs],
        [history[0].split_metrics["train"] for _, history in runs],
        orgs,
        pairs,
    ]:
        assert a != b
        assert a == a and b == b
