import json
import math

import numpy as np
import pytest

from raredapt import NonFiniteError, Network, comparison_table, evaluate, make_rng, table_row
from raredapt.data import Dataset
from raredapt.metrics import TABLE_COLUMNS
from raredapt.network import NetworkSpec


def zero_logit_net(d_in=4, k=3):
    spec = NetworkSpec(d_in, k, (3,), (), ())
    net = Network.initialize(spec, make_rng(0))
    for _, _, layer in net.parameters():
        layer.w[...] = 0.0
        layer.b[...] = 0.0
    return net


def handmade_dataset(counts_by_split):
    """Dataset with fixed per-(split, class) counts; class 2 is rare."""
    feats, classes, domains, locs, splits = [], [], [], [], []
    rng = make_rng(1)
    for split, counts in counts_by_split.items():
        for c, n in enumerate(counts):
            for _ in range(n):
                feats.append(rng.standard_normal(4))
                classes.append(c)
                domains.append("real")
                locs.append(100 + c if split.startswith("trans") else c)
                splits.append(split)
    return Dataset(
        features=np.array(feats),
        class_ids=np.array(classes),
        domains=np.array(domains),
        location_ids=np.array(locs),
        splits=np.array(splits),
    )


BASE_COUNTS = {
    "train": (5, 4, 3),
    "cis_val": (2, 2, 2),
    "cis_test": (4, 3, 2),
    "trans_val": (2, 2, 2),
    "trans_test": (4, 3, 2),
}


def test_always_predict_zero_classifier():
    ds = handmade_dataset(BASE_COUNTS)
    m = evaluate(zero_logit_net(), ds, "cis_test", rare_class_id=2)
    assert m.per_class_acc[0] == 1.0
    assert m.per_class_acc[1] == 0.0
    assert m.per_class_acc[2] == 0.0
    assert m.rare_acc == 0.0
    assert m.other_macro == 0.5  # mean of classes 0 and 1


def test_confusion_trace_equals_overall():
    ds = handmade_dataset(BASE_COUNTS)
    net = Network.initialize(NetworkSpec(4, 3, (5, 3), (), ()), make_rng(3))
    m = evaluate(net, ds, "trans_test", rare_class_id=2)
    assert m.overall == np.trace(m.confusion) / m.confusion.sum()
    assert np.array_equal(m.confusion.sum(axis=1), [4, 3, 2])
    # reference: count (truth, prediction) pairs one row at a time
    idx = ds.real_split_indices["trans_test"]
    logits, _ = net.forward_classifier(net.forward_features(ds.features[idx])[0])
    expected = np.zeros((3, 3), dtype=np.int64)
    for truth, pred in zip(ds.class_ids[idx], np.argmax(logits, axis=1)):
        expected[truth, pred] += 1
    assert np.array_equal(m.confusion, expected)


def test_macro_other_matches_brute_force():
    ds = handmade_dataset(BASE_COUNTS)
    net = Network.initialize(NetworkSpec(4, 3, (6, 3), (), ()), make_rng(4))
    m = evaluate(net, ds, "cis_test", rare_class_id=2)
    brute = np.mean([m.per_class_acc[c] for c in range(3) if c != 2])
    assert m.other_macro == pytest.approx(brute, abs=0)


def test_absent_class_excluded_from_macro():
    counts = dict(BASE_COUNTS)
    counts["cis_val"] = (3, 0, 2)  # class 1 absent from this split
    ds = handmade_dataset(counts)
    m = evaluate(zero_logit_net(), ds, "cis_val", rare_class_id=2)
    assert math.isnan(m.per_class_acc[1])
    assert m.other_macro == 1.0  # only class 0 contributes


def test_evaluate_is_pure(tiny_dataset):
    spec = NetworkSpec(tiny_dataset.feature_dim, tiny_dataset.num_classes, (64, 32), (), (32,))
    net = Network.initialize(spec, make_rng(5))
    a = evaluate(net, tiny_dataset, "cis_test")
    b = evaluate(net, tiny_dataset, "cis_test")
    assert np.array_equal(a.confusion, b.confusion)
    assert a.rare_acc == b.rare_acc


def test_evaluate_rejects_unknown_or_empty_split():
    ds = handmade_dataset(BASE_COUNTS)
    with pytest.raises(ValueError, match="unknown split"):
        evaluate(zero_logit_net(), ds, "test")


@pytest.mark.parametrize("rare", [-1, 3, 9, True, np.True_, 2.0])
def test_evaluate_rejects_a_rare_class_id_that_is_not_a_class_id(rare):
    # the handmade dataset has classes 0..2
    with pytest.raises(ValueError, match=r"^rare_class_id must be a class id in \[0, 3\), got "):
        evaluate(zero_logit_net(), handmade_dataset(BASE_COUNTS), "cis_test", rare_class_id=rare)


def test_evaluate_accepts_a_numpy_int_rare_class_id():
    ds = handmade_dataset(BASE_COUNTS)
    m = evaluate(zero_logit_net(), ds, "cis_test", rare_class_id=np.int64(2))
    assert m.to_dict() == evaluate(zero_logit_net(), ds, "cis_test", rare_class_id=2).to_dict()


def test_evaluate_rejects_non_finite_logits():
    # a NaN parameter must not turn into an argmax over garbage
    net = zero_logit_net()
    net.parts["classifier"][0].b[1] = np.nan
    with pytest.raises(NonFiniteError, match="non-finite values in cis_test logits"):
        evaluate(net, handmade_dataset(BASE_COUNTS), "cis_test", rare_class_id=2)


def test_metrics_dict_round_trip():
    ds = handmade_dataset(BASE_COUNTS)
    m = evaluate(zero_logit_net(), ds, "cis_test", rare_class_id=2)
    again = json.loads(json.dumps(m.to_dict(), allow_nan=False))
    assert np.array_equal(m.confusion, again["confusion"])
    assert m.rare_acc == again["rare_acc"]
    counts = dict(BASE_COUNTS)
    counts["cis_val"] = (3, 0, 2)
    nan_m = evaluate(zero_logit_net(), handmade_dataset(counts), "cis_val", rare_class_id=2)
    assert math.isnan(nan_m.per_class_acc[1])
    again = json.loads(json.dumps(nan_m.to_dict(), allow_nan=False))
    assert again["per_class_acc"][1] is None


def test_comparison_table_layout_and_round_trip():
    rows = [
        ("baseline", {"trans_rare_acc": 0.312, "cis_rare_acc": 0.517,
                      "trans_other_avg": 0.751, "cis_other_avg": 0.895}),
        ("deerdann", {"trans_rare_acc": 0.836, "cis_rare_acc": 0.964,
                      "trans_other_avg": 0.746, "cis_other_avg": 0.893}),
    ]
    text, csv_text = comparison_table(rows)
    lines = text.splitlines()
    assert len(lines) == 3
    assert lines[0].split() == ["method", "trans", "rare", "cis", "rare", "trans", "other", "cis", "other"]
    assert "83.6" in lines[2]
    csv_lines = csv_text.splitlines()
    assert csv_lines[0] == "method," + ",".join(TABLE_COLUMNS)
    parsed = csv_lines[1].split(",")
    assert parsed[0] == "baseline"
    assert [float(v) for v in parsed[1:]] == [0.312, 0.517, 0.751, 0.895]


def test_comparison_table_single_row():
    text, csv_text = comparison_table(
        [("only", {c: 0.5 for c in TABLE_COLUMNS})]
    )
    assert len(text.splitlines()) == 2
    assert len(csv_text.splitlines()) == 2


def test_comparison_table_shows_an_undefined_accuracy_as_a_dash_and_an_empty_cell():
    row = {"trans_rare_acc": None, "cis_rare_acc": 0.5, "trans_other_avg": 0.25,
           "cis_other_avg": 1.0}
    text, csv_text = comparison_table([("deerdann", row)])
    assert text.splitlines()[1].split() == ["deerdann", "-", "50.0", "25.0", "100.0"]
    assert csv_text.splitlines()[1] == "deerdann,,0.5,0.25,1.0"


def test_table_row_extracts_test_split_numbers():
    ds = handmade_dataset(BASE_COUNTS)
    net = zero_logit_net()
    by_split = {s: evaluate(net, ds, s, rare_class_id=2) for s in BASE_COUNTS}
    row = table_row(by_split)
    assert row["trans_rare_acc"] == by_split["trans_test"].rare_acc
    assert row["cis_other_avg"] == by_split["cis_test"].other_macro
