import dataclasses
import hashlib
import os
import re
import struct
import zipfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from raredapt import (
    GenSpec, class_histogram, data, datasets_equal, generate, load_csv, save_csv
)
from raredapt.data import (
    DataFormatError, SPLITS, Dataset, _numpy_float, cache_path, synthetic_map
)

from conftest import ZERO_GAP, counting_forks, force_csv_workers, tiny_gen_spec


def test_default_spec_rare_train_count_is_41():
    spec = GenSpec()
    assert spec.resolved_train_counts()[spec.rare_class_id] == 41
    ds = generate(tiny_gen_spec())
    assert class_histogram(ds, "train")[ds.rare_class_id] == 41


def test_default_long_tail_shape():
    counts = GenSpec().resolved_train_counts()
    assert len(counts) == 8
    assert counts[0] == 1000
    assert all(a >= b for a, b in zip(counts, counts[1:]))
    assert min(counts) == 41


def test_generated_counts_match_spec_exactly():
    spec = tiny_gen_spec()
    ds = generate(spec)
    assert np.array_equal(class_histogram(ds, "train"), spec.resolved_train_counts())
    k = spec.class_count
    for split in ("cis_val", "trans_val"):
        assert np.array_equal(class_histogram(ds, split), [spec.val_count_per_class] * k)
    for split in ("cis_test", "trans_test"):
        assert np.array_equal(class_histogram(ds, split), [spec.test_count_per_class] * k)
    assert len(ds.synthetic_indices) == spec.synthetic_pool_size


def test_spec_rejects_untrainable_split_sizes_and_wrong_types():
    # every split needs real samples of each class, or evaluation fails after
    # a whole epoch of training
    for name, value, low in (("val_count_per_class", 0, 1), ("test_count_per_class", 0, 1),
                             ("val_count_per_class", -3, 1), ("test_count_per_class", -3, 1),
                             ("trans_locations_per_class", 0, 1), ("gap_noise_factor", -0.5, 0),
                             ("seed", -1, 0)):
        with pytest.raises(ValueError, match=f"^{name} must be >= {low}, got {value}$"):
            tiny_gen_spec(**{name: value})
    tiny_gen_spec(val_count_per_class=1, test_count_per_class=1)
    # every out-of-range field is named in one error
    with pytest.raises(ValueError) as info:
        tiny_gen_spec(noise_scale=-1.0, val_count_per_class=0, class_count=1)
    assert str(info.value).split("; ") == [
        "class_count must be >= 2, got 1",
        "val_count_per_class must be >= 1, got 0",
        "noise_scale must be >= 0, got -1.0",
    ]
    with pytest.raises(ValueError) as info:
        tiny_gen_spec(synthetic_pool_size=10.0, train_counts=(120, 90, 60.5, 41),
                      class_mean_scale="1", seed=True)
    assert str(info.value).split("; ") == [
        "train_counts must be tuple[int, ...] | None, got (120, 90, 60.5, 41)",
        "class_mean_scale must be float, got '1'",
        "synthetic_pool_size must be int, got 10.0",
        "seed must be int, got True",
    ]
    assert tiny_gen_spec(class_mean_scale=2, train_counts=None).class_mean_scale == 2


@pytest.mark.parametrize("counts, message", [
    ((120, 90, 41), "train_counts has 3 entries for 4 classes"),
    ((120, 0, 60, 41), "train counts must be >= 1, got (120, 0, 60, 41)"),
])
def test_spec_rejects_train_counts_of_another_length_or_below_one(counts, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        tiny_gen_spec(train_counts=counts)


def test_explicit_gap_fields_equal_to_the_parametric_map_draw_the_same_dataset():
    spec = tiny_gen_spec()
    gap_a, gap_b, _ = synthetic_map(spec)
    explicit = dataclasses.replace(spec, gap_matrix=tuple(map(tuple, gap_a.tolist())),
                                   gap_offset_vector=tuple(gap_b.tolist()))
    ds, again = generate(spec), generate(explicit)
    assert datasets_equal(again, ds)
    assert np.array_equal(again.features.view(np.uint64), ds.features.view(np.uint64))


def test_histogram_sums_and_empty_selection():
    ds = generate(tiny_gen_spec())
    hist = class_histogram(ds, "train")
    assert hist.sum() == np.count_nonzero((ds.splits == "train") & (ds.domains == "real"))
    # synthetic samples never appear outside the train split
    assert not np.any((ds.splits != "train") & (ds.domains == "synthetic"))


def test_row_selectors_are_read_only_and_cover_every_row_once():
    ds = generate(tiny_gen_spec())
    selected = [*ds.real_split_indices.values(), ds.synthetic_indices]
    assert np.array_equal(np.sort(np.concatenate(selected)), np.arange(len(ds)))
    for idx in selected:
        assert not idx.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            idx[0] = 0
    assert ds.synthetic_indices is ds.synthetic_indices  # cached, not recomputed
    assert np.all(ds.domains[ds.synthetic_indices] == "synthetic")
    for split, idx in ds.real_split_indices.items():
        assert np.all(ds.splits[idx] == split) and np.all(ds.domains[idx] == "real")


def test_generation_deterministic():
    a = generate(tiny_gen_spec())
    b = generate(tiny_gen_spec())
    assert datasets_equal(a, b)
    c = generate(tiny_gen_spec(seed=1))
    assert not datasets_equal(a, c)


def test_dataset_equality_compares_the_columns():
    a = generate(tiny_gen_spec())
    assert a == generate(tiny_gen_spec())
    features = a.features.copy()
    features[5, 2] += 1.0
    changed = Dataset(features=features, class_ids=a.class_ids, domains=a.domains,
                      location_ids=a.location_ids, splits=a.splits)
    assert a != changed and not a == changed
    assert a != "dataset"
    with pytest.raises(TypeError, match="unhashable"):
        hash(a)


def test_trans_locations_disjoint_from_train_and_cis():
    ds = generate(tiny_gen_spec())
    idx = ds.real_split_indices
    seen = set(ds.location_ids[np.concatenate([idx["train"], idx["cis_val"], idx["cis_test"]])])
    for split in ("trans_val", "trans_test"):
        assert not (set(ds.location_ids[ds.splits == split]) & seen)


def test_synthetic_pool_invariants():
    ds = generate(tiny_gen_spec())
    pool = ds.synthetic_indices
    assert np.all(ds.class_ids[pool] == ds.rare_class_id)
    assert np.all(ds.splits[pool] == "train")
    assert np.all(ds.location_ids[pool] == -1)


def test_zero_gap_map_is_identity():
    spec = GenSpec(feature_dim=6, **ZERO_GAP)
    a, b, noise = synthetic_map(spec)
    assert np.allclose(a, np.eye(6), rtol=0, atol=1e-15)
    assert np.array_equal(b, np.zeros(6))
    assert noise == spec.noise_scale


def test_default_gap_has_requested_condition_and_offset():
    spec = GenSpec()
    a, b, noise = synthetic_map(spec)
    svals = np.linalg.svd(a, compute_uv=False)
    assert abs(svals[0] / svals[-1] - spec.gap_condition) < 1e-9
    unit = spec.class_mean_scale * np.sqrt(2.0 * spec.feature_dim)
    assert abs(np.linalg.norm(b) - spec.gap_offset * unit) < 1e-9
    assert noise == pytest.approx(spec.noise_scale * 1.5)


def test_zero_gap_populations_statistically_identical():
    # aggregated two-sample z on the mean difference, all dims pooled
    for seed in range(5):
        spec = GenSpec(
            **ZERO_GAP,
            class_count=4,
            rare_class_id=3,
            train_counts=(100, 80, 60, 41),
            feature_dim=8,
            synthetic_pool_size=300,
            val_count_per_class=5,
            test_count_per_class=10,
            seed=seed,
        )
        ds = generate(spec)
        train = ds.real_split_indices["train"]
        real = ds.features[train[ds.class_ids[train] == 3]]
        synth = ds.features[ds.synthetic_indices]
        delta = real.mean(axis=0) - synth.mean(axis=0)
        var = real.var(axis=0, ddof=1) / len(real) + synth.var(axis=0, ddof=1) / len(synth)
        z = np.linalg.norm(delta) / np.sqrt(var.sum())
        assert z < 3.0


def test_generate_rejects_infeasible_specs():
    with pytest.raises(ValueError, match="no train locations"):
        tiny_gen_spec(locations_per_class=2, trans_locations_per_class=2)
    with pytest.raises(ValueError, match="not the minimum"):
        tiny_gen_spec(train_counts=(41, 90, 60, 120))
    with pytest.raises(ValueError, match="rare_class_id"):
        tiny_gen_spec(rare_class_id=9)


def test_csv_round_trip_identity(tmp_path):
    ds = generate(tiny_gen_spec(synthetic_pool_size=50))
    path = tmp_path / "data.csv"
    save_csv(ds, path)
    loaded = load_csv(path)
    assert datasets_equal(ds, loaded)


def test_generated_csv_matches_its_golden_digest(tmp_path):
    # pins the generator's draw order and the order of its arithmetic
    path = tmp_path / "data.csv"
    save_csv(generate(tiny_gen_spec()), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "ec7192b633cd167168364c1de1657a98ced4d2d4d9cc5c32e51afbf203262a9e"
    )


def test_csv_resave_byte_identical(tmp_path):
    ds = generate(tiny_gen_spec(synthetic_pool_size=50))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    save_csv(ds, p1)
    save_csv(load_csv(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def _write_rows(path, header, rows):
    path.write_text("\n".join([",".join(header)] + rows) + "\n", encoding="utf-8")


def _tiny_rows():
    # 2 features; one sample per (class, needed split); rare class 1
    rows = []
    for c, n_train in ((0, 2), (1, 1)):
        for i in range(n_train):
            rows.append(f"0.5,{float(c)},{c},real,{c},train")
        for split, loc in (("cis_test", c), ("trans_test", 10 + c), ("trans_val", 10 + c), ("cis_val", c)):
            rows.append(f"0.25,{float(c)},{c},real,{loc},{split}")
    return rows


def test_csv_rejects_synthetic_non_rare_class(tmp_path):
    rows = _tiny_rows() + ["0.1,0.1,0,synthetic,-1,train"]  # class 0 is not the rare one
    path = tmp_path / "bad.csv"
    _write_rows(path, ["f0", "f1", "class_id", "domain", "location_id", "split"], rows)
    with pytest.raises(DataFormatError, match="rarer"):
        load_csv(path)


def test_csv_accepts_valid_tiny_file(tmp_path):
    path = tmp_path / "ok.csv"
    rows = _tiny_rows() + ["0.1,1.0,1,synthetic,-1,train"]
    _write_rows(path, ["f0", "f1", "class_id", "domain", "location_id", "split"], rows)
    ds = load_csv(path)
    assert len(ds) == len(rows)
    assert ds.rare_class_id == 1


def test_csv_malformed_row_names_line(tmp_path):
    rows = _tiny_rows()
    rows.insert(2, "0.1,0.2,0,real,0")  # one column short, line 4 of the file
    path = tmp_path / "short.csv"
    _write_rows(path, ["f0", "f1", "class_id", "domain", "location_id", "split"], rows)
    with pytest.raises(DataFormatError, match="line 4"):
        load_csv(path)


def test_csv_unknown_tokens_rejected(tmp_path):
    header = ["f0", "f1", "class_id", "domain", "location_id", "split"]
    path = tmp_path / "tok.csv"
    _write_rows(path, header, _tiny_rows() + ["0.0,0.0,1,simulated,-1,train"])
    with pytest.raises(DataFormatError, match="domain token"):
        load_csv(path)
    _write_rows(path, header, _tiny_rows() + ["0.0,0.0,1,real,0,validation"])
    with pytest.raises(DataFormatError, match="split token"):
        load_csv(path)


def test_csv_bad_header_rejected(tmp_path):
    path = tmp_path / "hdr.csv"
    _write_rows(path, ["x0", "x1", "class_id", "domain", "location_id", "split"], _tiny_rows())
    with pytest.raises(DataFormatError, match="header"):
        load_csv(path)


def test_dataset_requires_rare_class_in_test_splits(tmp_path):
    rows = [r for r in _tiny_rows() if not ("trans_test" in r and r.split(",")[2] == "1")]
    path = tmp_path / "norare.csv"
    _write_rows(path, ["f0", "f1", "class_id", "domain", "location_id", "split"], rows)
    with pytest.raises(DataFormatError, match="missing from trans_test"):
        load_csv(path)


TINY_HEADER = ["f0", "f1", "class_id", "domain", "location_id", "split"]
FINITE_DOUBLES = (
    st.integers(0, 2**64 - 1)
    .map(lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0])
    .filter(np.isfinite)
)
EDGE_DOUBLES = [-0.0, 5e-324, 1e16, np.finfo(np.float64).max, -np.finfo(np.float64).max,
                2.2250738585072014e-308, 0.1, -1e-300, 9007199254740993.0, 1.0, 0.0]


def _write_tiny_with_cell(path, column, cell):
    """Write ``_tiny_rows()`` with one cell of file line 7 replaced."""
    rows = _tiny_rows()
    cells = rows[5].split(",")
    cells[column] = cell
    rows[5] = ",".join(cells)
    _write_rows(path, TINY_HEADER, rows)


@settings(max_examples=60, deadline=None)
@given(values=st.lists(FINITE_DOUBLES, min_size=22, max_size=22))  # _tiny_rows(): 11 x 2
@example(values=EDGE_DOUBLES * 2)
def test_csv_round_trips_any_finite_double_bit_for_bit(tmp_path_factory, values):
    tmp = tmp_path_factory.mktemp("round_trip")
    _write_rows(tmp / "tiny.csv", TINY_HEADER, _tiny_rows())
    base = load_csv(tmp / "tiny.csv")
    ds = dataclasses.replace(base, features=np.array(values).reshape(base.features.shape))
    save_csv(ds, tmp / "a.csv")
    cached = load_csv(tmp / "a.csv")
    cache_path(tmp / "a.csv").unlink()
    loaded = load_csv(tmp / "a.csv")
    for read in (cached, loaded):
        assert np.array_equal(read.features.view(np.uint64), ds.features.view(np.uint64))
        assert datasets_equal(read, ds)
    save_csv(loaded, tmp / "b.csv")
    assert (tmp / "a.csv").read_bytes() == (tmp / "b.csv").read_bytes()


@pytest.mark.parametrize("column, cell, reason", [
    (1, "abc", "could not convert string to float: 'abc'"),
    (1, "1#2", "could not convert string to float: '1#2'"),  # '#' comments would read 1.0
    (1, "1_0", "could not convert string to float: '1_0'"),
    (0, "", "could not convert string to float: ''"),
    (2, "x", "invalid literal for int() with base 10: 'x'"),
    (4, "1.5", "invalid literal for int() with base 10: '1.5'"),
])
def test_csv_bad_cell_on_a_later_line_names_that_line(tmp_path, column, cell, reason):
    path = tmp_path / "bad.csv"
    _write_tiny_with_cell(path, column, cell)
    with pytest.raises(DataFormatError, match=f"^{re.escape(f'{path}: line 7: {reason}')}$"):
        load_csv(path)


@pytest.mark.parametrize("cell", ["0.5\x1c", "\x1f0.5", "\xa00.5\u2003", " 0.5\t"])
def test_csv_feature_value_in_whitespace_numpy_strips_loads(tmp_path, cell):
    path = tmp_path / "spaced.csv"
    _write_tiny_with_cell(path, 1, cell)
    assert load_csv(path).features[5, 1] == 0.5


OUTSIZED_IDS = [
    (2, "11", "class_id 11 is not below the number of data rows (11); "
              "every class needs a real train row"),
    (2, "1000000", "class_id 1000000 is not below the number of data rows (11); "
                   "every class needs a real train row"),
    (2, str(2**63), f"class_id {2**63} is outside int64"),
    (4, str(2**63), f"location_id {2**63} is outside int64"),
    (4, str(-2**63 - 1), f"location_id {-2**63 - 1} is outside int64"),
]


@pytest.mark.parametrize("column, cell, reason", OUTSIZED_IDS)
def test_csv_outsized_id_is_rejected_before_classes_are_built(tmp_path, column, cell, reason):
    # the class count is the largest class_id + 1, so an outsized id must fail
    # before anything per class is allocated
    path = tmp_path / "outsized.csv"
    _write_tiny_with_cell(path, column, cell)
    with pytest.raises(DataFormatError, match=f"^{re.escape(f'{path}: line 7: {reason}')}$"):
        load_csv(path)


def test_csv_faults_are_reported_in_file_order(tmp_path):
    rows = [row.split(",") for row in _tiny_rows()]
    rows[1][2] = str(2**63)  # class_id on line 3
    rows[7][5] = "validation"  # split on line 9
    rows = [",".join(row) for row in rows]
    path = tmp_path / "two_faults.csv"
    _write_rows(path, TINY_HEADER, rows)
    reason = f"line 3: class_id {2**63} is outside int64"
    with pytest.raises(DataFormatError, match=f"^{re.escape(f'{path}: {reason}')}$"):
        load_csv(path)


@settings(max_examples=300, deadline=None)
@given(token=st.text(alphabet=list("0123456789.eE+-_ #nafiNx\t\x0b\x0c\x1c\x1f\xa0\u0661"),
                     min_size=1, max_size=8))
@example(token="0\x1c")  # numpy strips \x1c as whitespace, float() rejects it
def test_feature_value_grammar_agrees_with_numpy_parser(token):
    ours = _outcome(_numpy_float, token)
    numpy = _outcome(
        lambda t: np.loadtxt([t, "0"], delimiter=",", dtype=np.float64, comments=None)[0], token)
    if numpy.startswith("ValueError"):
        assert ours == f"ValueError: could not convert string to float: {token!r}"
    else:
        assert ours == numpy
    if data._plain(token):  # the parse reads the token with float()
        assert _outcome(float, token) == ours


def _outcome(read, token) -> str:
    """``repr`` of the float ``read(token)`` returns, or the message of its ValueError."""
    try:
        return repr(float(read(token)))
    except ValueError as exc:
        return f"ValueError: {exc}"


def test_csv_blank_feature_of_a_one_feature_file_names_its_line(tmp_path):
    rows = [row.split(",", 1)[1] for row in _tiny_rows()]  # drop f0, keep f1 as the only feature
    rows[3] = "," + rows[3].split(",", 1)[1]
    path = tmp_path / "one.csv"
    _write_rows(path, ["f0", *TINY_HEADER[2:]], rows)
    reason = "line 5: could not convert string to float: ''"
    with pytest.raises(DataFormatError, match=f"^{re.escape(f'{path}: {reason}')}$"):
        load_csv(path)


def test_csv_crlf_file_loads_equal_to_lf_file(tmp_path):
    lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
    _write_rows(lf, TINY_HEADER, _tiny_rows())
    crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
    assert datasets_equal(load_csv(crlf), load_csv(lf))


def test_csv_header_only_file_has_no_data_rows(tmp_path):
    path = tmp_path / "empty.csv"
    _write_rows(path, TINY_HEADER, [])
    with pytest.raises(DataFormatError, match=f"^{re.escape(str(path))}: no data rows$"):
        load_csv(path)


def test_dataset_rejects_zero_rows():
    with pytest.raises(DataFormatError, match="^dataset has no rows$"):
        Dataset(features=np.empty((0, 2)), class_ids=[], domains=[], location_ids=[], splits=[])


@pytest.mark.parametrize("columns, message", [
    (dict(domains=["real", "fake"], splits=["train", "train"]), "unknown domain token 'fake'"),
    (dict(domains=["real", "real"], splits=["train", "bogus"]), "unknown split token 'bogus'"),
])
def test_dataset_unknown_token_is_named_as_a_plain_string(columns, message):
    with pytest.raises(DataFormatError, match=f"^{message}$"):
        Dataset(features=np.zeros((2, 1)), class_ids=[0, 0], location_ids=[1, 2], **columns)


def _columns(*rows):
    """Dataset columns of one feature (0.0) from ``(class_id, domain, location_id, split)`` rows."""
    class_ids, domains, location_ids, splits = zip(*rows)
    return dict(features=np.zeros((len(rows), 1)), class_ids=class_ids, domains=domains,
                location_ids=location_ids, splits=splits)


TWO_TRAIN_ROWS = _columns((0, "real", 1, "train"), (0, "real", 2, "train"))


@pytest.mark.parametrize("columns, message", [
    ({**TWO_TRAIN_ROWS, "features": np.zeros(2)}, "features must be 2-D, got shape (2,)"),
    ({**TWO_TRAIN_ROWS, "class_ids": [0]}, "class_ids has shape (1,), expected (2,)"),
    ({**TWO_TRAIN_ROWS, "class_ids": [0, -1]}, "class_id out of range [0, 1)"),
    (_columns((0, "real", 1, "train"), (1, "real", 2, "cis_test")),
     "class 1 has no real train samples"),
    (_columns((0, "real", 1, "train"), (1, "real", 1, "train"), (0, "synthetic", -1, "train"),
              (1, "synthetic", -1, "train")),
     "synthetic samples span classes [0, 1]; synthetic data must belong to the single rare class"),
    (_columns((0, "real", 1, "train"), (1, "real", 1, "train"), (1, "synthetic", -1, "cis_val")),
     "synthetic samples must carry split 'train'"),
])
def test_dataset_rejects_columns_that_break_an_invariant(columns, message):
    with pytest.raises(DataFormatError, match=f"^{re.escape(message)}$"):
        Dataset(**columns)


def test_dataset_reused_trans_location_ids_are_listed_as_plain_ints():
    splits = ["train", "cis_test", "trans_test", "trans_val"]
    with pytest.raises(DataFormatError,
                       match=r"^trans_val reuses train/cis location ids \[3\]$"):
        Dataset(features=np.zeros((4, 1)), class_ids=[0] * 4, domains=["real"] * 4,
                location_ids=[3, 3, 5, 3], splits=splits)


def test_splits_constant_matches_schema():
    assert SPLITS == ("train", "cis_val", "cis_test", "trans_val", "trans_test")


def counting_parses():
    """Spy on the CSV parse of ``load_csv``."""
    return mock.patch.object(data, "_parse_csv", wraps=data._parse_csv)


COLUMNS = ("features", "class_ids", "domains", "location_ids", "splits")
SMALL_SPECS = st.builds(
    lambda k, d, rare, pool, seed: tiny_gen_spec(
        class_count=k, feature_dim=d, rare_class_id=k - 1, train_counts=(12,) * (k - 1) + (rare,),
        val_count_per_class=3, test_count_per_class=4, synthetic_pool_size=pool, seed=seed),
    st.integers(2, 4), st.integers(2, 5), st.integers(1, 12), st.integers(0, 30),
    st.integers(0, 2**32 - 1),
)


@settings(max_examples=25, deadline=None)
@given(spec=SMALL_SPECS)
def test_cache_hit_equals_the_parse_dtype_for_dtype(tmp_path_factory, spec):
    path = tmp_path_factory.mktemp("cache") / "data.csv"
    ds = generate(spec)
    # wider strings than the cells need: the parse gives the narrowest width
    save_csv(dataclasses.replace(ds, domains=ds.domains.astype("U16"),
                                 splits=ds.splits.astype("U16")), path)
    with counting_parses() as parses:
        hit = load_csv(path)
    assert parses.call_count == 0
    cache_path(path).unlink()
    parsed = load_csv(path)
    assert datasets_equal(hit, ds) and datasets_equal(hit, parsed)
    for name in COLUMNS:
        assert getattr(hit, name).dtype == getattr(parsed, name).dtype, name
    assert (hit.num_classes, hit.rare_class_id) == (parsed.num_classes, parsed.rare_class_id)


def test_stale_cache_falls_back_to_the_parse(tmp_path):
    first = generate(tiny_gen_spec(synthetic_pool_size=20))
    second = generate(tiny_gen_spec(synthetic_pool_size=20, seed=1))
    path = tmp_path / "data.csv"
    save_csv(first, path)
    first_cache = cache_path(path).read_bytes()
    # another CSV saved at the same path, beside the first one's cache
    save_csv(second, path)
    cache_path(path).write_bytes(first_cache)
    with counting_parses() as parses:
        assert datasets_equal(load_csv(path), second)
    assert parses.call_count == 1
    # the CSV edited after the save
    save_csv(first, path)
    lines = path.read_text(encoding="utf-8").split("\n")
    lines[1] = "0.5," + lines[1].split(",", 1)[1]
    path.write_text("\n".join(lines), encoding="utf-8")
    with counting_parses() as parses:
        loaded = load_csv(path)
    assert parses.call_count == 1
    assert loaded.features[0, 0] == 0.5 and not datasets_equal(loaded, first)


TRIPPED = []


def _trip():
    TRIPPED.append("unpickled")


class _Tripwire:
    """Unpickling this object records it in TRIPPED."""

    def __reduce__(self):
        return _trip, ()


def _shift_features(blob: bytes) -> bytes:
    """Shorten the .npy header length of the features member by 16 bytes, so
    numpy would read the array 16 bytes early and stop short of the member's end."""
    at = blob.index(b"\x93NUMPY", blob.index(b"features.npy")) + 8
    (length,) = struct.unpack("<H", blob[at : at + 2])
    return blob[:at] + struct.pack("<H", length - 16) + blob[at + 2 :]


def _narrow_features(cache, n: int, d: int) -> None:
    """Rewrite the cache of ``n`` x ``d`` features, CRCs intact, with a features.npy
    header that claims one column fewer, so numpy reads a row-shifted array and
    stops short of the member's end."""
    with zipfile.ZipFile(cache) as npz:
        members = {name: npz.read(name) for name in npz.namelist()}
    old = f"({n}, {d}),".encode()
    members["features.npy"] = members["features.npy"].replace(
        old, f"({n}, {d - 1}),".encode().ljust(len(old)), 1)
    with zipfile.ZipFile(cache, "w") as npz:
        for name, blob in members.items():
            npz.writestr(name, blob)
    with np.load(cache) as npz:
        assert npz["features"].shape == (n, d - 1)


@pytest.mark.parametrize("damage", ["truncated", "key missing", "object array", "shifted",
                                    "one column fewer", "float32 features", "a bare .npy"])
def test_damaged_cache_falls_back_to_the_parse(tmp_path, damage):
    ds = generate(tiny_gen_spec(synthetic_pool_size=20))
    path = tmp_path / "data.csv"
    save_csv(ds, path)
    cache = cache_path(path)
    blob = cache.read_bytes()
    with np.load(cache) as npz:
        arrays = {name: npz[name] for name in npz.files}
    for cut in ((0, 30, len(blob) // 2, len(blob) - 1) if damage == "truncated" else (None,)):
        if damage == "truncated":
            cache.write_bytes(blob[:cut])
        elif damage == "key missing":
            np.savez(cache, **{k: v for k, v in arrays.items() if k != "location_ids"})
        elif damage == "object array":
            features = ds.features.astype(object)
            features[0, 0] = _Tripwire()
            np.savez(cache, **{**arrays, "features": features})
        elif damage == "shifted":
            cache.write_bytes(_shift_features(blob))
        elif damage == "one column fewer":  # Dataset would take the shifted rows
            _narrow_features(cache, *ds.features.shape)
        elif damage == "float32 features":  # Dataset would widen them to other values
            np.savez(cache, **{**arrays, "features": ds.features.astype(np.float32)})
        else:
            with open(cache, "wb") as fh:
                np.save(fh, ds.features)
        with counting_parses() as parses:
            loaded = load_csv(path)
        assert parses.call_count == 1, cut
        assert datasets_equal(loaded, ds)
    assert TRIPPED == []


def test_bad_csv_beside_a_cache_gives_the_parse_error(tmp_path):
    path = tmp_path / "bad.csv"
    save_csv(generate(tiny_gen_spec(synthetic_pool_size=20)), path)
    _write_tiny_with_cell(path, 1, "abc")
    assert cache_path(path).is_file()
    reason = "line 7: could not convert string to float: 'abc'"
    with pytest.raises(DataFormatError, match=f"^{re.escape(f'{path}: {reason}')}$"):
        load_csv(path)


def test_save_csv_writes_the_same_cache_bytes_every_time(tmp_path):
    ds = generate(tiny_gen_spec(synthetic_pool_size=20))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    save_csv(ds, a)
    first = cache_path(a).read_bytes()
    save_csv(ds, a)
    save_csv(load_csv(a), b)
    assert cache_path(a).read_bytes() == first == cache_path(b).read_bytes()


TINY_CSV_SHA256 = "ec7192b633cd167168364c1de1657a98ced4d2d4d9cc5c32e51afbf203262a9e"


def test_save_csv_on_a_pool_writes_the_bytes_of_a_one_worker_save(tmp_path, monkeypatch):
    ds = generate(tiny_gen_spec())
    one, pooled = tmp_path / "one.csv", tmp_path / "pooled.csv"
    save_csv(ds, one)
    force_csv_workers(monkeypatch)
    forks = counting_forks(monkeypatch)
    save_csv(ds, pooled)
    assert len(forks) == 2
    assert hashlib.sha256(pooled.read_bytes()).hexdigest() == TINY_CSV_SHA256
    assert cache_path(pooled).read_bytes() == cache_path(one).read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "one.csv", "one.csv.parsed.npz", "pooled.csv", "pooled.csv.parsed.npz"]


@pytest.mark.parametrize("cores", [None, 2])
def test_save_csv_below_the_rows_per_worker_starts_no_process(tmp_path, monkeypatch, cores):
    # None: a platform without os.sched_getaffinity formats in process at any size
    def no_fork():
        raise AssertionError("save_csv forked a process")

    monkeypatch.setattr(os, "fork", no_fork)
    ds = generate(tiny_gen_spec())
    if cores is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(data, "ROWS_PER_WORKER", 1)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
        assert len(ds) < data.ROWS_PER_WORKER
    path = tmp_path / "data.csv"
    save_csv(ds, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == TINY_CSV_SHA256
    assert datasets_equal(load_csv(path), ds)
