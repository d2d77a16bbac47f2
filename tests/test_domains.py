import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raredapt import build_domains, generate, paired_sampler
from raredapt.domains import METHODS

from conftest import tiny_gen_spec


def test_deerdann_target_size_is_2050_for_41_rare(tiny_dataset):
    org = build_domains(tiny_dataset, "deerdann", synthetic_count=100, oversample_factor=50)
    assert org.target_indices.size == 41 * 50 == 2050


def test_source_size_is_train_plus_synthetic_for_all_methods(tiny_dataset):
    n_train = tiny_dataset.real_split_indices["train"].size
    for method in METHODS:
        for n_syn in (0, 37, 250):
            org = build_domains(tiny_dataset, method, synthetic_count=n_syn)
            assert org.source_indices.size == n_train + n_syn


def test_target_compositions(tiny_dataset):
    n_train = tiny_dataset.real_split_indices["train"].size
    base = build_domains(tiny_dataset, "baseline", synthetic_count=10)
    assert base.target_indices.size == 0
    for method in ("deercoral", "alldann"):
        org = build_domains(tiny_dataset, method, synthetic_count=10, oversample_factor=50)
        assert org.target_indices.size == n_train + 41 * 50


def test_target_never_contains_synthetic(tiny_dataset):
    for method in ("deerdann", "alldann", "deercoral"):
        org = build_domains(tiny_dataset, method, synthetic_count=200)
        assert np.all(tiny_dataset.domains[org.target_indices] == "real")


def test_oversampling_is_verbatim_multiplicity(tiny_dataset):
    org = build_domains(tiny_dataset, "deerdann", synthetic_count=0, oversample_factor=7)
    rare_train = [
        i
        for i in tiny_dataset.real_split_indices["train"]
        if tiny_dataset.class_ids[i] == org.rare_class_id
    ]
    counts = {i: 0 for i in rare_train}
    for i in org.target_indices:
        counts[int(i)] += 1
    assert all(c == 7 for c in counts.values())


def test_synthetic_subset_deterministic_and_bounded(tiny_dataset):
    a = build_domains(tiny_dataset, "deerdann", synthetic_count=50, seed=3)
    b = build_domains(tiny_dataset, "deerdann", synthetic_count=50, seed=3)
    c = build_domains(tiny_dataset, "deerdann", synthetic_count=50, seed=4)
    assert np.array_equal(a.source_indices, b.source_indices)
    assert not np.array_equal(a.source_indices, c.source_indices)
    pool = tiny_dataset.synthetic_indices.size
    with pytest.raises(ValueError, match="pool"):
        build_domains(tiny_dataset, "deerdann", synthetic_count=pool + 1)


def test_an_empty_synthetic_pool_gives_a_source_of_the_real_train_rows():
    # the Dataset's row selectors are read-only, and numpy refuses to shuffle
    # an empty read-only array in place
    dataset = generate(tiny_gen_spec(synthetic_pool_size=0))
    org = build_domains(dataset, "deerdann", synthetic_count=0)
    assert np.array_equal(org.source_indices, dataset.real_split_indices["train"])


def test_build_domains_rejects_unknown_method_and_missing_rare(tiny_dataset):
    with pytest.raises(ValueError, match="unknown method"):
        build_domains(tiny_dataset, "dann", synthetic_count=0)
    with pytest.raises(ValueError, match="no real train samples"):
        build_domains(tiny_dataset, "deerdann", synthetic_count=0, rare_class_id=1 + 10)


def test_deerdann_routes_the_rare_class_rows(tiny_dataset):
    org = build_domains(tiny_dataset, "deerdann", synthetic_count=10)
    expected = [c == org.rare_class_id for c in tiny_dataset.class_ids.tolist()]
    assert org.routed.dtype == bool and org.routed.tolist() == expected
    # real rare rows: 41 train, 15 in each val split, 25 in each test split;
    # and the 400-row synthetic pool
    assert org.routed.sum() == 41 + 2 * 15 + 2 * 25 + 400


def test_alldann_routes_every_row(tiny_dataset):
    org = build_domains(tiny_dataset, "alldann", synthetic_count=10)
    assert org.routed.dtype == bool and org.routed.shape == tiny_dataset.class_ids.shape
    assert org.routed.all()


@pytest.mark.parametrize("method", ["baseline", "deercoral"])
def test_methods_without_an_adversarial_term_route_nothing(tiny_dataset, method):
    assert build_domains(tiny_dataset, method, synthetic_count=10).routed is None


@pytest.mark.parametrize("method", ["deerdann", "alldann"])
@pytest.mark.parametrize("batch_size", [2, 7, 32])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_every_adversarial_batch_routes_target_rows(tiny_dataset, method, batch_size, seed):
    # the step picks the domain-confusion term from a batch's routed rows, so
    # no batch of an adversarial method may arrive without any
    org = build_domains(tiny_dataset, method, synthetic_count=60, seed=seed)
    least = 2 if method == "deerdann" else 1
    steps = 0
    for pair in paired_sampler(org, batch_size, seed=seed, epoch=seed):
        assert pair.routed_target_rows.size >= least
        steps += 1
    assert steps == (311 + 60) // batch_size + ((311 + 60) % batch_size > 1)


def test_epoch_covers_source_exactly_once(tiny_dataset):
    org = build_domains(tiny_dataset, "deercoral", synthetic_count=64)
    emitted = []
    for pair in paired_sampler(org, batch_size=32, seed=0, epoch=0):
        emitted.extend(pair.source.tolist())
    expected = sorted(org.source_indices.tolist())
    dropped = len(org.source_indices) % 32
    if dropped == 1:  # a single trailing sample is dropped
        assert len(emitted) == len(expected) - 1
    else:
        assert sorted(emitted) == expected


def test_sampler_deterministic_per_seed(tiny_dataset):
    org = build_domains(tiny_dataset, "deerdann", synthetic_count=50)

    def collect(seed):
        return [
            (pair.source.tolist(), pair.target.tolist())
            for pair in paired_sampler(org, batch_size=16, seed=seed, epoch=2)
        ]

    assert collect(5) == collect(5)
    assert collect(5) != collect(6)


def test_target_batches_match_source_size(tiny_dataset):
    org = build_domains(tiny_dataset, "alldann", synthetic_count=10)
    for pair in paired_sampler(org, batch_size=48, seed=1, epoch=0):
        assert pair.target.size == pair.source.size
        assert pair.routed_source_rows.size == pair.source.size  # alldann: all rows


def test_target_wraps_around_in_whole_reshuffled_passes(tiny_dataset):
    # |T| = 41 against |S| = 391: each block of |T| emitted target indices is
    # one shuffled pass over T, and blocks straddle batch boundaries
    org = build_domains(tiny_dataset, "deerdann", synthetic_count=80, oversample_factor=1)
    t = org.target_indices.size
    emitted = np.concatenate(
        [p.target for p in paired_sampler(org, batch_size=32, seed=0, epoch=0)]
    )
    assert emitted.size > 2 * t and emitted.size % 32 != 0 and t % 32 != 0
    passes = [emitted[i : i + t] for i in range(0, emitted.size - t + 1, t)]
    for block in passes:
        assert np.array_equal(np.sort(block), np.sort(org.target_indices))
    assert not np.array_equal(passes[0], passes[1])  # each pass is reshuffled


def test_short_final_batch_dropped(tiny_dataset):
    org = build_domains(tiny_dataset, "baseline", synthetic_count=0)
    n = org.source_indices.size
    batch = n - 1  # leaves a single-sample remainder
    sizes = [p.source.size for p in paired_sampler(org, batch, seed=0, epoch=0)]
    assert sizes == [batch]


def test_sampler_validates_inputs(tiny_dataset):
    org = build_domains(tiny_dataset, "deercoral", synthetic_count=0)
    with pytest.raises(ValueError, match="batch_size"):
        next(paired_sampler(org, batch_size=1, seed=0, epoch=0))
    org_empty = build_domains(tiny_dataset, "deercoral", synthetic_count=0)
    org_empty.target_indices = np.empty(0, dtype=np.int64)
    with pytest.raises(ValueError, match="non-empty target"):
        next(paired_sampler(org_empty, batch_size=8, seed=0, epoch=0))


def test_routed_rows_partition_batch(tiny_dataset):
    org = build_domains(tiny_dataset, "deerdann", synthetic_count=120)
    for pair in paired_sampler(org, batch_size=32, seed=7, epoch=0):
        routed = set(pair.routed_source_rows.tolist())
        rest = set(range(pair.source.size)) - routed
        for i in routed:
            assert tiny_dataset.class_ids[pair.source[i]] == org.rare_class_id
        for i in rest:
            assert tiny_dataset.class_ids[pair.source[i]] != org.rare_class_id


@pytest.mark.parametrize("method", METHODS)
def test_only_adversarial_methods_route_rows_on_either_side(tiny_dataset, method):
    org = build_domains(tiny_dataset, method, synthetic_count=80)
    rare = org.rare_class_id
    steps = 0
    for pair in paired_sampler(org, batch_size=32, seed=4, epoch=0):
        assert (pair.target is None) == (method == "baseline")
        sides = [(pair.source, pair.routed_source_rows)]
        if pair.target is None:
            assert pair.routed_target_rows.size == 0
        else:
            sides.append((pair.target, pair.routed_target_rows))
        for rows, routed in sides:
            expected = {
                "baseline": [],
                "deerdann": np.flatnonzero(tiny_dataset.class_ids[rows] == rare).tolist(),
                "alldann": list(range(rows.size)),
                "deercoral": [],
            }[method]
            assert routed.tolist() == expected
        steps += 1
    assert steps == 13  # one epoch: 311 train + 80 synthetic rows in batches of 32
