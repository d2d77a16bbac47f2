import numpy as np
import pytest

from raredapt import (
    coral_loss,
    covariance,
    cross_entropy,
    domain_confusion,
    make_rng,
)

from oracles import finite_diff_grad, relative_error


def covariance_oracle(batch):
    """Two-pass mean-subtracted estimator."""
    centered = batch - batch.mean(axis=0)
    return centered.T @ centered / (batch.shape[0] - 1)


def test_cross_entropy_uniform_logits():
    loss = cross_entropy(np.zeros((3, 4)), [0, 1, 2])
    assert abs(loss.value - np.log(4)) < 1e-12


def test_cross_entropy_vanishes_with_margin():
    values = []
    for margin in (1.0, 10.0, 100.0):
        logits = np.zeros((1, 3))
        logits[0, 1] = margin
        values.append(cross_entropy(logits, [1]).value)
    assert values[0] > values[1] > values[2]
    assert values[2] < 1e-12


def test_cross_entropy_rejects_bad_label():
    with pytest.raises(ValueError, match="out of range"):
        cross_entropy(np.zeros((2, 3)), [0, 3])


@pytest.mark.parametrize("labels", [[0.5, 2.9], [0.0, 1.0], [True, False],
                                    np.array([1, 0], dtype=object)])
def test_cross_entropy_rejects_labels_that_are_not_integers(labels):
    # a cast would score [0.5, 2.9] as [0, 2] and bools as 0/1
    with pytest.raises(ValueError, match="^labels must be integers, got dtype "):
        cross_entropy(np.zeros((2, 3)), labels)


def test_cross_entropy_takes_labels_of_any_integer_dtype():
    logits = make_rng(3).standard_normal((3, 4))
    want = cross_entropy(logits, [3, 0, 2])
    for dtype in (np.int64, np.int32, np.uint8):
        got = cross_entropy(logits, np.array([3, 0, 2], dtype=dtype))
        assert got.value == want.value
        assert np.array_equal(got.dlogits, want.dlogits)


def test_cross_entropy_gradient_matches_finite_differences():
    rng = make_rng(10)
    for _ in range(10):
        n, k = int(rng.integers(2, 8)), int(rng.integers(2, 6))
        logits = rng.standard_normal((n, k))
        labels = rng.integers(0, k, n)
        analytic = cross_entropy(logits, labels).dlogits
        fd = finite_diff_grad(lambda m: cross_entropy(m, labels).value, logits.copy(), 1e-4)
        assert relative_error(analytic, fd) < 1e-4


def test_domain_confusion_confident_and_uniform():
    confident = np.array([[20.0, -20.0], [-20.0, 20.0]])
    assert domain_confusion(confident, [0, 1]).value < 1e-8
    uniform = np.zeros((4, 2))
    assert abs(domain_confusion(uniform, [0, 1, 0, 1]).value - np.log(2)) < 1e-12


def test_domain_confusion_rejects_empty_batch():
    with pytest.raises(ValueError, match="empty"):
        domain_confusion(np.zeros((0, 2)), [])


def test_domain_confusion_rejects_bad_labels():
    with pytest.raises(ValueError):
        domain_confusion(np.zeros((1, 2)), [2])


def test_domain_confusion_gradient_matches_finite_differences():
    rng = make_rng(11)
    logits = rng.standard_normal((6, 2))
    labels = rng.integers(0, 2, 6)
    analytic = domain_confusion(logits, labels).dlogits
    fd = finite_diff_grad(lambda m: domain_confusion(m, labels).value, logits.copy(), 1e-4)
    assert relative_error(analytic, fd) < 1e-4


def test_covariance_hand_example():
    cov = covariance(np.array([[1.0, 0.0], [3.0, 0.0]]))
    assert np.allclose(cov, [[2.0, 0.0], [0.0, 0.0]], rtol=0, atol=1e-14)


def test_covariance_identical_rows_is_zero():
    cov = covariance(np.tile([2.0, -1.0, 3.0], (5, 1)))
    assert np.allclose(cov, 0.0, rtol=0, atol=1e-12)


def test_covariance_matches_two_pass_oracle():
    batch = make_rng(12).standard_normal((7, 4))
    assert np.allclose(covariance(batch), covariance_oracle(batch), rtol=0, atol=1e-10)


def test_covariance_symmetric_psd():
    batch = make_rng(13).standard_normal((9, 5)) * 3
    cov = covariance(batch)
    assert np.allclose(cov, cov.T, rtol=0, atol=1e-10)
    assert np.linalg.eigvalsh(cov).min() > -1e-10


def test_covariance_rejects_single_row():
    with pytest.raises(ValueError, match="at least 2"):
        covariance(np.ones((1, 3)))


def test_coral_identical_batches_zero():
    batch = make_rng(14).standard_normal((6, 3))
    assert coral_loss(batch, batch.copy()).value <= 1e-12


def test_coral_one_dim_hand_value():
    # source cov 2, target cov 0, d=1: (1/4) * (2-0)^2 = 1.0
    value = coral_loss(np.array([[0.0], [2.0]]), np.array([[0.0], [0.0]])).value
    assert abs(value - 1.0) < 1e-12


def test_coral_row_permutation_invariant():
    rng = make_rng(15)
    src = rng.standard_normal((7, 4))
    tgt = rng.standard_normal((5, 4))
    base = coral_loss(src, tgt).value
    assert abs(coral_loss(src[rng.permutation(7)], tgt).value - base) <= 1e-12
    assert abs(coral_loss(src, tgt[rng.permutation(5)]).value - base) <= 1e-12


def test_coral_translation_invariant():
    rng = make_rng(16)
    src = rng.standard_normal((6, 3))
    tgt = rng.standard_normal((8, 3))
    base = coral_loss(src, tgt).value
    shifted = coral_loss(src + rng.standard_normal(3), tgt).value
    assert abs(shifted - base) <= 1e-12


def test_coral_symmetric_in_swap():
    rng = make_rng(17)
    src = rng.standard_normal((6, 3))
    tgt = rng.standard_normal((4, 3))
    assert abs(coral_loss(src, tgt).value - coral_loss(tgt, src).value) <= 1e-15


def test_coral_gradients_match_finite_differences():
    rng = make_rng(18)
    for _ in range(10):
        n_s, n_t = int(rng.integers(2, 8)), int(rng.integers(2, 8))
        d = int(rng.integers(1, 5))
        src = rng.standard_normal((n_s, d))
        tgt = rng.standard_normal((n_t, d))
        out = coral_loss(src, tgt)
        fd_src = finite_diff_grad(lambda m: coral_loss(m, tgt).value, src.copy(), 1e-4)
        fd_tgt = finite_diff_grad(lambda m: coral_loss(src, m).value, tgt.copy(), 1e-4)
        assert relative_error(out.d_source, fd_src) < 1e-4
        assert relative_error(out.d_target, fd_tgt) < 1e-4


def test_coral_rejects_dimension_mismatch_and_tiny_batches():
    with pytest.raises(ValueError, match="mismatch"):
        coral_loss(np.zeros((3, 2)), np.zeros((3, 3)))
    with pytest.raises(ValueError, match=">= 2"):
        coral_loss(np.zeros((1, 2)), np.zeros((3, 2)))

