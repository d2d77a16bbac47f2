import numpy as np
import pytest

from raredapt import make_rng
from raredapt.numerics import softmax

from oracles import finite_diff_grad, relative_error


def test_softmax_uniform_row():
    out = softmax(np.zeros((1, 4)))
    assert np.allclose(out, 0.25, rtol=0, atol=1e-15)


def test_softmax_two_logit_analytic():
    for x in (-50.0, 0.0, 3.0):
        for c in (-2.0, 0.5, 4.0):
            out = softmax(np.array([[x, x + c]]))
            expected = np.array([1.0, np.exp(c)]) / (1.0 + np.exp(c))
            assert np.allclose(out, expected, rtol=0, atol=1e-12)


def test_softmax_large_logits_stable():
    out = softmax(np.array([[1000.0, 0.0]]))
    assert np.all(np.isfinite(out))
    assert out[0, 0] > 1.0 - 1e-12
    assert out[0, 1] < 1e-12


def test_softmax_rows_sum_to_one_and_shift_invariant():
    rng = make_rng(2)
    logits = rng.standard_normal((7, 5)) * 10
    out = softmax(logits)
    assert np.all(np.abs(out.sum(axis=1) - 1.0) < 1e-9)
    shifted = softmax(logits + rng.standard_normal((7, 1)) * 100)
    assert relative_error(out, shifted) < 1e-9


def test_finite_diff_linear_function():
    x = make_rng(3).standard_normal((3, 4))
    grad = finite_diff_grad(lambda m: float(m.sum()), x, 1e-4)
    assert np.allclose(grad, 1.0, rtol=0, atol=1e-9)


def test_finite_diff_squared_norm():
    grad = finite_diff_grad(lambda m: float((m * m).sum()), np.array([[1.0, 2.0]]), 1e-4)
    assert np.allclose(grad, [[2.0, 4.0]], rtol=0, atol=1e-7)


def test_finite_diff_quadratic_form_matches_analytic():
    rng = make_rng(4)
    a = rng.standard_normal((5, 5))
    a = a + a.T
    x = rng.standard_normal((5, 1))
    grad = finite_diff_grad(lambda v: float((v.T @ a @ v)[0, 0]), x, 1e-4)
    assert relative_error(grad, 2 * a @ x) < 1e-6


def test_finite_diff_rejects_bad_step():
    with pytest.raises(ValueError, match="positive"):
        finite_diff_grad(lambda m: 0.0, np.zeros((1, 1)), 0.0)


def test_finite_diff_rejects_non_finite_values():
    with pytest.raises(ValueError, match="non-finite"):
        finite_diff_grad(lambda m: float("inf"), np.zeros((2, 2)), 1e-4)


def test_rng_reproducible_and_stream_separated():
    a = make_rng(42).standard_normal(5)
    b = make_rng(42).standard_normal(5)
    c = make_rng(42, 1).standard_normal(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_rng_rejects_negative_seed():
    with pytest.raises(ValueError):
        make_rng(-1)


def test_relative_error_zero_for_identical_and_zero():
    assert relative_error(np.zeros((2, 2)), np.zeros((2, 2))) == 0.0
    x = np.array([[1.0, -2.0]])
    assert relative_error(x, x) == 0.0
