"""Dense float64 matrix helpers, seeded RNG streams, and a finite-difference
gradient oracle.

Every matrix in this package is a plain 2-D ``numpy.ndarray`` with dtype
float64 in row-major order. The helpers here validate shapes and finiteness so
numerical corruption (overflow, NaN propagation) surfaces as an error close to
its origin instead of as silent garbage downstream.

Randomness goes through :func:`make_rng`, which builds a PCG64 generator from
an integer seed plus optional integer stream keys. PCG64 is a documented fixed
algorithm, so identical seeds and call sequences reproduce bit-identical
streams on every platform.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


def make_rng(seed: int, *stream_key: int) -> np.random.Generator:
    """Seeded PCG64 generator; extra integer keys derive independent streams."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, *stream_key])))


class NonFiniteError(ValueError):
    """An array that must be finite holds NaN or Inf."""


def require_finite(arr: np.ndarray, what: str) -> np.ndarray:
    """Raise NonFiniteError if ``arr`` contains NaN or Inf; returns ``arr`` unchanged."""
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"non-finite values in {what}")
    return arr


def as_matrix(arr, what: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float64 array, rejecting other ranks."""
    out = np.asarray(arr, dtype=np.float64)
    if out.ndim != 2:
        raise ValueError(f"{what} must be 2-D, got shape {out.shape}")
    return out


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product with explicit shape checking and a finite-output guarantee."""
    a = as_matrix(a, "left operand")
    b = as_matrix(b, "right operand")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul dimension mismatch: {a.shape} x {b.shape}")
    return require_finite(a @ b, "matmul output")


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, stabilized by subtracting each row's maximum.

    Rows of the result are positive and sum to 1 (within 1e-9); the output is
    invariant under adding a constant to a row.
    """
    logits = as_matrix(logits, "logits")
    n, k = logits.shape
    if n < 1 or k < 2:
        raise ValueError(f"softmax_rows needs n >= 1 and K >= 2, got shape {logits.shape}")
    require_finite(logits, "softmax input")
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def finite_diff_grad(
    f: Callable[[np.ndarray], float], x: np.ndarray, h: float = 1e-4
) -> np.ndarray:
    """Central-difference gradient of a scalar function of a matrix.

    Entry i is (f(x + h*e_i) - f(x - h*e_i)) / (2h). Used throughout the test
    suite as the independent oracle for analytic gradients; keep it free of any
    shortcuts shared with the code it validates.
    """
    if h <= 0:
        raise ValueError(f"step size h must be positive, got {h}")
    x = as_matrix(x, "finite_diff_grad input")
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + h
        f_plus = float(f(x))
        x[idx] = orig - h
        f_minus = float(f(x))
        x[idx] = orig
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise ValueError(f"non-finite function value while perturbing entry {idx}")
        grad[idx] = (f_plus - f_minus) / (2.0 * h)
    return grad


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius-norm relative discrepancy, ||a - b|| / max(||a||, ||b||).

    Returns 0 when both arrays are exactly zero. This is the error measure all
    gradient checks in the repo are stated in.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = max(np.linalg.norm(a), np.linalg.norm(b))
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(a - b) / denom)
