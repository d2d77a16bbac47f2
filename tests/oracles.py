"""Finite-difference gradient oracles for the test suite.

Every analytic gradient in ``raredapt`` is checked against these. They live
with the tests, not in the package: nothing in the library calls them.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


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
    x = np.asarray(x, dtype=np.float64)
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
