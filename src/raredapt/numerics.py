"""Dense float64 matrix helpers and seeded RNG streams.

Every matrix in this package is a plain 2-D ``numpy.ndarray`` with dtype
float64 in row-major order. :func:`as_matrix`, :func:`require_finite` and
:func:`require_field_types` are the validation helpers, and they run at the
boundaries, not inside the training step: a ``Dataset`` checks its features
when it is built, ``GenSpec`` and ``TrainConfig`` their fields, ``train`` the
labels once on entry, and ``evaluate`` its logits. The step itself runs on
arrays it made from those, so a NaN or Inf that arises inside it (overflow, a
corrupted input row) surfaces through the step's two whole-value checks: the
composite loss and the optimizer's gradient check (see
:mod:`raredapt.training`).
:func:`softmax_rows` validates its input for outside callers; the
cross-entropy loss uses the unchecked :func:`_softmax` core.

Randomness goes through :func:`make_rng`, which builds a PCG64 generator from
an integer seed plus optional integer stream keys. PCG64 is a documented fixed
algorithm, so identical seeds and call sequences reproduce bit-identical
streams on every platform.
"""

from __future__ import annotations

import functools
import math
import numbers
import typing

import numpy as np

_type_hints = functools.cache(typing.get_type_hints)  # evaluating annotations is slow


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


def _fits(value, hint) -> bool:
    if hint in (int, float):
        kind = numbers.Integral if hint is int else numbers.Real
        return isinstance(value, kind) and not isinstance(value, bool)
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple and args[1:] == (Ellipsis,):
        return isinstance(value, tuple) and all(_fits(v, args[0]) for v in value)
    if type(None) in args:  # X | None
        return value is None or _fits(value, args[0])
    return True


def require_field_types(obj) -> None:
    """Raise one ValueError naming each field of dataclass ``obj`` whose value
    does not fit its annotation: an integer for int, a real number for float
    (JSON writes ``1`` for ``1.0``), never a bool; each element for
    ``tuple[X, ...]``; also None for ``X | None``. Other annotations pass.
    Then raise one naming each field that holds a NaN or an infinity."""
    cls = type(obj)
    wrong = [
        f"{name} must be {cls.__annotations__[name]}, got {getattr(obj, name)!r}"
        for name, hint in _type_hints(cls).items()
        if not _fits(getattr(obj, name), hint)
    ]
    if wrong:
        raise ValueError("; ".join(wrong))
    non_finite = [name for name in _type_hints(cls)
                  if isinstance(v := getattr(obj, name), numbers.Real) and not math.isfinite(v)]
    if non_finite:
        raise ValueError(f"{', '.join(non_finite)} must be finite")


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
    return _softmax(logits)


def _softmax(logits: np.ndarray) -> np.ndarray:
    """:func:`softmax_rows` without its checks, for logits the network made."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)
