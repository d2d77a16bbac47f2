"""Dense float64 matrix helpers, config-field checks and seeded RNG streams.

Every matrix in this package is a plain 2-D ``numpy.ndarray`` with dtype
float64 in row-major order. :func:`require_finite` and :func:`require_fields`
are the validation helpers, and they run at the boundaries, not inside the
training step: a ``Dataset`` checks its features when it is built, ``GenSpec``
and ``TrainConfig`` their fields (each through one table of rules), ``train``
the labels once on entry, and ``evaluate`` its logits. The step itself runs on
arrays it made from those, so a NaN or Inf that arises inside it (overflow, a
corrupted input row) surfaces through the step's two whole-value checks: the
composite loss and the optimizer's gradient check (see
:mod:`raredapt.training`). :func:`softmax` is unchecked for the same reason:
its one caller, the cross-entropy loss, feeds it logits the network made.
:func:`json_tuples` gives a parsed JSON config or checkpoint header the
tuple form those checked fields hold.

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


def require_fields(obj, rules) -> None:
    """Check the fields of dataclass ``obj`` in three stages, each raising one
    ValueError that names every bad field it finds. Types: each value fits its
    annotation: an integer for int, a real number for float (JSON writes ``1``
    for ``1.0``), never a bool; each element for ``tuple[X, ...]``; also None
    for ``X | None``; other annotations pass. Then no NaN or infinity. Then
    each ``(text, ok, names)`` rule: ``ok(value)`` for every field in
    ``names``, or ``<name> must be <text>, got <value!r>``."""
    cls = type(obj)
    hints = _type_hints(cls)
    wrong = [f"{name} must be {cls.__annotations__[name]}, got {getattr(obj, name)!r}"
             for name, hint in hints.items() if not _fits(getattr(obj, name), hint)]
    if wrong:
        raise ValueError("; ".join(wrong))
    non_finite = [name for name in hints
                  if isinstance(v := getattr(obj, name), numbers.Real) and not math.isfinite(v)]
    if non_finite:
        raise ValueError(f"{', '.join(non_finite)} must be finite")
    out_of_range = [f"{name} must be {text}, got {getattr(obj, name)!r}"
                    for text, ok, names in rules for name in names if not ok(getattr(obj, name))]
    if out_of_range:
        raise ValueError("; ".join(out_of_range))


def json_tuples(value):
    """A parsed JSON value with every array as a tuple, the form the frozen
    dataclasses hold; objects keep their keys."""
    if isinstance(value, list):
        return tuple(json_tuples(v) for v in value)
    if isinstance(value, dict):
        return {key: json_tuples(v) for key, v in value.items()}
    return value


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, stabilized by subtracting each row's maximum.

    Rows of the result are positive and sum to 1 (within 1e-9); the output is
    invariant under adding a constant to a row. The input is not checked: it
    must be a finite 2-D float array. One n x k array is allocated, the
    result; the exponential and the normalisation run in place in it.
    """
    exp = logits - logits.max(axis=1, keepdims=True)
    np.exp(exp, out=exp)
    exp /= exp.sum(axis=1, keepdims=True)
    return exp
