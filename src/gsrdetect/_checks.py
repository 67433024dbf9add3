"""The argument rules of every public entry point, each written once.

A rule returns the checked value in the type the caller computes with, or
raises ``error`` (``ValueError``, or a subclass the caller names) with a
message that names the argument.  A boolean is never a number here.  Entry
points check their arguments once, so no rule runs per step, replication or
draw.  This module imports nothing from the package.
"""

from __future__ import annotations

import math
import numbers

import numpy as np


# Types accepted on sight: an isinstance test against the numbers ABCs costs
# about 0.4 µs, which the dozens of checks of a set-up would add up.
_INTEGERS = frozenset({int, np.int64})
_REALS = _INTEGERS | {float, np.float64}


def is_real(value) -> bool:
    """Whether ``value`` is a real number, and not a boolean."""
    return type(value) in _REALS or (
        isinstance(value, numbers.Real) and not isinstance(value, (bool, np.bool_))
    )


def is_whole(value) -> bool:
    """Whether ``value`` is a whole number, and not a boolean."""
    return type(value) in _INTEGERS or (
        is_real(value) and (isinstance(value, numbers.Integral) or float(value).is_integer())
    )


def whole(value, name: str, least: int | None = None, error=ValueError) -> int:
    """``value`` as an int: a whole number, of at least ``least`` when given."""
    if not is_whole(value):
        raise error(f"{name} must be a whole number, got {value!r}")
    if least is not None and value < least:
        raise error(f"{name} must be at least {least}, got {value!r}")
    return int(value)


def half_length(value, error=ValueError) -> int:
    """``value`` as a window half-length: a whole number of at least 2."""
    if whole(value, "window half-length", error=error) < 2:
        raise error("window half-length must be at least 2")
    return int(value)


def half_lengths(values, error=ValueError) -> tuple[int, ...]:
    """``values`` as a tuple of window half-lengths: at least one, none repeated."""
    lengths = tuple([half_length(n, error) for n in values])
    if not lengths:
        raise error("at least one window half-length is required")
    if len(set(lengths)) != len(lengths):
        raise error(f"window lengths must be distinct, got {lengths!r}")
    return lengths


def seed(value, error=ValueError) -> int:
    """``value`` as a seed for ``derived_rng``: a nonnegative whole number."""
    if whole(value, "seed", error=error) < 0:
        raise error(f"seed must be nonnegative, got {value!r}")
    return int(value)


def _as_real(value) -> float:
    """``value`` as a float, or NaN, which fails every rule below, when it is not a real number."""
    return float(value) if type(value) in _REALS or is_real(value) else math.nan


def level(value, name, error=ValueError) -> float:
    """``value`` as a float strictly between 0 and 1: a significance level or a miss rate.

    ``name`` is a string, or a function returning one that only a failure calls.
    """
    x = _as_real(value)
    if not 0.0 < x < 1.0:
        raise error(f"{name() if callable(name) else name} not in (0, 1): {value!r}")
    return x


def positive(value, name: str, error=ValueError) -> float:
    """``value`` as a positive finite float: a scale, a variance or degrees of freedom."""
    x = _as_real(value)
    if not 0.0 < x < math.inf:
        raise error(f"{name} must be positive and finite, got {value!r}")
    return x


def finite(value, name: str, least: float = -math.inf, error=ValueError) -> float:
    """``value`` as a finite float, of at least ``least`` when given."""
    x = _as_real(value)
    if not (math.isfinite(x) and x >= least):
        bound = "" if least == -math.inf else f" and at least {least}"
        raise error(f"{name} must be finite{bound}, got {value!r}")
    return x
