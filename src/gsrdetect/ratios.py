"""Graph-spanning ratio statistics and their null distributions.

A warm window's spanning decomposition maps to three scalar test statistics:

* ``r_mu``       = w_full / (w_left + w_right), sensitive to a mean change at
  the window midpoint;
* ``r_sigma_plus``  = w_right / w_left, sensitive to a variance increase;
* ``r_sigma_minus`` = w_left / w_right, sensitive to a variance decrease.

For i.i.d. Gaussian data with covariance sigma^2 I the statistics are pivotal:
(r_mu - 2)(n - 1) is F(d, 2(n-1)d) distributed and r_sigma_+/- are
F((n-1)d, (n-1)d) distributed, independently of the unknown mean and variance.
A ratio with a zero denominator carries no two-sample evidence and is encoded
as ``None`` (degenerate) rather than raising.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import _checks
from .distributions import FisherParams, fisher_distribution
from .windows import SlidingStats, SpanningDecomposition

__all__ = [
    "StatKind",
    "GsrTriple",
    "compute_gsr",
    "sliding_gsr",
    "null_law_mu",
    "null_law_sigma",
    "effective_dof",
]


class StatKind(str, enum.Enum):
    """The three statistic families, in reporting order."""

    MU = "mu"
    SIGMA_PLUS = "sigma+"
    SIGMA_MINUS = "sigma-"

    def __str__(self) -> str:  # keep "mu" rather than "StatKind.MU" in output
        return self.value


@dataclass(frozen=True)
class GsrTriple:
    """The three ratio statistics at one candidate change time.

    A ``None`` field marks a degenerate ratio (zero denominator); degenerate
    ratios never trigger detections.  ``t_index`` is the candidate change time
    in stream coordinates (1-based position of the first right-half
    observation).
    """

    r_mu: float | None
    r_sigma_plus: float | None
    r_sigma_minus: float | None
    t_index: int

    def value_of(self, kind: StatKind) -> float | None:
        if kind is StatKind.MU:
            return self.r_mu
        if kind is StatKind.SIGMA_PLUS:
            return self.r_sigma_plus
        return self.r_sigma_minus


def compute_gsr(decomp: SpanningDecomposition, t: int) -> GsrTriple:
    """Map a warm window's spanning decomposition to its GSR triple."""
    w_left, w_right = decomp.w_left, decomp.w_right
    halves = w_left + w_right
    # Filled in place, as detector._build_events fills events: twice as fast as __init__.
    triple = object.__new__(GsrTriple)
    attrs = triple.__dict__
    attrs["r_mu"] = decomp.w_full / halves if halves > 0.0 else None
    attrs["r_sigma_plus"] = w_right / w_left if w_left > 0.0 else None
    attrs["r_sigma_minus"] = w_left / w_right if w_right > 0.0 else None
    attrs["t_index"] = t
    return triple


def sliding_gsr(stats: SlidingStats) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The GSR triple of every window in ``stats``, as arrays in :class:`StatKind` order.

    Degenerate ratios read ``-inf`` so they never reach a threshold; every
    other value is the same division :func:`compute_gsr` makes, bit for bit.
    """
    out = np.empty((len(StatKind), *stats.w_left.shape))
    return tuple(_gsr_into(stats.w_left, stats.w_right, stats.w_full, out))


def _gsr_into(w_left, w_right, w_full, out: np.ndarray) -> np.ndarray:
    """Write the GSR triple of the windows with these distances into ``out``, and return it.

    ``out`` has a leading axis of three, one row per :class:`StatKind` in order,
    over the distances' shape.  These are :func:`sliding_gsr`'s divisions.
    """
    pairs = ((w_full, w_left + w_right), (w_right, w_left), (w_left, w_right))
    out.fill(-np.inf)
    for ratio, (numer, denom) in zip(out, pairs):
        np.divide(numer, denom, out=ratio, where=denom > 0.0)
    return out


def null_law_mu(n: int, d: float):
    """Null law of (r_mu - 2) * (n - 1): a frozen F(d, 2(n-1)d) distribution.

    ``d`` may be fractional (effective degrees of freedom for unequal
    per-coordinate variances).
    """
    n = _checks.half_length(n)
    _checks.finite(d, "dimension", least=1)
    return fisher_distribution(FisherParams(d, 2 * (n - 1) * d))


def null_law_sigma(n: int, d: float):
    """Null law of r_sigma_+/-: a frozen F((n-1)d, (n-1)d) distribution."""
    n = _checks.half_length(n)
    _checks.finite(d, "dimension", least=1)
    k = (n - 1) * d
    return fisher_distribution(FisherParams(k, k))


def effective_dof(variances) -> float:
    """Welch-Satterthwaite effective dimension for unequal per-coordinate variances.

    For variances v_1..v_d returns (sum v_i)^2 / sum v_i^2, which lies in
    [1, d] and equals d exactly when all variances agree.
    """
    v = np.asarray(variances, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise ValueError("variances must be a nonempty vector")
    if np.any(v <= 0.0) or not np.all(np.isfinite(v)):
        raise ValueError("variances must be strictly positive and finite")
    total = float(v.sum())
    return total * total / float(v @ v)
