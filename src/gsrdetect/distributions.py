"""Distribution layer: chi-square / Fisher tails, Gaussian sampling, KS distance.

Quantiles are always *upper-tail*: ``fisher_upper_quantile(p, alpha)`` returns
the x with P(X >= x) = alpha, since every detection test in this package
rejects for large statistics.  Central quantiles are ``scipy.special.fdtri``
and ``chdtri``, the regularized incomplete beta/gamma inverses (CDF error well
below 1e-10) that ``scipy.stats``' ``f.isf`` and ``chi2.isf`` call, so they
equal those without their argument handling.  Noncentral chi-square upper
quantiles are replaced by an explicit closed-form upper bound and flagged as
such; the power bounds that need them are stated in terms of this bound, not
of the exact quantile.  scipy is imported on first use, so a caller that needs
no law (a threshold table, a Monte Carlo calibration) loads none of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import _checks

__all__ = [
    "FisherParams",
    "ChiSquareParams",
    "TailValue",
    "fisher_upper_quantile",
    "fisher_distribution",
    "chi2_upper_quantile",
    "chi2_quantile_upper_bound",
    "gaussian_sample",
    "derived_rng",
    "ks_statistic",
]


@dataclass(frozen=True)
class FisherParams:
    """Degrees of freedom of an F distribution (both strictly positive)."""

    df_num: float
    df_den: float

    def __post_init__(self):
        _checks.positive(self.df_num, "df_num")
        _checks.positive(self.df_den, "df_den")


@dataclass(frozen=True)
class ChiSquareParams:
    """Chi-square degrees of freedom, optionally with a noncentrality parameter."""

    df: float
    noncentrality: float = 0.0

    def __post_init__(self):
        _checks.positive(self.df, "df")
        _checks.finite(self.noncentrality, "noncentrality", least=0.0)


@dataclass(frozen=True)
class TailValue:
    """An upper-tail critical value; ``is_bound`` marks a bound rather than a quantile."""

    value: float
    is_bound: bool = False


def fisher_distribution(params: FisherParams):
    """Frozen scipy F distribution for the given degrees of freedom."""
    from scipy import stats
    return stats.f(params.df_num, params.df_den)


def fisher_upper_quantile(params: FisherParams, alpha: float) -> float:
    """x with P(F_{df_num, df_den} >= x) = alpha."""
    from scipy import special
    alpha = _checks.level(alpha, "alpha")
    return float(special.fdtri(params.df_num, params.df_den, 1.0 - alpha))


def chi2_quantile_upper_bound(params: ChiSquareParams, alpha: float) -> float:
    """Closed-form upper bound on the upper-alpha quantile of a (non)central chi-square.

    For df D, noncentrality a and tail mass u the bound is
    D + a + 2 sqrt((D + 2a) log(1/u)) + 2 log(1/u).
    """
    u = _checks.level(alpha, "alpha")
    d, a = params.df, params.noncentrality
    log_term = math.log(1.0 / u)
    return d + a + 2.0 * math.sqrt((d + 2.0 * a) * log_term) + 2.0 * log_term


def chi2_upper_quantile(params: ChiSquareParams, alpha: float) -> TailValue:
    """Upper-alpha critical value of a chi-square distribution.

    Central case: the exact quantile.  Noncentral case: the closed-form upper
    bound from :func:`chi2_quantile_upper_bound`, flagged with
    ``is_bound=True``.
    """
    alpha = _checks.level(alpha, "alpha")
    if params.noncentrality == 0.0:
        from scipy import special
        return TailValue(float(special.chdtri(params.df, alpha)), is_bound=False)
    return TailValue(chi2_quantile_upper_bound(params, alpha), is_bound=True)


def derived_rng(seed: int, *stream: int) -> np.random.Generator:
    """Deterministic generator for (seed, substream...) index tuples.

    Independent substreams derived this way can be drawn in any order (or in
    parallel) with results identical to sequential execution.  The seed is not
    checked here, as this runs once per replication: the entry points check
    their seeds once, as whole numbers of at least 0.
    """
    return np.random.default_rng((int(seed),) + tuple(int(s) for s in stream))


def gaussian_sample(mean, scale, count: int, seed: int) -> np.ndarray:
    """Draw ``count`` i.i.d. Gaussian d-vectors, deterministically from ``seed``.

    Parameters
    ----------
    mean : scalar or (d,) array
        Per-coordinate mean; its length fixes the dimension d.
    scale : positive scalar or (d,) array
        Per-coordinate standard deviation.
    count : int
        Number of observations to draw.
    seed : int
        Seed; equal seeds give identical output.

    Returns
    -------
    (count, d) ndarray
    """
    count, seed = _checks.whole(count, "count", 1), _checks.seed(seed)
    mu = np.atleast_1d(np.asarray(mean, dtype=float))
    if mu.ndim != 1:
        raise ValueError("mean must be a scalar or a vector")
    sd = np.broadcast_to(np.asarray(scale, dtype=float), mu.shape)
    if np.any(sd <= 0.0) or not np.all(np.isfinite(sd)):
        raise ValueError("scale must be strictly positive and finite")
    if not np.all(np.isfinite(mu)):
        raise ValueError("mean must be finite")
    rng = derived_rng(seed)
    return mu + sd * rng.standard_normal((count, mu.shape[0]))


def ks_statistic(samples: Sequence[float], cdf) -> float:
    """Kolmogorov-Smirnov sup distance between a sample and a reference CDF.

    ``cdf`` may be a callable or any object with a ``.cdf`` method (e.g. a
    frozen scipy distribution).
    """
    x = np.sort(np.asarray(samples, dtype=float))
    m = x.shape[0]
    if m < 2:
        raise ValueError("KS statistic needs at least 2 samples")
    fn: Callable[[np.ndarray], np.ndarray] = cdf.cdf if hasattr(cdf, "cdf") else cdf
    f = np.asarray(fn(x), dtype=float)
    grid = np.arange(1, m + 1) / m
    return float(max(np.max(grid - f), np.max(f - (grid - 1.0 / m))))
