"""Detection-power guarantees and their empirical validation.

``delta_mu`` evaluates the mean-separation threshold: whenever the expected
residual spanning distance of some window length reaches it, the mean test
detects with probability at least 1 - beta.  ``delta_sigma`` is the analogous
threshold for the one-sided variance tests.  ``minimum_radius`` is the
complementary lower bound: below a separation of theta(alpha, beta) *
sqrt(n d) * sigma^2 no level-alpha test can reach power 1 - beta.

``empirical_power`` and the static study in :mod:`gsrdetect.simulate` run the
replication loop of Monte Carlo calibration (``calibration._replication_maxima``)
on as many 2n-windows at a time as hold ``calibration._BATCH_VALUES`` values,
each anchored on its own first row; each keeps only its draw and its reduction
of the ratios.

Separations are expressed as noncentralities of the scaled chi-square laws of
the spanning distances.  For a pure mean shift of delta aligned with the
window midpoint the residual noncentrality is n * ||delta||^2 / (2 sigma^2)
while both half noncentralities vanish (a common within-half mean cancels in
every pairwise difference).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _checks
from .calibration import _replication_maxima, analytic_threshold_mu
from .distributions import FisherParams, derived_rng, fisher_upper_quantile

__all__ = [
    "PowerQuery",
    "delta_mu",
    "delta_sigma",
    "minimum_radius",
    "residual_noncentrality",
    "shift_for_residual",
    "empirical_power",
]

@dataclass(frozen=True)
class PowerQuery:
    """Inputs of one power-bound evaluation.

    ``mean_left``/``mean_right``/``mean_residual`` are the expected spanning
    separations (noncentrality parameters) of the two half graphs and of the
    residual term; they are zero for data whose mean is constant within each
    half.
    """

    n: int
    d: int
    alpha: float
    beta: float
    sigma2: float = 1.0
    mean_left: float = 0.0
    mean_right: float = 0.0
    mean_residual: float = 0.0

    def __post_init__(self):
        _checks.half_length(self.n)
        _checks.whole(self.d, "dimension", 1)
        _checks.level(self.alpha, "alpha")
        _checks.level(self.beta, "beta")
        _checks.positive(self.sigma2, "sigma2")
        _checks.finite(self.mean_left, "mean_left", least=0.0)
        _checks.finite(self.mean_right, "mean_right", least=0.0)
        _checks.finite(self.mean_residual, "mean_residual", least=0.0)


def delta_mu(query: PowerQuery) -> float:
    """Residual-separation threshold guaranteeing mean-test power >= 1 - beta.

    If the expected residual spanning distance satisfies
    ``mean_residual >= delta_mu`` for some configured window length, the
    pooled mean statistic exceeds its critical value with probability at
    least ``1 - beta``.
    """
    n_dof = float(query.d)
    d_dof = 2.0 * (query.n - 1) * query.d
    log_term = math.log(2.0 / query.beta)
    c1 = 5.0 * (n_dof / d_dof) * fisher_upper_quantile(FisherParams(n_dof, d_dof), query.alpha)
    c2 = (d_dof + 2.0 * math.sqrt(d_dof * log_term) + 4.0 * log_term) - 1.25 * (
        n_dof - 2.0 * math.sqrt(n_dof * log_term) - 10.0 * log_term
    )
    return c1 * (query.mean_left + query.mean_right + c2 * query.sigma2)


def delta_sigma(query: PowerQuery, direction: str) -> float:
    """Separation threshold guaranteeing variance-test power >= 1 - beta.

    ``direction="plus"`` bounds the expected spanning distance of the newer
    half needed to detect a variance increase given ``mean_left``;
    ``direction="minus"`` is the mirror image (older half given
    ``mean_right``).  Both halves have (n-1)d degrees of freedom.
    """
    if direction not in ("plus", "minus"):
        raise ValueError(f"direction must be 'plus' or 'minus', got {direction!r}")
    k = float((query.n - 1) * query.d)
    log_term = math.log(2.0 / query.beta)
    quantile = fisher_upper_quantile(FisherParams(k, k), query.alpha)
    c1 = 2.5 * quantile
    c2 = 1.25 * quantile * (
        k + 2.0 * math.sqrt(k * log_term) + 4.0 * log_term
    ) - 1.25 * (k - 2.0 * math.sqrt(k * log_term) - 10.0 * log_term)
    other = query.mean_left if direction == "plus" else query.mean_right
    return c1 * other + c2 * query.sigma2


def minimum_radius(n: int, d: int, alpha: float, beta: float, sigma2: float = 1.0) -> float:
    """Separation radius below which no level-alpha test attains power 1 - beta.

    Returns theta(alpha, beta) * sqrt(n d) * sigma^2 with
    theta = sqrt(2 log(1 + 4 (1 - alpha - beta)^2)).
    """
    n, d = _checks.whole(n, "n", 1), _checks.whole(d, "dimension", 1)
    alpha, sigma2 = _checks.level(alpha, "alpha"), _checks.positive(sigma2, "sigma2")
    if _checks.level(beta, "beta") >= 1.0 - alpha:
        raise ValueError(f"beta must be in (0, 1 - alpha), got {beta!r}")
    theta = math.sqrt(2.0 * math.log(1.0 + 4.0 * (1.0 - alpha - beta) ** 2))
    return theta * math.sqrt(n * d) * sigma2


def _finite_shift(shift) -> np.ndarray:
    """``shift`` as a float array, every coordinate finite."""
    delta = np.asarray(shift, dtype=float)
    if not np.all(np.isfinite(delta)):
        raise ValueError("shift must be finite")
    return delta


def residual_noncentrality(n: int, shift, sigma: float = 1.0) -> float:
    """Expected residual separation of a mean shift aligned with the window midpoint.

    For halves with per-observation means differing by ``shift`` the residual
    spanning distance is (2 n sigma^2 times) a noncentral chi-square with
    noncentrality n ||shift||^2 / (2 sigma^2).
    """
    n, sigma = _checks.half_length(n), _checks.positive(sigma, "sigma")
    delta = np.atleast_1d(_finite_shift(shift))
    return n * float(delta @ delta) / (2.0 * sigma * sigma)


def shift_for_residual(n: int, d: int, target: float, sigma: float = 1.0) -> np.ndarray:
    """Equal-coordinate mean shift whose residual noncentrality is ``target``."""
    n, d = _checks.half_length(n), _checks.whole(d, "dimension", 1)
    target = _checks.finite(target, "target", least=0.0)
    per_coord = _checks.positive(sigma, "sigma") * math.sqrt(2.0 * target / (n * d))
    return np.full(d, per_coord)


def empirical_power(
    n: int,
    d: int,
    alpha: float,
    shift,
    replications: int = 1000,
    seed: int = 0,
    sigma: float = 1.0,
) -> float:
    """Monte Carlo detection rate of the single-window mean test.

    Each replication draws a 2n-window whose newer half is mean-shifted by
    ``shift`` and tests the mean ratio against its analytic critical value at
    level ``alpha``.
    """
    replications = _checks.whole(replications, "replications", 100)
    sigma = _checks.positive(sigma, "sigma")
    n, d = _checks.half_length(n), _checks.whole(d, "dimension", 1)
    delta = _finite_shift(shift)
    if delta.shape not in ((), (1,), (d,)):
        raise ValueError(
            f"shift must be a scalar or a vector of length {d}, got shape {delta.shape}"
        )
    rho = analytic_threshold_mu(n, d, alpha)
    rng = derived_rng(_checks.seed(seed), 0x90E6)
    def draw(lo, slots):
        y = rng.standard_normal(out=slots)
        y *= sigma
        y[:, n:, :] += delta

    batches = _replication_maxima(replications, 2 * n, d, (n,), draw)
    return sum(int(np.count_nonzero(r[0] >= rho)) for r in batches) / replications
