"""Detection-power guarantees and their empirical validation.

``delta_mu`` evaluates the mean-separation threshold: whenever the expected
residual spanning distance of some window length reaches it, the mean test
detects with probability at least 1 - beta.  ``delta_sigma`` is the analogous
threshold for the one-sided variance tests.  ``minimum_radius`` is the
complementary lower bound: below a separation of theta(alpha, beta) *
sqrt(n d) * sigma^2 no level-alpha test can reach power 1 - beta.

``empirical_power`` and the static study in :mod:`gsrdetect.simulate` run the
replication loop of Monte Carlo calibration (``calibration._replication_maxima``)
on ``_STATIC_BATCH`` 2n-windows at a time, each anchored on its own first row;
each keeps only its draw and its reduction of the ratios.

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

from .calibration import _replication_maxima, analytic_threshold_mu
from .distributions import FisherParams, _checked_seed, derived_rng, fisher_upper_quantile
from .windows import _half_length, _whole_number

__all__ = [
    "PowerQuery",
    "delta_mu",
    "delta_sigma",
    "minimum_radius",
    "residual_noncentrality",
    "shift_for_residual",
    "empirical_power",
]

_STATIC_BATCH = 512  # windows per kernel call in the static studies; bounds memory


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
        if self.n < 2:
            raise ValueError(f"window half-length must be at least 2, got {self.n}")
        if self.d < 1:
            raise ValueError(f"dimension must be at least 1, got {self.d}")
        for name, p in (("alpha", self.alpha), ("beta", self.beta)):
            if not (0.0 < p < 1.0):
                raise ValueError(f"{name} must be in (0, 1), got {p}")
        if self.sigma2 <= 0:
            raise ValueError(f"sigma2 must be positive, got {self.sigma2}")
        for name, v in (
            ("mean_left", self.mean_left),
            ("mean_right", self.mean_right),
            ("mean_residual", self.mean_residual),
        ):
            if v < 0:
                raise ValueError(f"{name} must be nonnegative, got {v}")


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
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if not (0.0 < beta < 1.0 - alpha):
        raise ValueError(f"beta must be in (0, 1 - alpha), got {beta}")
    if n < 1 or d < 1 or sigma2 <= 0:
        raise ValueError("n, d must be positive integers and sigma2 > 0")
    theta = math.sqrt(2.0 * math.log(1.0 + 4.0 * (1.0 - alpha - beta) ** 2))
    return theta * math.sqrt(n * d) * sigma2


def residual_noncentrality(n: int, shift, sigma: float = 1.0) -> float:
    """Expected residual separation of a mean shift aligned with the window midpoint.

    For halves with per-observation means differing by ``shift`` the residual
    spanning distance is (2 n sigma^2 times) a noncentral chi-square with
    noncentrality n ||shift||^2 / (2 sigma^2).
    """
    delta = np.atleast_1d(np.asarray(shift, dtype=float))
    return n * float(delta @ delta) / (2.0 * sigma * sigma)


def shift_for_residual(n: int, d: int, target: float, sigma: float = 1.0) -> np.ndarray:
    """Equal-coordinate mean shift whose residual noncentrality is ``target``."""
    if target < 0:
        raise ValueError("target noncentrality must be nonnegative")
    per_coord = sigma * math.sqrt(2.0 * target / (n * d))
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
    replications = _whole_number(replications, "replications")
    if replications < 100:
        raise ValueError(f"need at least 100 replications, got {replications}")
    if not 0 < sigma < math.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    n, d = _half_length(n), _whole_number(d, "dimension")
    if d < 1:
        raise ValueError(f"dimension must be at least 1, got {d}")
    delta = np.asarray(shift, dtype=float)
    if delta.shape not in ((), (1,), (d,)):
        raise ValueError(
            f"shift must be a scalar or a vector of length {d}, got shape {delta.shape}"
        )
    if not np.all(np.isfinite(delta)):
        raise ValueError("shift must be finite")
    rho = analytic_threshold_mu(n, d, alpha)
    rng = derived_rng(_checked_seed(seed), 0x90E6)
    def draw(lo, slots):
        y = rng.standard_normal(out=slots)
        y *= sigma
        y[:, n:, :] += delta

    batches = _replication_maxima(replications, 2 * n, d, (n,), _STATIC_BATCH, draw)
    return sum(int(np.count_nonzero(r[0] >= rho)) for r in batches) / replications
