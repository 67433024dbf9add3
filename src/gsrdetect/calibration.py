"""Detection-threshold calibration.

Monte Carlo path: simulate K replications of a length-N Gaussian sequence,
scan every candidate time of the zone {n+1, ..., N-n+1} with each window
length, record the per-replication maximum of each ratio statistic, and take
the empirical upper quantile of the K maxima.  Scanning the maximum over the
zone absorbs the dependence between overlapping windows that a single-point
quantile would ignore.  Replication k is drawn from the generator derived from
(seed, k), whatever the batching; batches of replications go through the
batch kernel together, one prefix pass per block for every window length.

Analytic path: single-point critical values from the pivotal F laws,
  mean:     rho = F^{-1}(alpha; d, 2(n-1)d) / (n-1) + 2
  variance: rho = F^{-1}(alpha; (n-1)d, (n-1)d)

Thresholds are pivotal: they depend only on (n, d, alpha), never on the
unknown mean/variance of the monitored data.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .distributions import FisherParams, derived_rng, fisher_upper_quantile
from .ratios import StatKind, sliding_gsr
from . import windows

__all__ = [
    "CalibrationError",
    "CalibrationConfig",
    "ThresholdEntry",
    "ThresholdTable",
    "calibrate_monte_carlo",
    "analytic_threshold_mu",
    "analytic_threshold_sigma",
    "analytic_table",
    "empirical_upper_quantile",
    "bootstrap_quantile_se",
]

TABLE_FORMAT_VERSION = 1

DEFAULT_REPLICATIONS = 2000


class CalibrationError(ValueError):
    """Calibration cannot produce the requested thresholds."""


def _quantile_index(count: int, alpha: float) -> int:
    """1-based order-statistic index ceil((1 - alpha) * count), computed robustly.

    Raises when count * alpha < 1, i.e. when the tail is not resolvable from
    ``count`` replications.
    """
    tail = alpha * count
    if tail < 1.0 - 1e-9:
        raise CalibrationError(
            f"quantile unresolvable: alpha={alpha} needs more than {count} replications"
        )
    return count - int(math.floor(tail + 1e-9))


def empirical_upper_quantile(values, alpha: float) -> float:
    """Conservative empirical upper-alpha quantile (order statistic, no interpolation)."""
    v = np.asarray(values, dtype=float)
    k = _quantile_index(v.size, alpha)
    k = max(k, 1)
    return float(np.partition(v, k - 1)[k - 1])


def bootstrap_quantile_se(values, alpha: float, resamples: int = 500, seed: int = 0) -> float:
    """Bootstrap standard error of :func:`empirical_upper_quantile`."""
    v = np.asarray(values, dtype=float)
    rng = derived_rng(seed, 0xB007)
    estimates = np.empty(resamples)
    for b in range(resamples):
        estimates[b] = empirical_upper_quantile(rng.choice(v, size=v.size, replace=True), alpha)
    return float(estimates.std(ddof=1))


@dataclass(frozen=True)
class CalibrationConfig:
    """Inputs of one Monte Carlo calibration run.

    ``alphas`` maps (statistic kind, window half-length) to the per-test
    significance level.  ``base_mean``/``base_scale`` set the simulated
    Gaussian law; by pivotality the resulting thresholds do not depend on
    them, and the defaults (standard normal) are what production runs use.
    """

    window_lengths: tuple[int, ...]
    dimension: int
    alphas: Mapping[tuple[StatKind, int], float]
    zone_length: int | None = None
    replications: int = DEFAULT_REPLICATIONS
    seed: int = 0
    base_mean: float = 0.0
    base_scale: float = 1.0

    def __post_init__(self):
        # Whole floats become ints, as the batch shapes need; validate() rejects the rest.
        if all(map(windows._is_whole, self.window_lengths)):
            object.__setattr__(self, "window_lengths", tuple(map(int, self.window_lengths)))
        if windows._is_whole(self.dimension):
            object.__setattr__(self, "dimension", int(self.dimension))

    def resolved_zone_length(self) -> int:
        return self.zone_length if self.zone_length is not None else 6 * max(self.window_lengths)

    def validate(self) -> None:
        if not self.window_lengths:
            raise CalibrationError("no window lengths given")
        for n in self.window_lengths:
            windows._half_length(n, CalibrationError)
        if len(set(self.window_lengths)) != len(self.window_lengths):
            raise CalibrationError("duplicate window lengths")
        if windows._whole_number(self.dimension, "dimension", CalibrationError) < 1:
            raise CalibrationError(f"dimension must be at least 1, got {self.dimension}")
        if self.replications < 1:
            raise CalibrationError("need at least one replication")
        n_max = max(self.window_lengths)
        zone = self.resolved_zone_length()
        if zone < 2 * n_max:
            raise CalibrationError(
                f"zone length {zone} shorter than the largest window 2x{n_max}"
            )
        if self.base_scale <= 0:
            raise CalibrationError("base_scale must be positive")
        for n in self.window_lengths:
            for kind in StatKind:
                alpha = self.alphas.get((kind, n))
                if alpha is None:
                    raise CalibrationError(f"missing alpha for ({kind}, n={n})")
                if not (0.0 < alpha < 1.0):
                    raise CalibrationError(f"alpha for ({kind}, n={n}) not in (0, 1): {alpha}")
                _quantile_index(self.replications, alpha)


@dataclass(frozen=True)
class ThresholdEntry:
    kind: StatKind
    n: int
    alpha: float
    rho: float
    provenance: str  # "monte_carlo" | "analytic"


@dataclass(frozen=True)
class ThresholdTable:
    """Calibrated critical values, keyed by (statistic kind, window half-length)."""

    dimension: int
    entries: tuple[ThresholdEntry, ...]
    seed: int | None = None
    replications: int | None = None
    zone_length: int | None = None
    _index: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        index = {(e.kind, e.n): e for e in self.entries}
        if len(index) != len(self.entries):
            raise ValueError("duplicate (kind, n) entries in threshold table")
        object.__setattr__(self, "_index", index)

    @property
    def window_lengths(self) -> tuple[int, ...]:
        return tuple(sorted({e.n for e in self.entries}))

    def entry(self, kind: StatKind, n: int) -> ThresholdEntry:
        try:
            return self._index[(kind, n)]
        except KeyError:
            raise KeyError(f"no threshold for ({kind}, n={n})") from None

    def threshold(self, kind: StatKind, n: int) -> float:
        return self.entry(kind, n).rho

    def to_json(self) -> str:
        doc = {
            "version": TABLE_FORMAT_VERSION,
            "dimension": self.dimension,
            "seed": self.seed,
            "K": self.replications,
            "N": self.zone_length,
            "entries": [
                {
                    "kind": e.kind.value,
                    "n": e.n,
                    "alpha": e.alpha,
                    "rho": e.rho,
                    "provenance": e.provenance,
                }
                for e in self.entries
            ],
        }
        return json.dumps(doc, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ThresholdTable":
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("threshold table must be a JSON object")
        version = doc.get("version")
        if version != TABLE_FORMAT_VERSION:
            raise ValueError(f"unsupported threshold-table version: {version!r}")
        try:
            entries = tuple(
                ThresholdEntry(
                    kind=StatKind(e["kind"]),
                    n=int(_json_number(e["n"], "n", least=2)),
                    alpha=float(_json_number(e["alpha"], "alpha")),
                    rho=float(_json_number(e["rho"], "rho")),
                    provenance=str(e["provenance"]),
                )
                for e in doc["entries"]
            )
            dimension = int(_json_number(doc["dimension"], "dimension", least=1))
        except KeyError as exc:
            raise ValueError(f"threshold table lacks the field {exc.args[0]!r}") from None
        except TypeError as exc:
            raise ValueError(f"threshold table has a field of the wrong type: {exc}") from None
        for e in entries:
            if not math.isfinite(e.rho):
                raise ValueError(f"threshold for ({e.kind}, n={e.n}) is not finite: {e.rho}")
        return cls(
            dimension=dimension,
            entries=entries,
            seed=doc.get("seed"),
            replications=doc.get("K"),
            zone_length=doc.get("N"),
        )


def _json_number(value, name: str, least: int | None = None):
    """A number read from a threshold table, a whole one of at least ``least`` if given.

    Booleans and strings are rejected rather than coerced.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"threshold table has a field of the wrong type: {name} is {value!r}")
    fractional = isinstance(value, float) and not value.is_integer()
    if least is not None and (fractional or value < least):
        raise ValueError(
            f"threshold table's {name} must be a whole number of at least {least}, got {value!r}"
        )
    return value


def _entry_order(window_lengths: Iterable[int]):
    for kind in StatKind:
        for n in sorted(window_lengths):
            yield kind, n


def calibration_maxima(config: CalibrationConfig) -> dict[tuple[StatKind, int], np.ndarray]:
    """Per-replication zone maxima of every statistic, keyed by (kind, n).

    The building block of :func:`calibrate_monte_carlo`, exposed separately so
    uncertainty estimates (bootstrap standard errors of the thresholds) can be
    computed from the same maxima.  Replication k draws its Gaussian sequence
    from the generator derived from (seed, k), so the result is independent of
    replication order and reproducible run to run.  Replications are scanned
    in batches of about one kernel block of rows, every window length on one
    prefix pass per block; each maximum equals a scan of its sequence alone,
    bit for bit.  Each replication is drawn, scaled and shifted in place in a
    contiguous slot of one replication-first array, which the kernel reads
    through a rows-first view.
    """
    config.validate()
    lengths = tuple(sorted(config.window_lengths))
    n_zone, dim = config.resolved_zone_length(), config.dimension
    k_reps = config.replications
    maxima = {key: np.empty(k_reps) for key in _entry_order(lengths)}

    batch = max(1, windows._BLOCK // n_zone)
    draws = np.empty((min(batch, k_reps), n_zone, dim))  # one contiguous slot per replication
    ys = draws.swapaxes(0, 1)  # rows first, as the kernel takes
    buffers = windows._scan_buffers(ys.shape, lengths)
    for lo in range(0, k_reps, batch):
        reps = range(lo, min(lo + batch, k_reps))
        for j, k in enumerate(reps):
            # base_mean + base_scale * z, bit for bit, without temporaries
            z = derived_rng(config.seed, k).standard_normal(out=draws[j])
            z *= config.base_scale
            z += config.base_mean
        # A short last batch scans the previous batch's sequences too, and drops them.
        stats = windows._window_scan(ys, lengths, buffers)
        for j, n in enumerate(lengths):
            for kind, r in zip(StatKind, sliding_gsr(windows._column(stats, j, n))):
                maxima[(kind, n)][lo : lo + len(reps)] = r.max(axis=0)[: len(reps)]
    return maxima


def calibrate_monte_carlo(config: CalibrationConfig) -> ThresholdTable:
    """Estimate max-over-zone thresholds by Monte Carlo simulation."""
    maxima = calibration_maxima(config)
    entries = []
    for kind, n in _entry_order(config.window_lengths):
        alpha = config.alphas[(kind, n)]
        rho = empirical_upper_quantile(maxima[(kind, n)], alpha)
        entries.append(
            ThresholdEntry(kind=kind, n=n, alpha=alpha, rho=rho, provenance="monte_carlo")
        )
    return ThresholdTable(
        dimension=config.dimension,
        entries=tuple(entries),
        seed=config.seed,
        replications=config.replications,
        zone_length=config.resolved_zone_length(),
    )


def analytic_threshold_mu(n: int, d: float, alpha: float) -> float:
    """Single-point critical value for the mean ratio at level alpha."""
    if n < 2:
        raise ValueError(f"window half-length must be at least 2, got {n}")
    q = fisher_upper_quantile(FisherParams(d, 2 * (n - 1) * d), alpha)
    return q / (n - 1) + 2.0


def analytic_threshold_sigma(n: int, d: float, alpha: float) -> float:
    """Single-point critical value for either variance ratio at level alpha."""
    if n < 2:
        raise ValueError(f"window half-length must be at least 2, got {n}")
    k = (n - 1) * d
    return fisher_upper_quantile(FisherParams(k, k), alpha)


def analytic_table(
    window_lengths: Iterable[int],
    dimension: int,
    alphas: Mapping[tuple[StatKind, int], float],
) -> ThresholdTable:
    """Threshold table built from the analytic single-point critical values."""
    windows = tuple(sorted(window_lengths))
    entries = []
    for kind, n in _entry_order(windows):
        alpha = alphas[(kind, n)]
        if kind is StatKind.MU:
            rho = analytic_threshold_mu(n, dimension, alpha)
        else:
            rho = analytic_threshold_sigma(n, dimension, alpha)
        entries.append(ThresholdEntry(kind=kind, n=n, alpha=alpha, rho=rho, provenance="analytic"))
    return ThresholdTable(dimension=dimension, entries=tuple(entries))
