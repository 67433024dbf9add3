"""Detection-threshold calibration.

Monte Carlo path: simulate K replications of a length-N Gaussian sequence,
scan every candidate time of the zone {n+1, ..., N-n+1} with each window
length, record the per-replication maximum of each ratio statistic, and take
the empirical upper quantile of the K maxima.  Scanning the maximum over the
zone absorbs the dependence between overlapping windows that a single-point
quantile would ignore.  Replication k is drawn from the generator derived from
(seed, k), whatever the batching; batches of replications, each holding
about ``_BATCH_VALUES`` values, go through the batch kernel together, one
prefix pass per block for every window length, and on more than one CPU each
batch is scanned while a helper thread draws the next.

Analytic path: single-point critical values from the pivotal F laws,
  mean:     rho = F^{-1}(alpha; d, 2(n-1)d) / (n-1) + 2
  variance: rho = F^{-1}(alpha; (n-1)d, (n-1)d)

Thresholds are pivotal: they depend only on (n, d, alpha), never on the
unknown mean/variance of the monitored data.
"""

from __future__ import annotations

import contextvars
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from . import _checks, windows
from .distributions import FisherParams, derived_rng, fisher_upper_quantile
from .ratios import StatKind, _gsr_into

__all__ = [
    "CalibrationError",
    "CalibrationConfig",
    "ThresholdEntry",
    "ThresholdTable",
    "calibrate_monte_carlo",
    "calibration_maxima",
    "analytic_threshold_mu",
    "analytic_threshold_sigma",
    "analytic_table",
    "empirical_upper_quantile",
    "bootstrap_quantile_se",
]

TABLE_FORMAT_VERSION = 1

DEFAULT_REPLICATIONS = 2000

# Values per replication batch (see _replication_maxima).  Against 2^17,
# in alternating in-process runs on a 2-CPU host: 2^16 took 1.02-1.32x the
# time of a d=8 calibration (K=2000, zone 100) and 1.04x of the 18 power cells;
# 2^18 took 0.90-0.92x of the calibration but 1.12x of the power cells.
_BATCH_VALUES = 2**17


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
    k = _quantile_index(v.size, _checks.level(alpha, "alpha"))
    k = max(k, 1)
    return float(np.partition(v, k - 1)[k - 1])


def bootstrap_quantile_se(values, alpha: float, resamples: int = 500, seed: int = 0) -> float:
    """Bootstrap standard error of :func:`empirical_upper_quantile`."""
    resamples = _checks.whole(resamples, "resamples", 2)
    v = np.asarray(values, dtype=float)
    rng = derived_rng(_checks.seed(seed), 0xB007)
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
        if all(map(_checks.is_whole, self.window_lengths)):
            object.__setattr__(self, "window_lengths", tuple(map(int, self.window_lengths)))
        for name in ("dimension", "zone_length", "replications", "seed"):
            if _checks.is_whole(getattr(self, name)):
                object.__setattr__(self, name, int(getattr(self, name)))

    def resolved_zone_length(self) -> int:
        return self.zone_length if self.zone_length is not None else 6 * max(self.window_lengths)

    def validate(self) -> None:
        error = CalibrationError
        n_max = max(_checks.half_lengths(self.window_lengths, error))
        _checks.whole(self.dimension, "dimension", 1, error)
        replications = _checks.whole(self.replications, "replications", 1, error)
        zone = _checks.whole(self.resolved_zone_length(), "zone_length", error=error)
        if zone < 2 * n_max:
            raise error(f"zone length {zone} shorter than the largest window 2x{n_max}")
        _checks.seed(self.seed, error)
        _checks.positive(self.base_scale, "base_scale", error)
        _checks.finite(self.base_mean, "base_mean", error=error)
        levels = [_alpha(self.alphas, k, n, error) for n in self.window_lengths for k in StatKind]
        for alpha in levels:
            _quantile_index(replications, alpha)


def _alpha(alphas, kind: StatKind, n: int, error=ValueError) -> float:
    """The level of the pair (kind, n) in ``alphas``, checked to lie in (0, 1)."""
    if (alpha := alphas.get((kind, n))) is None:
        raise error(f"missing alpha for ({kind}, n={n})")
    return _checks.level(alpha, lambda: f"alpha for ({kind}, n={n})", error)


def _table_whole(value, name: str, least: int) -> int:
    """A threshold table's dimension or window half-length, as an int."""
    if not _checks.is_whole(value) or value < least:
        raise ValueError(
            f"threshold table's {name} must be a whole number of at least {least}, got {value!r}"
        )
    return int(value)


@dataclass(frozen=True)
class ThresholdEntry:
    """One critical value, checked finite: a NaN one would never fire (``stat >= nan``).

    ``kind`` may be given by its value (``"mu"``); ``alpha`` must lie in (0, 1).
    """

    kind: StatKind
    n: int
    alpha: float
    rho: float
    provenance: str  # "monte_carlo" | "analytic"

    def __post_init__(self):
        object.__setattr__(self, "kind", StatKind(self.kind))
        object.__setattr__(self, "n", _table_whole(self.n, "n", 2))
        alpha = _checks.level(self.alpha, lambda: f"alpha for {self._pair()}")
        object.__setattr__(self, "alpha", alpha)
        if not _checks.is_real(self.rho):
            raise ValueError(f"threshold for {self._pair()} is not a real number: {self.rho!r}")
        if not math.isfinite(self.rho):
            raise ValueError(f"threshold for {self._pair()} is not finite: {self.rho}")

    def _pair(self) -> str:
        """The entry's name in a failure's message, formatted only then."""
        return f"({self.kind}, n={self.n})"


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
        object.__setattr__(self, "dimension", _table_whole(self.dimension, "dimension", 1))
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
                    n=_json_number(e["n"], "n"),
                    alpha=float(_json_number(e["alpha"], "alpha")),
                    rho=float(_json_number(e["rho"], "rho")),
                    provenance=str(e["provenance"]),
                )
                for e in doc["entries"]
            )
            dimension = _json_number(doc["dimension"], "dimension")
        except KeyError as exc:
            raise ValueError(f"threshold table lacks the field {exc.args[0]!r}") from None
        except TypeError as exc:
            raise ValueError(f"threshold table has a field of the wrong type: {exc}") from None
        return cls(
            dimension=dimension,
            entries=entries,
            seed=doc.get("seed"),
            replications=doc.get("K"),
            zone_length=doc.get("N"),
        )


def _json_number(value, name: str):
    """A number read from a threshold table: booleans and strings are rejected, not coerced."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"threshold table has a field of the wrong type: {name} is {value!r}")
    return value


def _entry_order(window_lengths: Iterable[int]):
    for kind in StatKind:
        for n in sorted(window_lengths):
            yield kind, n


def _replication_maxima(count: int, rows: int, dim: int, lengths, draw):
    """The replication loop of calibration and the static studies, one batch at a time.

    A batch holds as many (rows, dim) replications as fit in ``_BATCH_VALUES``
    values, one when a single one holds more, and at most ``count``.  One array
    of that many contiguous slots (two when the draws overlap the scan, below),
    one set of block buffers and one ratio buffer serve every batch.
    ``draw(lo, slots)`` fills the given leading slots with replications lo,
    lo + 1, ...; the kernel scans those slots, on the leading slots of the
    buffers when a last batch is short.  Yields each batch's (family,
    replication, length) zone maxima, each equal to a scan of its sequence
    alone, bit for bit.

    When there is more than one batch and the process may run on more than one
    CPU, there are two slot arrays: one helper thread draws the next batch into
    one while the calling thread scans the other.  numpy fills ``out=`` without
    the GIL, so the draws and the scan overlap.  Batches are still drawn one at
    a time, in order, so every draw sees the same calls as in the serial loop;
    the kernel and everything outside ``draw`` stay on the calling thread.  A
    draw's error is raised on the calling thread when its batch is due.  The
    helper is joined on every way out of the loop; when the loop stops early,
    the outcome of a draw the serial loop would not have made is dropped.
    """
    size = min(max(1, _BATCH_VALUES // (rows * dim)), count)
    overlap = count > size and windows._cpus() > 1
    slot_arrays = [np.empty((size, rows, dim)) for _ in range(1 + overlap)]
    buffers = windows._scan_buffers((rows, size, dim), lengths)
    # (family, position, replication, length), laid out as the scan's distances
    # are, length before position; a longer n's rows before it warms read -inf.
    ratios = np.empty((len(StatKind), len(lengths), rows - 2 * min(lengths) + 1, size))
    ratios = np.moveaxis(ratios, 1, -1)
    with ThreadPoolExecutor(max_workers=1) as helper:
        ahead = None  # the helper's draw of this batch
        for i, lo in enumerate(range(0, count, size)):
            live = min(size, count - lo)
            slots = slot_arrays[i % len(slot_arrays)][:live]
            if ahead is None:
                draw(lo, slots)
            else:
                ahead.result()
            ahead = None
            if overlap and lo + size < count:
                after = slot_arrays[(i + 1) % 2][: min(size, count - lo - size)]
                ahead = helper.submit(contextvars.copy_context().run, draw, lo + size, after)
            ys = slots.swapaxes(0, 1)  # rows first, as the kernel takes
            stats = windows._window_scan(ys, lengths, [b[:, :live] for b in buffers])
            yield _gsr_into(*stats[1:], ratios[:, :, :live]).max(axis=1)


def calibration_maxima(config: CalibrationConfig) -> dict[tuple[StatKind, int], np.ndarray]:
    """Per-replication zone maxima of every statistic, keyed by (kind, n).

    The building block of :func:`calibrate_monte_carlo`, exposed separately so
    uncertainty estimates (bootstrap standard errors of the thresholds) can be
    computed from the same maxima.  Replication k draws its Gaussian sequence
    from the generator derived from (seed, k), so the result is independent of
    replication order and reproducible run to run.  Replications are scanned
    in batches of about ``_BATCH_VALUES`` values by :func:`_replication_maxima`,
    each replication drawn in place in its slot, and each batch then scaled and
    shifted as a whole.
    """
    config.validate()
    lengths = tuple(sorted(config.window_lengths))
    n_zone, k_reps, dim = config.resolved_zone_length(), config.replications, config.dimension

    def draw(lo, slots):
        for k, slot in enumerate(slots, lo):
            derived_rng(config.seed, k).standard_normal(out=slot)
        # base_mean + base_scale * z, bit for bit, without temporaries
        slots *= config.base_scale
        slots += config.base_mean

    batches = _replication_maxima(k_reps, n_zone, dim, lengths, draw)
    maxima = np.concatenate(list(batches), axis=1).transpose(0, 2, 1)  # (kind, n, k)
    return dict(zip(_entry_order(lengths), maxima.reshape(-1, k_reps)))


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
    n, d = _checks.half_length(n), _checks.finite(d, "dimension", least=1)
    q = fisher_upper_quantile(FisherParams(d, 2 * (n - 1) * d), alpha)
    return q / (n - 1) + 2.0


def analytic_threshold_sigma(n: int, d: float, alpha: float) -> float:
    """Single-point critical value for either variance ratio at level alpha."""
    n, d = _checks.half_length(n), _checks.finite(d, "dimension", least=1)
    k = (n - 1) * d
    return fisher_upper_quantile(FisherParams(k, k), alpha)


def analytic_table(
    window_lengths: Iterable[int],
    dimension: int,
    alphas: Mapping[tuple[StatKind, int], float],
) -> ThresholdTable:
    """Threshold table built from the analytic single-point critical values."""
    lengths = _checks.half_lengths(window_lengths)
    dimension = _checks.whole(dimension, "dimension", 1)
    entries = []
    for kind, n in _entry_order(lengths):
        alpha = _alpha(alphas, kind, n)  # names the pair, as the law's own check does not
        law = analytic_threshold_mu if kind is StatKind.MU else analytic_threshold_sigma
        entries.append(ThresholdEntry(kind, n, alpha, law(n, dimension, alpha), "analytic"))
    return ThresholdTable(dimension=dimension, entries=tuple(entries))
