"""Simulation studies: scenario generation and detection-quality metrics.

Two study designs are provided.  The *static* study draws samples of exactly
one window (2n observations) with a change at the midpoint in half of the
samples and applies the single-point test with analytic thresholds, on
calibration's replication loop as :mod:`gsrdetect.power` describes: as many
windows at a time as hold ``calibration._BATCH_VALUES`` values.  The
*online* study draws full streams, runs the multi-window detector with Monte
Carlo calibrated thresholds and classifies each stream by whether any event
was reported.  Each study builds its two scenarios once, and each sample's own
generator picks one and draws from it.  Both aggregate per-stream decisions
into a :class:`PowerReport`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _checks, detector
from .calibration import (
    CalibrationConfig,
    ThresholdTable,
    _replication_maxima,
    calibrate_monte_carlo,
)
from .detector import DetectionEvent, DetectorConfig, allocate_alphas, detect_stream
from .distributions import derived_rng

__all__ = [
    "Scenario",
    "PowerReport",
    "classify_outcome",
    "run_static_power",
    "run_online_power",
    "static_power_grid",
]

_CHANGES = ("none", "mean", "variance")


@dataclass(frozen=True)
class Scenario:
    """One stream-generating recipe.

    Observations before ``change_at`` (1-based position of the first
    post-change observation) are standard normal; from ``change_at`` on they
    get ``mean_shift`` added and/or their standard deviation multiplied by
    sqrt(``variance_scale``).  ``change_at=None`` means no change.
    """

    dimension: int
    length: int
    change_at: int | None = None
    mean_shift: float = 0.0
    variance_scale: float = 1.0

    def __post_init__(self):
        # Whole floats become ints, as the draws' shapes and slices need.
        optional = () if self.change_at is None else ("change_at",)
        for name in ("dimension", "length", *optional):
            object.__setattr__(self, name, _checks.whole(getattr(self, name), name, 1))
        if self.change_at is not None and self.change_at > self.length:
            raise ValueError(
                f"change_at={self.change_at} outside stream of length {self.length}"
            )
        _checks.finite(self.mean_shift, "mean_shift")
        _checks.positive(self.variance_scale, "variance_scale")

    @property
    def has_change(self) -> bool:
        if self.change_at is None:
            return False
        return self.mean_shift != 0.0 or self.variance_scale != 1.0

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        y = rng.standard_normal((self.length, self.dimension))
        if self.change_at is not None:
            tail = slice(self.change_at - 1, None)
            if self.variance_scale != 1.0:
                y[tail] *= math.sqrt(self.variance_scale)
            if self.mean_shift != 0.0:
                y[tail] += self.mean_shift
        return y


@dataclass(frozen=True)
class PowerReport:
    """Per-stream confusion counts and the derived detection metrics.

    Ratios with an empty denominator (e.g. sensitivity when no stream carried
    a change) are ``None``.
    """

    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    @property
    def accuracy(self) -> float | None:
        return (self.tp + self.tn) / self.total if self.total else None

    @property
    def sensitivity(self) -> float | None:
        pos = self.tp + self.fn
        return self.tp / pos if pos else None

    @property
    def p_mean(self) -> float | None:
        if self.accuracy is None or self.sensitivity is None:
            return None
        return math.sqrt(self.accuracy * self.sensitivity)

    @property
    def fpr(self) -> float | None:
        neg = self.fp + self.tn
        return self.fp / neg if neg else None

    def as_dict(self) -> dict:
        return {
            "tp": self.tp,
            "fp": self.fp,
            "tn": self.tn,
            "fn": self.fn,
            "accuracy": self.accuracy,
            "sensitivity": self.sensitivity,
            "p_mean": self.p_mean,
            "fpr": self.fpr,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2) + "\n"


def _confusion_label(has_change: bool, detected: bool) -> str:
    """TP/FN when a change was present, FP/TN when not."""
    if has_change:
        return "TP" if detected else "FN"
    return "FP" if detected else "TN"


def classify_outcome(events: Sequence[DetectionEvent], scenario: Scenario) -> str:
    """Per-stream confusion label: TP/FN when a change was present, FP/TN when not."""
    return _confusion_label(scenario.has_change, len(events) > 0)


def _report_from_labels(labels: Sequence[str]) -> PowerReport:
    return PowerReport(
        tp=labels.count("TP"),
        fp=labels.count("FP"),
        tn=labels.count("TN"),
        fn=labels.count("FN"),
    )


def _scenarios(change, dimension, length, change_at, mean_shift, variance_scale):
    """A study's two scenarios: without a change, and with ``change`` from ``change_at`` on."""
    if change not in _CHANGES:
        raise ValueError(f"change must be {'|'.join(_CHANGES)}, got {change!r}")
    dimension = _checks.whole(dimension, "dimension", 1)  # before the default shift's power
    shift, scale = 0.0, 1.0
    if change == "mean":
        shift = float(mean_shift) if mean_shift is not None else dimension ** (-1.0 / 3.0)
    if change == "variance":
        scale = float(variance_scale)
    return (Scenario(dimension, length, at, shift, scale) for at in (None, change_at))


def run_static_power(
    dimension: int,
    n: int,
    change: str,
    samples: int = 100,
    alpha: float = 0.05,
    seed: int = 0,
    mean_shift: float | None = None,
    variance_scale: float = 2.0,
) -> PowerReport:
    """Single-window study: 2n-observation samples, change at the midpoint.

    Each sample carries a change with probability 1/2 (none when
    ``change="none"``) and is tested once, at the midpoint, with analytic
    thresholds at level ``alpha`` split equally over the three statistic
    families.  ``mean_shift=None`` defaults to the dimension-adapted shift
    d^(-1/3) per coordinate.
    """
    samples = _checks.whole(samples, "samples", 100)
    n, seed = _checks.half_length(n), _checks.seed(seed)
    _checks.level(alpha, "alpha")
    plain, changed = _scenarios(change, dimension, 2 * n, n + 1, mean_shift, variance_scale)
    dimension = plain.dimension

    rho = detector._resolve_thresholds(DetectorConfig((n,), alpha), dimension, None)[1]

    changes = []  # whether each sample carries a change
    def draw(lo, slots):
        for i, slot in enumerate(slots, lo):
            rng = derived_rng(seed, i)
            scenario = changed if rng.random() < 0.5 else plain
            slot[...] = scenario.sample(rng)
            changes.append(scenario.has_change)

    batches = _replication_maxima(samples, 2 * n, dimension, (n,), draw)
    detected = np.concatenate([np.any(r[..., 0] >= rho, axis=0) for r in batches])
    return _report_from_labels(list(map(_confusion_label, changes, detected.tolist())))


def run_online_power(
    dimension: int,
    windows: Sequence[int] = (20, 35, 50),
    change: str = "mean",
    samples: int = 1000,
    alpha_total: float = 0.06,
    seed: int = 0,
    thresholds: ThresholdTable | None = None,
    stream_length: int = 100,
    change_position: int = 50,
    mean_shift: float | None = None,
    variance_scale: float = 2.0,
    calibration_replications: int = 2000,
    return_localization: bool = False,
):
    """Online study: full streams through the multi-window detector.

    Streams have length ``stream_length``; with probability 1/2 the
    distribution changes starting at observation ``change_position + 1``.
    Thresholds default to a Monte Carlo calibration whose zone length equals
    the stream length, so the per-stream false-alarm rate is controlled at
    ``alpha_total``.  With ``return_localization=True`` also returns the
    array of |reported change time - true change time| over detected changes.
    """
    samples, seed = _checks.whole(samples, "samples", 200), _checks.seed(seed)
    windows = tuple(sorted(_checks.half_lengths(windows)))
    stream_length = _checks.whole(stream_length, "stream_length")
    change_position = _checks.whole(change_position, "change_position")
    plain, changed = _scenarios(
        change, dimension, stream_length, change_position + 1, mean_shift, variance_scale
    )

    if thresholds is None:
        thresholds = calibrate_monte_carlo(
            CalibrationConfig(
                window_lengths=windows,
                dimension=dimension,
                alphas=allocate_alphas(alpha_total, windows),
                zone_length=stream_length,
                replications=calibration_replications,
                seed=seed,
            )
        )
    config = DetectorConfig(windows=windows, alpha_total=alpha_total, policy="halt")

    labels = []
    offsets = []
    for i in range(samples):
        rng = derived_rng(seed, 1, i)
        scenario = changed if rng.random() < 0.5 else plain
        events = detect_stream(scenario.sample(rng), config, thresholds)
        labels.append(classify_outcome(events, scenario))
        if events and scenario.has_change:
            offsets.append(abs(events[0].change_at - scenario.change_at))
    report = _report_from_labels(labels)
    if return_localization:
        return report, np.asarray(offsets, dtype=int)
    return report


def static_power_grid(
    dimensions: Sequence[int],
    window_lengths: Sequence[int],
    change: str,
    samples: int = 100,
    alpha: float = 0.05,
    seed: int = 0,
    mean_shift: float | None = None,
    variance_scale: float = 2.0,
) -> list[dict]:
    """P_mean / FPR over a (dimension, window) grid, as plot-ready rows.

    The same seed is reused across grid cells (common random numbers), which
    sharpens comparisons between neighbouring cells.
    """
    rows = []
    for d in dimensions:
        for n in window_lengths:
            report = run_static_power(
                d,
                n,
                change,
                samples=samples,
                alpha=alpha,
                seed=seed,
                mean_shift=mean_shift,
                variance_scale=variance_scale,
            )
            rows.append(
                {
                    "dimension": d,
                    "window": n,
                    "p_mean": report.p_mean,
                    "fpr": report.fpr,
                    "accuracy": report.accuracy,
                    "sensitivity": report.sensitivity,
                }
            )
    return rows
