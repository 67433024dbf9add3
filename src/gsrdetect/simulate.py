"""Simulation studies: scenario generation and detection-quality metrics.

Two study designs are provided.  The *static* study draws samples of exactly
one window (2n observations) with a change at the midpoint in half of the
samples and applies the single-point test with analytic thresholds, its
samples drawn into slots and scanned as :mod:`gsrdetect.power` describes.  The
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

from .calibration import (
    CalibrationConfig,
    ThresholdTable,
    analytic_table,
    calibrate_monte_carlo,
)
from .detector import DetectionEvent, DetectorConfig, allocate_alphas, detect_stream
from .distributions import derived_rng
from .power import _static_gsr, _static_slots
from .ratios import StatKind

__all__ = [
    "Scenario",
    "PowerReport",
    "classify_outcome",
    "run_static_power",
    "run_online_power",
    "static_power_grid",
]


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
        if self.dimension < 1 or self.length < 1:
            raise ValueError("dimension and length must be positive")
        if self.change_at is not None and not (1 <= self.change_at <= self.length):
            raise ValueError(
                f"change_at={self.change_at} outside stream of length {self.length}"
            )
        if self.variance_scale <= 0:
            raise ValueError("variance_scale must be positive")

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
    if change not in ("none", "mean", "variance"):
        raise ValueError(f"change must be none|mean|variance, got {change!r}")
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
    if samples < 100:
        raise ValueError(f"need at least 100 samples, got {samples}")
    plain, changed = _scenarios(change, dimension, 2 * n, n + 1, mean_shift, variance_scale)

    alphas = allocate_alphas(alpha, [n])
    table = analytic_table([n], dimension, alphas)
    rho = [table.threshold(kind, n) for kind in StatKind]

    slots, buffers = _static_slots(samples, n, dimension)
    labels = []
    for lo in range(0, samples, len(slots)):
        scenarios = []
        for j, i in enumerate(range(lo, min(lo + len(slots), samples))):
            rng = derived_rng(seed, i)
            scenarios.append(changed if rng.random() < 0.5 else plain)
            slots[j] = scenarios[-1].sample(rng)
        # A short last batch scans the previous batch's windows too; zip drops them.
        ratios = _static_gsr(slots, buffers)
        detected = np.logical_or.reduce([r >= x for r, x in zip(ratios, rho)])
        for scenario, hit in zip(scenarios, detected.tolist()):
            labels.append(_confusion_label(scenario.has_change, hit))
    return _report_from_labels(labels)


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
    if samples < 200:
        raise ValueError(f"need at least 200 samples, got {samples}")
    windows = tuple(sorted(windows))
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
