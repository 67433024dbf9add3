"""Multi-window online change-point detector.

Each incoming observation advances one sliding window per configured
half-length n.  A warm window tests its three ratio statistics against
per-(family, n) thresholds; an exceedance is reported as an event whose
estimated change time is ``t - n + 1`` (the first observation of the window's
newer half), where t is the 1-based stream position of the observation that
triggered it.

The total significance level is split across the three statistic families and
then equally across window lengths (Bonferroni), so that under the null the
probability of any event in one evaluation zone stays below ``alpha_total``.

Post-detection behaviour is configurable: ``halt`` stops testing after the
first event (single-change semantics), ``cooldown`` suppresses testing for a
fixed number of steps after each event, ``continue`` reports everything.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .calibration import ThresholdTable, analytic_table
from .ratios import GsrTriple, StatKind, compute_gsr, sliding_gsr
from .windows import (
    ObservationWindow,
    SlidingStats,
    _column,
    _half_length,
    _NonFiniteError,
    _whole_number,
    sliding_spanning_stats,
)

__all__ = [
    "EVENT_KIND",
    "DetectionEvent",
    "DetectorConfig",
    "Detector",
    "PooledStatistics",
    "allocate_alphas",
    "detect_stream",
    "events_to_jsonl",
    "events_from_jsonl",
]

EVENT_KIND = {
    StatKind.MU: "MeanChange",
    StatKind.SIGMA_PLUS: "VarianceIncrease",
    StatKind.SIGMA_MINUS: "VarianceDecrease",
}

_POLICIES = ("halt", "cooldown", "continue")


def _split_exact(total: float, count: int) -> list[float]:
    """Split ``total`` into ``count`` near-equal parts whose sum is exactly ``total``.

    The last part absorbs the rounding of the equal shares.
    """
    if count < 1:
        raise ValueError("cannot split over an empty collection")
    share = total / count
    parts = [share] * (count - 1)
    parts.append(total - math.fsum(parts))
    return parts


def allocate_alphas(
    alpha_total: float,
    windows: Sequence[int],
    families: Sequence[StatKind] = tuple(StatKind),
) -> dict[tuple[StatKind, int], float]:
    """Bonferroni allocation of the total level across families and windows.

    The default splits ``alpha_total`` equally over the three statistic
    families and each family's share equally over the window lengths; rounding
    is compensated on the last entry so the shares sum back exactly.
    """
    if not (0.0 < alpha_total < 1.0):
        raise ValueError(f"alpha_total must be in (0, 1), got {alpha_total}")
    windows = tuple(windows)
    families = tuple(families)
    if not windows:
        raise ValueError("empty window set")
    if not families:
        raise ValueError("empty family set")
    alphas: dict[tuple[StatKind, int], float] = {}
    family_shares = _split_exact(alpha_total, len(families))
    for kind, family_alpha in zip(families, family_shares):
        window_shares = _split_exact(family_alpha, len(windows))
        for n, a in zip(windows, window_shares):
            alphas[(kind, n)] = a
    return alphas


@dataclass(frozen=True)
class DetectionEvent:
    """One reported change.

    ``change_at`` and ``detected_at`` are 1-based stream positions;
    ``change_at = detected_at - window + 1`` points at the first observation
    the detector attributes to the new regime.
    """

    kind: str
    change_at: int
    window: int
    statistic: float
    threshold: float
    detected_at: int

    def as_dict(self) -> dict:
        return {
            "detected_at": self.detected_at,
            "change_at": self.change_at,
            "kind": self.kind,
            "window": self.window,
            "statistic": self.statistic,
            "threshold": self.threshold,
        }


def events_to_jsonl(events: Iterable[DetectionEvent]) -> str:
    """Serialize events as JSON-lines (one object per event)."""
    return "".join(json.dumps(e.as_dict()) + "\n" for e in events)


def events_from_jsonl(text: str) -> list[DetectionEvent]:
    events = []
    for line in text.splitlines():
        if not line.strip():
            continue
        doc = json.loads(line)
        events.append(
            DetectionEvent(
                kind=doc["kind"],
                change_at=int(doc["change_at"]),
                window=int(doc["window"]),
                statistic=float(doc["statistic"]),
                threshold=float(doc["threshold"]),
                detected_at=int(doc["detected_at"]),
            )
        )
    return events


@dataclass(frozen=True)
class DetectorConfig:
    """Detector settings: window lengths, level allocation and policy.

    With ``alphas=None`` the per-(family, n) levels come from
    :func:`allocate_alphas`.  ``cooldown`` defaults to twice the largest
    window length, long enough for one change to clear every window.
    """

    windows: tuple[int, ...]
    alpha_total: float = 0.06
    alphas: Mapping[tuple[StatKind, int], float] | None = None
    policy: str = "halt"
    cooldown: int | None = None

    def __post_init__(self):
        if not self.windows:
            raise ValueError("at least one window length is required")
        # Whole floats become ints, as the events and the kernel's indices need.
        object.__setattr__(self, "windows", tuple(map(_half_length, self.windows)))
        if len(set(self.windows)) != len(self.windows):
            raise ValueError("duplicate window lengths")
        if self.policy not in _POLICIES:
            raise ValueError(f"policy must be one of {_POLICIES}, got {self.policy!r}")
        if self.cooldown is not None and self.cooldown < 1:
            raise ValueError("cooldown must be a positive number of steps")
        if self.alphas is None and not (0.0 < self.alpha_total < 1.0):
            raise ValueError(f"alpha_total must be in (0, 1), got {self.alpha_total}")

    def resolved_alphas(self) -> dict[tuple[StatKind, int], float]:
        if self.alphas is not None:
            return dict(self.alphas)
        return allocate_alphas(self.alpha_total, sorted(self.windows))

    def resolved_cooldown(self) -> int:
        return self.cooldown if self.cooldown is not None else 2 * max(self.windows)


def _quiet_gap(config: DetectorConfig) -> float:
    """Ticks after a reported tick whose exceedances the policy does not report."""
    if config.policy == "halt":
        return math.inf
    if config.policy == "cooldown":
        return config.resolved_cooldown()
    return 0


def _build_events(ticks, ranks, windows, stats, rhos) -> list[DetectionEvent]:
    """Events from parallel lists: tick, family rank, window, statistic, threshold.

    Fills each instance's attribute dict directly, about 3x faster than the
    frozen dataclass's ``__init__``: under ``continue`` events number in the
    thousands.
    """
    kinds = list(EVENT_KIND.values())
    events = []
    for c, r, w, x, t in zip(ticks, ranks, windows, stats, rhos):
        event = object.__new__(DetectionEvent)
        attrs = event.__dict__
        attrs["kind"] = kinds[r]
        attrs["change_at"] = c - w + 1
        attrs["window"] = w
        attrs["statistic"] = x
        attrs["threshold"] = t
        attrs["detected_at"] = c
        events.append(event)
    return events


class PooledStatistics(NamedTuple):
    """Per-family supremum of (statistic - threshold) over the warm windows.

    A family in which every warm window is degenerate reports ``-inf``.
    """

    t_mu: float
    t_sigma_plus: float
    t_sigma_minus: float


def _resolve_thresholds(
    config: DetectorConfig, dimension: int, thresholds: ThresholdTable | None
) -> ThresholdTable:
    if thresholds is None:
        return analytic_table(config.windows, dimension, config.resolved_alphas())
    if thresholds.dimension != dimension:
        raise ValueError(
            f"threshold table calibrated for dimension {thresholds.dimension}, "
            f"stream has dimension {dimension}"
        )
    for n in config.windows:
        for kind in StatKind:
            thresholds.entry(kind, n)
    return thresholds


class Detector:
    """Stateful online detector; feed observations one at a time with :meth:`step`.

    ``thresholds=None`` uses the analytic single-point critical values; pass a
    Monte Carlo :class:`~gsrdetect.calibration.ThresholdTable` to account for
    the scan dependence of overlapping windows (recommended for monitoring).
    A detector instance is bound to one stream; create a new one per stream.
    """

    def __init__(
        self,
        config: DetectorConfig,
        dimension: int,
        thresholds: ThresholdTable | None = None,
    ):
        dimension = _whole_number(dimension, "dimension")
        if dimension < 1:
            raise ValueError(f"dimension must be at least 1, got {dimension}")
        self.config = config
        self.dimension = dimension
        self.thresholds = _resolve_thresholds(config, dimension, thresholds)
        # Ascending n, so each tick's events come out window-ascending.
        self._windows = {n: ObservationWindow(n, dimension) for n in sorted(config.windows)}
        self._clock = 0
        self._gap = _quiet_gap(config)
        self._quiet_until = 0  # last tick whose exceedances are not reported

    @property
    def clock(self) -> int:
        """Number of observations consumed so far."""
        return self._clock

    @property
    def halted(self) -> bool:
        return self._quiet_until == math.inf

    def _current_triples(self) -> dict[int, GsrTriple]:
        triples = {}
        for n, win in self._windows.items():
            if win.is_warm:
                triples[n] = compute_gsr(win.decompose(), self._clock - n + 1)
        return triples

    def step(self, observation) -> list[DetectionEvent]:
        """Consume one observation and return the events it triggers (often none)."""
        for win in self._windows.values():
            win.slide(observation)
        self._clock += 1  # only once every window has accepted the observation
        if self._clock <= self._quiet_until:
            return []

        hits = []  # (family rank, window, statistic, threshold)
        triples = self._current_triples()
        for rank, kind in enumerate(StatKind):
            for n, triple in triples.items():
                stat = triple.value_of(kind)
                if stat is None:
                    continue
                rho = self.thresholds.threshold(kind, n)
                if stat >= rho:
                    hits.append((rank, n, stat, rho))
        if not hits:
            return []
        self._quiet_until = self._clock + self._gap
        return _build_events([self._clock] * len(hits), *zip(*hits))

    def pooled_statistics(self) -> PooledStatistics:
        """Pooled excess statistics at the current clock.

        ``max(pooled) >= 0`` exactly when :meth:`step` would have emitted an
        event at this clock tick (under the ``continue`` policy).
        """
        triples = self._current_triples()
        if not triples:
            raise ValueError("no warm window yet")
        pooled = {}
        for kind in StatKind:
            best = -math.inf
            for n, triple in triples.items():
                stat = triple.value_of(kind)
                if stat is None:
                    continue
                best = max(best, stat - self.thresholds.threshold(kind, n))
            pooled[kind] = best
        return PooledStatistics(
            t_mu=pooled[StatKind.MU],
            t_sigma_plus=pooled[StatKind.SIGMA_PLUS],
            t_sigma_minus=pooled[StatKind.SIGMA_MINUS],
        )


def detect_stream(
    stream,
    config: DetectorConfig,
    thresholds: ThresholdTable | None = None,
) -> list[DetectionEvent]:
    """Run the detector over a whole in-memory stream.

    Vectorised over time, with the same policy and the same arithmetic as
    feeding the stream through :meth:`Detector.step`, so both paths report
    the same events, bit for bit.  One kernel call scans every window length;
    the exceedances are flagged per (tick, family, window), which lists them
    in that order, and events are built only for the ticks the policy keeps.
    """
    y = np.asarray(stream, dtype=float)
    if y.ndim != 2:
        raise ValueError("stream must be a (T, d) array")
    t_len, dimension = y.shape
    windows = [n for n in sorted(config.windows) if t_len >= 2 * n]
    # Every row lies in a warm window of the shortest length, so the scan
    # checks the whole stream for non-finite values.
    try:
        stats = sliding_spanning_stats(y, windows) if windows else None
    except _NonFiniteError:
        raise ValueError("stream contains non-finite values") from None
    if not windows and not np.all(np.isfinite(y)):
        raise ValueError("stream contains non-finite values")
    table = _resolve_thresholds(config, dimension, thresholds)
    if not windows:
        return []

    # One ratio column at a time; the flags' C order is (tick, family, window).
    hits = np.zeros((len(stats.clocks), len(StatKind), len(windows)), dtype=bool)
    for j, n in enumerate(windows):
        column = _column(stats, j, n)
        rows = hits[len(hits) - len(column.clocks) :]  # from n's first warm window on
        for rank, (kind, stat) in enumerate(zip(StatKind, sliding_gsr(column))):
            np.greater_equal(stat, table.threshold(kind, n), out=rows[:, rank, j])
    # np.nonzero takes about 30x longer on a 3-D array than on the flat one.
    row, rank, col = np.unravel_index(np.flatnonzero(hits), hits.shape)
    clock = stats.clocks[row]

    gap = _quiet_gap(config)
    if gap:
        keep = _quiet_filter(clock, gap)
        clock, row, rank, col = clock[keep], row[keep], rank[keep], col[keep]
    # The hits' statistics, by the same divisions as the columns' ratios.
    hit = SlidingStats(clock, *(w[row, col] for w in stats[1:]))
    rhos = np.array([[table.threshold(kind, n) for n in windows] for kind in StatKind])
    return _build_events(
        clock.tolist(),
        rank.tolist(),
        np.array(windows)[col].tolist(),
        np.choose(rank, sliding_gsr(hit)).tolist(),
        rhos[rank, col].tolist(),
    )


def _quiet_filter(clock: np.ndarray, gap: float) -> np.ndarray:
    """Mask of the sorted ticks ``clock`` that the quiet-period rule reports.

    A tick is kept, with every tick equal to it, when it lies more than
    ``gap`` after the last kept tick; each pass jumps to the next kept tick.
    """
    ticks = clock.tolist()
    keep = np.zeros(len(ticks), dtype=bool)
    i = 0
    while i < len(ticks):
        tick = ticks[i]
        j = bisect_right(ticks, tick, i)
        keep[i:j] = True
        i = bisect_right(ticks, tick + gap, j)
    return keep
