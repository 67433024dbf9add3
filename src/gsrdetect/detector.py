"""Multi-window online change-point detector.

Each incoming observation advances one sliding window of every configured
half-length n, all lengths sharing one set of prefix sums.  A warm window
tests its three ratio statistics against per-(family, n) thresholds; an
exceedance is reported as an event whose estimated change time is
``t - n + 1`` (the first observation of the window's newer half), where t is
the 1-based stream position of the observation that triggered it.

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
from dataclasses import dataclass, fields
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import _checks, windows
from .calibration import ThresholdTable, analytic_table
from .ratios import GsrTriple, StatKind, _gsr_into, compute_gsr
from .windows import ObservationWindow, _NonFiniteError, sliding_spanning_stats

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
    share = total / count
    parts = [share] * (count - 1)
    parts.append(total - math.fsum(parts))
    return parts


def allocate_alphas(
    alpha_total: float, windows: Sequence[int]
) -> dict[tuple[StatKind, int], float]:
    """Bonferroni allocation of the total level across families and windows.

    Splits ``alpha_total`` equally over the three statistic families and each
    family's share equally over the window lengths; rounding is compensated on
    the last entry so the shares sum back exactly.
    """
    _checks.level(alpha_total, "alpha_total")
    windows = _checks.half_lengths(windows)
    alphas: dict[tuple[StatKind, int], float] = {}
    family_shares = _split_exact(alpha_total, len(StatKind))
    for kind, family_alpha in zip(StatKind, family_shares):
        window_shares = _split_exact(family_alpha, len(windows))
        for n, a in zip(windows, window_shares):
            alphas[(kind, n)] = a
    return alphas


@dataclass(frozen=True)
class DetectionEvent:
    """One reported change, checked as :func:`events_from_jsonl` reads it back.

    ``kind`` is one of ``EVENT_KIND``'s values, the positions and ``window`` are
    whole numbers and the two reals are finite.  ``change_at`` and
    ``detected_at`` are 1-based stream positions;
    ``change_at = detected_at - window + 1`` points at the first observation
    the detector attributes to the new regime.
    """

    kind: str
    change_at: int
    window: int
    statistic: float
    threshold: float
    detected_at: int

    def __post_init__(self):
        if self.kind not in (kinds := tuple(EVENT_KIND.values())):
            raise ValueError(f"kind must be one of {kinds}, got {self.kind!r}")
        for name in ("change_at", "window", "statistic", "threshold", "detected_at"):
            rule = _checks.finite if name in ("statistic", "threshold") else _checks.whole
            object.__setattr__(self, name, rule(getattr(self, name), name))

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
    """Events from JSON-lines, one object per non-blank line, each checked as it is built."""
    events = []
    for line in text.splitlines():
        if not line.strip():
            continue
        doc = json.loads(line)
        if not isinstance(doc, dict):
            raise ValueError(f"event record must be a JSON object, got {type(doc).__name__}")
        try:
            values = [doc[f.name] for f in fields(DetectionEvent)]
        except KeyError as exc:
            raise ValueError(f"event record lacks the field {exc.args[0]!r}") from None
        events.append(DetectionEvent(*values))
    return events


@dataclass(frozen=True)
class DetectorConfig:
    """Detector settings: window lengths, total level and policy.

    Without a threshold table the detector tests against analytic thresholds
    at the levels :func:`allocate_alphas` splits from ``alpha_total``; for
    other per-(family, n) levels pass ``thresholds=analytic_table(windows, d,
    alphas)``.  ``cooldown`` defaults to twice the largest window length, long
    enough for one change to clear every window.
    """

    windows: tuple[int, ...]
    alpha_total: float = 0.06
    policy: str = "halt"
    cooldown: int | None = None

    def __post_init__(self):
        # Whole floats become ints, as the events and the kernel's indices need.
        object.__setattr__(self, "windows", _checks.half_lengths(self.windows))
        if self.policy not in _POLICIES:
            raise ValueError(f"policy must be one of {_POLICIES}, got {self.policy!r}")
        if self.cooldown is not None:
            object.__setattr__(self, "cooldown", _checks.whole(self.cooldown, "cooldown", 1))
        _checks.level(self.alpha_total, "alpha_total")

    def resolved_alphas(self) -> dict[tuple[StatKind, int], float]:
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


def _build_events(ticks, ranks, lengths, stats, rhos) -> list[DetectionEvent]:
    """Events from parallel lists: tick, family rank, window, statistic, threshold.

    Fills each instance's attribute dict directly, about 7x faster than the
    frozen dataclass's checked ``__init__``, whose checks these values pass:
    under ``continue`` events number in the thousands.
    """
    kinds = list(EVENT_KIND.values())
    events = []
    for c, r, w, x, t in zip(ticks, ranks, lengths, stats, rhos):
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
) -> tuple[ThresholdTable, np.ndarray]:
    """The table tested against, and its thresholds as one (family, window) array.

    Rows follow ``StatKind``, columns the ascending window lengths.  The one
    check that a table fits: ``ValueError`` on a dimension mismatch, and
    building the array raises ``KeyError`` naming every pair the table lacks.
    """
    if thresholds is None:
        thresholds = analytic_table(config.windows, dimension, config.resolved_alphas())
    elif thresholds.dimension != dimension:
        raise ValueError(
            f"threshold table calibrated for dimension {thresholds.dimension}, "
            f"stream has dimension {dimension}"
        )
    lengths = sorted(config.windows)
    try:
        rhos = np.array([[thresholds.threshold(k, n) for n in lengths] for k in StatKind])
    except KeyError:  # name every missing pair, window by window
        present = {(e.kind, e.n) for e in thresholds.entries}
        missing = [f"({k}, n={n})" for n in lengths for k in StatKind if (k, n) not in present]
        raise KeyError(f"threshold table lacks {', '.join(missing)}") from None
    return thresholds, rhos


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
        dimension = _checks.whole(dimension, "dimension", 1)
        self.config = config
        self.dimension = dimension
        self.thresholds, rhos = _resolve_thresholds(config, dimension, thresholds)
        self._rhos = rhos.tolist()  # per family, one threshold per ascending window
        # One window slides every length, and its clock is the detector's.  Each
        # warm length is decomposed in ascending n, so each tick's events come
        # out window-ascending.
        self._window = ObservationWindow(config.windows, dimension)
        self._gap = _quiet_gap(config)
        self._quiet_until = 0  # last tick whose exceedances are not reported

    @property
    def clock(self) -> int:
        """Number of observations consumed so far."""
        return self._window._clock

    @property
    def halted(self) -> bool:
        return self._quiet_until == math.inf

    def _current_triples(self) -> dict[int, GsrTriple]:
        window = self._window
        triples, clock = {}, window._clock
        for n in window._lengths:
            if clock < 2 * n:  # nor is any longer window warm: they ascend
                break
            triples[n] = compute_gsr(window.decompose(n), clock - n + 1)
        return triples

    def step(self, observation) -> list[DetectionEvent]:
        """Consume one observation and return the events it triggers (often none).

        The observation slides the one window of every length once; a tick
        outside a quiet period then decomposes and tests each warm length.
        """
        clock = self._window.slide(observation)._clock  # advanced only on acceptance
        if clock <= self._quiet_until:
            return []
        triples = self._current_triples()
        # Family by family, the warm (shortest) windows against its leading thresholds.
        ratios = zip(*[(t.r_mu, t.r_sigma_plus, t.r_sigma_minus) for t in triples.values()])
        hits = [
            (rank, n, x, rho)
            for rank, (stats, rhos) in enumerate(zip(ratios, self._rhos))
            for n, x, rho in zip(triples, stats, rhos)
            if x is not None and x >= rho
        ]
        if not hits:
            return []
        self._quiet_until = clock + self._gap
        return _build_events([clock] * len(hits), *zip(*hits))

    def pooled_statistics(self) -> PooledStatistics:
        """Pooled excess statistics at the current clock.

        ``max(pooled) >= 0`` exactly when :meth:`step` would have emitted an
        event at this clock tick (under the ``continue`` policy).
        """
        triples = list(self._current_triples().values())
        if not triples:
            raise ValueError("no warm window yet")
        pooled = [-math.inf] * len(StatKind)
        for rank, (kind, rhos) in enumerate(zip(StatKind, self._rhos)):
            for triple, rho in zip(triples, rhos):
                if (stat := triple.value_of(kind)) is not None:
                    pooled[rank] = max(pooled[rank], stat - rho)
        return PooledStatistics(*pooled)


def detect_stream(
    stream,
    config: DetectorConfig,
    thresholds: ThresholdTable | None = None,
) -> list[DetectionEvent]:
    """Run the detector over a whole in-memory stream.

    Vectorised over time, with the same policy and the same arithmetic as
    feeding the stream through :meth:`Detector.step`, so both paths report
    the same events, bit for bit.  One kernel call scans every window length.
    The ratios are then taken in chunks of ``4 * windows._BLOCK`` window
    positions, on one reused buffer: each family makes one division over every
    window length, one comparison flags each (tick, family, window) against its
    threshold, which lists the exceedances in that order, and events are built
    only for the ticks the policy keeps, the quiet period carried from chunk to
    chunk.  Under ``halt`` no chunk after the first reported tick is tested.
    """
    y = np.asarray(stream, dtype=float)
    if y.ndim != 2:
        raise ValueError("stream must be a (T, d) array")
    t_len, dimension = y.shape
    lengths = [n for n in sorted(config.windows) if t_len >= 2 * n]
    # A table that does not fit is found before the scan.  Every row lies in a
    # warm window of the shortest length, so the scan checks the whole stream
    # for non-finite values; only when something fails is the stream checked
    # here, since a non-finite stream is the error reported first.
    try:
        rhos = _resolve_thresholds(config, dimension, thresholds)[1][:, : len(lengths)]
        if not lengths:  # too short to scan
            raise _NonFiniteError
        stats = sliding_spanning_stats(y, lengths)
    except (ValueError, KeyError) as error:
        if not np.all(np.isfinite(y)):
            raise ValueError("stream contains non-finite values") from None
        if not isinstance(error, _NonFiniteError):
            raise
        return []  # too short: the scan raises it only on a non-finite stream

    # (window, position) distances, each window's positions contiguous.  A
    # longer window's positions before its first warm one read NaN, so -inf.
    w_left, w_right, w_full = (w.T for w in stats[1:])
    # Shorter chunks add numpy calls per position.  Longer ones' buffers, on top
    # of the kernel's output, made glibc hand the heap back and fault it in again
    # on every call: on 20 000 x 8 with three windows, chunks of 16 * _BLOCK
    # cost 755 page faults per call, and 4 * _BLOCK none.
    positions, chunk = len(stats.clocks), 4 * windows._BLOCK
    ratios = np.empty((*rhos.shape, min(chunk, positions)))
    flags = np.empty((ratios.shape[-1], *rhos.shape), dtype=bool)
    events, gap, quiet_until = [], _quiet_gap(config), 0
    for lo in range(0, positions, chunk):
        part = slice(lo, lo + chunk)
        r = ratios[..., : positions - lo]  # a short last chunk takes the leading columns
        _gsr_into(w_left[:, part], w_right[:, part], w_full[:, part], r)
        # The flags' C order is (tick, family, window); np.nonzero takes about
        # 30x longer on a 3-D array than on the flat one.
        hit = np.greater_equal(r.transpose(2, 0, 1), rhos, out=flags[: r.shape[-1]])
        row, rank, col = np.unravel_index(np.flatnonzero(hit), hit.shape)
        clock = stats.clocks[lo + row]
        if gap:
            keep, quiet_until = _quiet_filter(clock, gap, quiet_until)
            clock, row, rank, col = clock[keep], row[keep], rank[keep], col[keep]
        events += _build_events(
            clock.tolist(),
            rank.tolist(),
            np.array(lengths)[col].tolist(),
            r[rank, col, row].tolist(),
            rhos[rank, col].tolist(),
        )
        if quiet_until == math.inf:  # halted
            break
    return events


def _quiet_filter(clock: np.ndarray, gap: float, quiet_until: float):
    """Mask of the sorted ticks ``clock`` that the quiet-period rule reports, and its new end.

    ``quiet_until`` is the last tick of the quiet period so far, as
    :meth:`Detector.step` keeps it.  A tick is kept, with every tick equal to
    it, when it lies after the quiet period, and each kept tick starts a new
    one of ``gap`` ticks; each pass jumps to the next kept tick.
    """
    ticks = clock.tolist()
    keep = np.zeros(len(ticks), dtype=bool)
    i = bisect_right(ticks, quiet_until)
    while i < len(ticks):
        tick = ticks[i]
        j = bisect_right(ticks, tick, i)
        keep[i:j] = True
        quiet_until = tick + gap
        i = bisect_right(ticks, quiet_until, j)
    return keep, quiet_until
