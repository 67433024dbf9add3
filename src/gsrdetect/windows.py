"""Complete-graph spanning distances over sliding observation windows.

The spanning distance of a block of observations is the sum of squared
Euclidean distances over all unordered pairs.  A scanning window of 2n
observations is split into an older ("left") and a newer ("right") half of n
observations each; the decomposition of the full-window distance into the two
half distances, the cross ("between") distance and a residual term is the raw
material for the change-point ratio statistics.

Every caller shares one arithmetic: ``_anchored_block``'s prefix sums of
observations centred on their block's first row (the shifted update of Chan,
Golub & LeVeque), for one block or a batch, from which ``_half_windows`` takes
the sums of each half-window length.  One block loop, ``_window_scan``, anchors
a block every ``_BLOCK`` window positions and runs one prefix pass per block
for all window lengths at once, into one output.  It serves a stream
(``sliding_spanning_stats``, for one window length or several), a batch of
Monte Carlo calibration sequences and a batch of static 2n-windows, each
anchored on its own first row.
``spanning_distance`` is one half-window.  ``ObservationWindow`` keeps the batch
path's sums at O(d) per observation and equals it bit for bit.  The rounding
error grows with the data's spread between a window and its anchor, not with
its stream position.
"""

from __future__ import annotations

import math
import numbers
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "SpanningDecomposition",
    "ObservationWindow",
    "SlidingStats",
    "spanning_distance",
    "sliding_spanning_stats",
]

# Window positions per anchor block, on both paths.  Each batch block re-reads
# the 2n - 1 rows it shares with the next and pays a fixed cost in numpy calls,
# which weighs on long low-dimensional streams; the rounding error grows with
# the data's spread over a block, which favours short blocks.
_BLOCK = 2048

# Values per row from which a batched block's prefix sums are taken a whole row
# at a time rather than by ``np.cumsum`` down its columns: from 512 values the
# row loop ran a steady 2.2-2.4x faster at 20-100 rows (2-core Xeon, numpy 2.4),
# while below that its gain was small or lost in noise.
_ROW_SUM_MIN = 512

_NON_FINITE = "observations contain non-finite values"


class _NonFiniteError(ValueError):
    """A batch of observations holds NaN or infinity."""


def _as_observation(y, dim: int | None = None) -> np.ndarray:
    """Validate one observation: a finite 1-D float vector, optionally of known dim."""
    arr = np.asarray(y, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise ValueError(f"observation must be a vector, got shape {arr.shape}")
    if dim is not None and arr.shape[0] != dim:
        raise ValueError(f"dimension mismatch: expected {dim}, got {arr.shape[0]}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("observation contains non-finite values")
    return arr


def _is_whole(n) -> bool:
    """Whether ``n`` is a whole number, and not a boolean."""
    real = isinstance(n, numbers.Real) and not isinstance(n, (bool, np.bool_))
    return real and (isinstance(n, numbers.Integral) or float(n).is_integer())


def _whole_number(value, name: str, error=ValueError) -> int:
    """``value`` as an int, when it is a whole number and not a boolean; ``name`` names it."""
    if not _is_whole(value):
        raise error(f"{name} must be a whole number, got {value!r}")
    return int(value)


def _half_length(n, error=ValueError) -> int:
    """``n`` as a window half-length: a whole number (not a boolean) of at least 2."""
    if _whole_number(n, "window half-length", error) < 2:
        raise error("window half-length must be at least 2")
    return int(n)


def _stack_rows(observations) -> np.ndarray:
    """Coerce a block of observations to an (m, d) float matrix.

    Rows given as a sequence are validated one by one; the finiteness of a
    2-D array is left to the caller.
    """
    if isinstance(observations, np.ndarray) and observations.ndim == 2:
        mat = observations.astype(float, copy=False)
    else:
        rows = [_as_observation(y) for y in observations]
        if not rows:
            raise ValueError("no observations given")
        d = rows[0].shape[0]
        for r in rows[1:]:
            if r.shape[0] != d:
                raise ValueError(
                    f"dimension mismatch: expected {d}, got {r.shape[0]}"
                )
        mat = np.vstack(rows)
    return mat


def _as_matrix(observations) -> np.ndarray:
    """Validate a block of observations as a finite (m, d) float matrix."""
    mat = _stack_rows(observations)
    if not np.all(np.isfinite(mat)):
        raise ValueError(_NON_FINITE)
    return mat


def spanning_distance(observations) -> float:
    """Sum of squared Euclidean distances over all unordered observation pairs.

    Parameters
    ----------
    observations : array-like
        Sequence of at least two equal-dimension vectors, or an (m, d) array.

    Returns
    -------
    float
        Nonnegative spanning distance of the complete graph on the block, as the
        batch kernel's one half-window anchored on the first row (exactly 0 for equal rows).
    """
    mat = _as_matrix(observations)
    m = mat.shape[0]
    if m < 2:
        raise ValueError("spanning distance needs at least 2 observations")
    _, _, seg, _ = _half_windows(*_anchored_block(mat), m)
    return max(float(seg[0]), 0.0)


@dataclass(frozen=True)
class SpanningDecomposition:
    """Spanning distances of a warm 2n-window and its derived components.

    ``w_full`` is the distance over all 2n observations, ``w_left``/``w_right``
    over the two halves, ``w_btw`` the cross-pair distance linking the halves
    (``w_full - w_left - w_right``) and ``w_rem`` the residual
    ``w_full - 2 * (w_left + w_right)``.
    """

    w_full: float
    w_left: float
    w_right: float
    w_rem: float
    w_btw: float


class ObservationWindow:
    """The last 2n observations, oldest first, with anchored prefix sums.

    The left half holds the n oldest buffered observations, the right half the
    n newest.  Observations are fed one at a time with :meth:`slide`; the
    window is *warm* once 2n have been seen, after which each slide evicts the
    oldest observation, migrates the boundary observation from the right half
    to the left, and appends the incoming one.

    A window is a single-owner value: slides mutate it in place and return it
    for convenience, and it keeps its own copy of each observation.  It
    re-anchors on its oldest row whenever the window start is a multiple of
    ``_BLOCK``, counted from its first observation, as
    ``sliding_spanning_stats`` does, so constant streams yield exactly zero
    distances and :meth:`decompose` equals the batch path bit for bit.
    """

    def __init__(self, half_length: int, dim: int):
        self._n = _half_length(half_length)
        self._d = _whole_number(dim, "dimension")
        if self._d < 1:
            raise ValueError("dimension must be at least 1")
        self._obs = deque(maxlen=2 * self._n)  # copies of the observations
        # Set at warm-up by _reanchor, all oldest first: the anchor row, L.R of
        # the current window and the last n + 1 entries of the kernel's S1, S2
        # (_pre, _pre_sq), D, |D|^2 (_half, _half_sq) and n Q - |D|^2 (_seg),
        # as each slide extends them; the halves are [0] and [-1].
        self._anchor = self._cross = self._pre = self._pre_sq = None
        self._half = self._half_sq = self._seg = None
        self._slides = 0  # slides since the last anchor
        self._rows = np.zeros((3, self._d))  # reused rows: c, the new D and L

    @classmethod
    def from_observations(cls, observations, half_length: int | None = None) -> "ObservationWindow":
        """Build a window by sliding in a block of observations.

        With ``half_length`` omitted the block must have even length 2n and
        fills the window exactly.
        """
        mat = _as_matrix(observations)
        if half_length is None:
            if mat.shape[0] % 2:
                raise ValueError("need an even number of observations")
            half_length = mat.shape[0] // 2
        win = cls(half_length, mat.shape[1])
        for row in mat:
            win.slide(row)
        return win

    @property
    def half_length(self) -> int:
        return self._n

    @property
    def dimension(self) -> int:
        return self._d

    @property
    def count(self) -> int:
        """Observations currently buffered (at most 2n)."""
        return len(self._obs)

    @property
    def is_warm(self) -> bool:
        return len(self._obs) == 2 * self._n

    def left_half(self) -> np.ndarray:
        """Copy of the n oldest observations, oldest first (warm windows only)."""
        self._require_warm()
        return np.array(self._obs)[: self._n]

    def right_half(self) -> np.ndarray:
        """Copy of the n newest observations, oldest first (warm windows only)."""
        self._require_warm()
        return np.array(self._obs)[self._n :]

    def _require_warm(self) -> None:
        if not self.is_warm:
            raise ValueError(
                f"window not warm: has {self.count} of {2 * self._n} observations"
            )

    def _reanchor(self) -> None:
        """Rebuild the sums on the oldest buffered row, as the batch path anchors a block."""
        n = self._n
        rows = np.array(self._obs)
        s1, s2 = _anchored_block(rows)
        half, half_sq, seg, cross = _half_windows(s1, s2, n)
        self._anchor, self._cross = rows[0], float(cross[0])
        self._pre, self._pre_sq = deque(s1[n:], n + 1), deque(s2[n:].tolist(), n + 1)
        self._half, self._half_sq = deque(half, n + 1), deque(half_sq.tolist(), n + 1)
        self._seg = deque(seg.tolist(), n + 1)
        self._slides = 0

    def slide(self, incoming) -> "ObservationWindow":
        """Feed one observation; fills the window during warm-up, slides after.

        Returns the (mutated) window itself.
        """
        n, obs = self._n, self._obs
        if len(obs) < 2 * n:
            obs.append(_as_observation(incoming, self._d).copy())
            if len(obs) == 2 * n:
                self._reanchor()
            return self

        y = np.array(incoming, dtype=float)
        if y.shape != self._anchor.shape:
            y = _as_observation(y, self._d)
        # The batch path's order at the new prefix position p: S1[p] =
        # S1[p - 1] + c and D = S1[p] - S1[p - n], with the new window's left
        # half L = D[p - 2n].
        rows, pre, pre_sq, half = self._rows, self._pre, self._pre_sq, self._half
        np.subtract(y, self._anchor, out=rows[0])
        s1 = pre[-1] + rows[0]
        np.subtract(s1, pre[1], out=rows[1])
        rows[2] = half[1]
        # |c|^2, |D|^2 and L.R in one einsum over several rows, as the batch
        # path reduces them (einsum splits a lone long row differently).
        sq, half_sq, cross = np.einsum("ij,ij->i", rows, rows[[0, 1, 1]]).tolist()
        # The squared norm is non-finite if the observation is (or overflows).
        if not math.isfinite(sq) and not np.all(np.isfinite(y)):
            raise ValueError("observation contains non-finite values")
        s2 = pre_sq[-1] + sq
        self._seg.append((s2 - pre_sq[1]) * n - half_sq)
        pre.append(s1)
        pre_sq.append(s2)
        half.append(rows[1].copy())
        self._half_sq.append(half_sq)
        self._cross = cross
        obs.append(y)
        self._slides += 1
        if self._slides == _BLOCK:
            self._reanchor()
        return self

    def decompose(self) -> SpanningDecomposition:
        """Spanning decomposition of the current warm window."""
        self._require_warm()
        half_sq, seg_left, seg_right = self._half_sq, self._seg[0], self._seg[-1]
        # The batch path's order: (|L|^2 + |R|^2 - 2 L.R) + 2 (w_left + w_right),
        # then negative cancellation residue is clamped to zero.
        w_full = self._cross * -2.0 + half_sq[0] + half_sq[-1] + 2.0 * (seg_left + seg_right)
        w_full, w_left, w_right = max(w_full, 0.0), max(seg_left, 0.0), max(seg_right, 0.0)
        w_btw = max(w_full - w_left - w_right, 0.0)
        w_rem = w_full - 2.0 * (w_left + w_right)
        return SpanningDecomposition(w_full, w_left, w_right, w_rem, w_btw)


class SlidingStats(NamedTuple):
    """Vectorised spanning statistics of every warm position of one window length, or several.

    ``clocks[i]`` is the 1-based stream position of the newest observation in
    the i-th window; the candidate change time of that window is
    ``clocks[i] - n + 1``.  For a batch of streams the distances carry the
    batch axes after the position axis.  Several window lengths add a last
    axis, one column per length: rows run from the shortest length's first
    warm window, and a longer length's rows before its own first warm window
    read NaN.
    """

    clocks: np.ndarray
    w_left: np.ndarray
    w_right: np.ndarray
    w_full: np.ndarray


def _anchored_block(block: np.ndarray, s1=None, s2=None):
    """Prefix sums of blocks of m rows, each centred on its first row.

    ``block`` is (m, d), or (m, ..., d) for a batch of independent blocks whose
    axes sit between the row and coordinate axes; each is summed as one (m, d)
    block is, and both outputs keep the row axis first.  Returns ``S1``/``S2``,
    the prefix sums of the centred rows and of their squared norms from a zero
    row on, in the buffers ``s1`` and ``s2`` when given (m + 1 rows or more, row
    0 zero).  The sums are sequential, so the first r + 1 rows of the result are
    the result for the first r rows of the block.  Non-finite input raises.

    ``np.cumsum`` down the rows adds each column as one dependent chain, which
    leaves short, wide batches latency-bound; a batch whose rows hold at least
    ``_ROW_SUM_MIN`` values (``S1``'s and ``S2``'s each by its own width) is
    summed one whole row at a time instead, with the same additions in the same
    order.  A single (m, d) stream keeps ``cumsum`` at every d: a row loop
    would speed up its wide scans but not the fixed per-call cost of narrow
    ones, and so skew the cost-per-dimension slope that the acceptance tests
    bound.
    """
    m = len(block)
    if s1 is None:
        s1, s2 = np.zeros((m + 1, *block.shape[1:])), np.zeros((m + 1, *block.shape[1:-1]))
    centred, sq = s1[1 : m + 1], s2[1 : m + 1]
    np.subtract(block, block[0], out=centred)
    np.einsum("...j,...j->...", centred, centred, out=sq)
    for sums in (centred, sq):
        if block.ndim > 2 and sums[:1].size >= _ROW_SUM_MIN:
            for i in range(1, m):  # cumsum's additions, in its order
                np.add(sums[i - 1], sums[i], out=sums[i])
        else:
            np.cumsum(sums, axis=0, out=sums)
    # The sums of squares are non-finite if any input is (or overflows).
    if not all(map(math.isfinite, sq[-1:].flat)) and not np.all(np.isfinite(block)):
        raise _NonFiniteError(_NON_FINITE)
    return s1[: m + 1], s2[: m + 1]


def _half_windows(s1: np.ndarray, s2: np.ndarray, n: int, sums=None):
    """Sums of the half-windows of n rows, from :func:`_anchored_block`'s m + 1 rows of sums.

    For each half-window r: ``D[r] = S1[r + n] - S1[r]``, ``|D[r]|^2`` and its
    spanning distance before clamping, ``seg[r] = n (S2[r + n] - S2[r]) - |D[r]|^2``;
    and ``D[r].D[r + n]`` for each window.  The buffer ``sums`` (zeroed when
    omitted) holds at least m + 2 - n rows with ``sums[m + 1 - n]`` finite: a
    spare row, whatever it holds, as every einsum must reduce two rows or more
    (it splits a lone row longer than its buffer differently).
    """
    k = s1.shape[0] - n
    if sums is None:
        sums = np.zeros((k + 1, *s1.shape[1:]))
    dn = np.subtract(s1[n:], s1[:k], out=sums[:k])
    dn_sq = np.einsum("...j,...j->...", sums[: k + 1], sums[: k + 1])[:k]
    pairs = max(k - n, 2) if k > n else 0  # a block of one half-window has no pair
    cross = np.einsum("...j,...j->...", sums[:pairs], sums[n : n + pairs])
    return dn, dn_sq, (s2[n:] - s2[:k]) * n - dn_sq, cross[: k - n]


def _scan_buffers(shape, lengths):
    """Block buffers of :func:`_window_scan` for input of ``shape``: S1, S2 and every n's sums."""
    t_len, *batch, d = shape
    rows = min(_BLOCK + 2 * max(lengths) - 1, t_len)
    sums = max(min(t_len - 2 * n + 1, _BLOCK) + n + 1 for n in lengths)
    s1, s2 = np.zeros((rows + 1, *batch, d)), np.zeros((rows + 1, *batch))
    return s1, s2, np.zeros((sums, *batch, d))


def _window_scan(y: np.ndarray, lengths, buffers=None) -> SlidingStats:
    """Clamped spanning distances of every warm 2n-window of ``y``, for all n in ``lengths``.

    ``y`` is a (T, d) stream, or a (T, ..., d) batch of streams as
    :func:`_anchored_block` takes.  The result has one row per clock from
    ``2 min(n)`` to T and one column per n, in the order given, after any batch
    axes; n's window ending at clock c is on row ``c - 2 min(n)``, and its rows
    before clock 2n read NaN.  Window positions are taken in blocks of
    ``_BLOCK``, each anchored on its first window's first row: the same rows
    for every n.  One prefix pass over ``_BLOCK + 2 max(n) - 1`` rows serves
    every n, whose own ``_BLOCK + 2n - 1`` rows are a prefix of it, and each n
    writes straight into its column of the output.  The window whose halves are
    ``L = D[j]`` and ``R = D[j + n]`` has ``w_left = seg[j]``,
    ``w_right = seg[j + n]`` and ``w_full = (|L|^2 + |R|^2 - 2 L.R) + 2 (w_left + w_right)``,
    each clamped at zero.  Temporaries are O(_BLOCK d) per stream on top of the
    outputs; a caller scanning many batches of one shape passes the same
    ``buffers`` from :func:`_scan_buffers` each time, rather than allocating
    them per call.
    """
    t_len, *batch, d = y.shape
    s1, s2, sums = buffers or _scan_buffers(y.shape, lengths)
    rows, first = s1.shape[0] - 1, 2 * min(lengths)
    # Each n's distances are contiguous, column by column.
    out = np.empty((3, len(lengths), t_len - first + 1, *batch))
    for j, n in enumerate(lengths):
        out[:, j, : 2 * n - first] = np.nan  # not warm yet
    with np.errstate(invalid="ignore"):  # non-finite input raises in _anchored_block
        for lo in range(0, t_len - first + 1, _BLOCK):
            m = min(rows, t_len - lo)
            _anchored_block(y[lo : lo + m], s1, s2)
            for j, n in enumerate(lengths):
                m_n = min(m, _BLOCK + 2 * n - 1)
                if m_n < 2 * n:  # every window of this n is done
                    continue
                _, dn_sq, seg, cross = _half_windows(s1[: m_n + 1], s2[: m_n + 1], n, sums)
                row = lo + 2 * n - first
                w = out[:, j, row : row + m_n + 1 - 2 * n]
                w_full = np.add(seg[:-n], seg[n:], out=w[2])
                w_full *= 2.0
                w_full += cross * -2.0 + dn_sq[:-n] + dn_sq[n:]
                np.maximum(w_full, 0.0, out=w_full)  # the true distances are nonnegative
                np.maximum(seg[:-n], 0.0, out=w[0])
                np.maximum(seg[n:], 0.0, out=w[1])
    return SlidingStats(np.arange(first, t_len + 1), *np.moveaxis(out, 1, -1))


def sliding_spanning_stats(stream, half_length: int | Sequence[int]) -> SlidingStats:
    """Half/full spanning distances for every warm 2n-window of a stream.

    Equal, bit for bit, to building an ``ObservationWindow`` and sliding
    through the stream, but computed in O(T d) from prefix sums.  Window
    positions are taken in blocks of ``_BLOCK``, whose ``_BLOCK + 2n - 1`` rows
    are anchored on the first.  Temporaries are O(_BLOCK d) on top of the O(T)
    outputs.

    ``half_length`` is one n, or a sequence of them scanned in one prefix pass
    per block.  A sequence gives (position, length) distances, one column per
    n in the order given, on the clocks from ``2 min(n)`` on: column j equals
    ``sliding_spanning_stats(stream, half_length[j])`` bit for bit from row
    ``2 (n_j - min(n))`` on, and reads NaN on the rows before.
    """
    y = _stack_rows(stream)
    single = np.ndim(half_length) == 0
    lengths = [_half_length(n) for n in ([half_length] if single else half_length)]
    if not lengths:
        raise ValueError("at least one window half-length is required")
    t_len = y.shape[0]
    for n in lengths:
        if t_len < 2 * n:
            raise ValueError(f"stream of length {t_len} never warms a 2x{n} window")
    stats = _window_scan(y, lengths)
    return _column(stats, 0, lengths[0]) if single else stats


def _column(stats: SlidingStats, j: int, n: int) -> SlidingStats:
    """Column j, of length n, of several lengths' statistics, from its first warm window on."""
    row = 2 * n - stats.clocks[0]
    return SlidingStats(stats.clocks[row:], *(w[row:, ..., j] for w in stats[1:]))
