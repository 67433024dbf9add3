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
for all window lengths at once, into one output; blocks do not depend on each
other, so a long stream of wide blocks is scanned on two threads, each with
block buffers of its own.  The loop serves a stream
(``sliding_spanning_stats``, for one window length or several), a batch of
Monte Carlo calibration sequences and a batch of static 2n-windows, each
anchored on its own first row.  A block with fewer window positions p than
n forms only the half-windows those windows span, [0, p) and [n, n + p): two
for a static window rather than n + 1.
``spanning_distance`` is one half-window.  ``ObservationWindow`` keeps the batch
path's sums incrementally, for one window length or several, and equals it bit
for bit: each observation is checked once and added to the prefix sums of the
anchor rows in use, which every length shares (one anchor, but for the
2 max(n) rows after each new one), and each length takes its halves at O(d).
The rounding error grows with the data's spread between a window and its
anchor, not with its stream position.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import _checks

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

# Values per anchored block from which a single stream's blocks are scanned on
# two threads (see _window_scan).  Split against serial, detect_stream over 12.8
# million values with windows (20, 35, 50) ran 0.76x at d=8, 0.96x at d=24 (51k
# values a block), 1.10x at d=32, 1.30x at d=64 and 1.37x at d=100 (median of
# 12 alternating pairs, 2-CPU Xeon, numpy 2.4).
_SPLIT_VALUES = 2**16

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


def _stack_rows(observations) -> np.ndarray:
    """Coerce a block of observations to an (m, d) float matrix, d at least 1.

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
    _checks.whole(mat.shape[1], "dimension", 1)
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
    seg = _half_windows(*_anchored_block(mat), m)[1]
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
    """The last 2n observations, oldest first, with anchored prefix sums, for one n or several.

    The left half holds the n oldest buffered observations, the right half the
    n newest.  Observations are fed one at a time with :meth:`slide`; the
    window is *warm* once 2n have been seen, after which each slide evicts the
    oldest observation, migrates the boundary observation from the right half
    to the left, and appends the incoming one.

    ``half_length`` may be a sequence of distinct lengths: one slide then
    checks and copies the observation once and extends one set of prefix sums
    for every length.  :meth:`decompose` takes the length to decompose, and
    the other methods and properties refer to the longest length.

    A window is a single-owner value: slides mutate it in place and return it
    for convenience, and it keeps its own copy of each observation.  Its sums
    are anchored on every ``_BLOCK``-th row from its first observation on, the
    rows that ``sliding_spanning_stats`` anchors on, so constant streams yield
    exactly zero distances and :meth:`decompose` equals the batch path bit for
    bit.  Each anchor row A starts a history of the kernel's ``S1`` and ``S2``
    centred on that row, from ``S1[0] = 0``, of which the latest 2 max(n)
    positions are kept.  Length n's window starting at row q reads the history
    anchored on ``q - q % _BLOCK``, as ``_blocks`` anchors it, so an older
    history is extended until the longest window starts at or after the next
    anchor: about 2 max(n) rows in each ``_BLOCK``.
    """

    def __init__(self, half_length: int | Sequence[int], dim: int):
        lengths = _checks.half_lengths([half_length] if np.ndim(half_length) == 0 else half_length)
        self._lengths = lengths = tuple(sorted(lengths))
        self._dim = dim = _checks.whole(dim, "dimension", 1)
        self._n, k = lengths[-1], len(lengths)
        self._clock = 0  # observations accepted
        self._obs = deque(maxlen=2 * self._n)  # copies of the latest observations
        # Per live anchor, oldest first: its row index, the row, and its S1 and S2 histories.
        self._histories: list = []
        self._sums: dict = {}  # warm n: |L|^2, |R|^2, L.R, w_left and w_right before clamping
        # Reused rows c, L and R of each n, and a spare: every einsum reduces two
        # rows or more, as the batch path reduces them (einsum splits a lone long
        # row differently).  A length's rows stay zero until it is warm.
        self._rows = rows = np.zeros((2 * k + 2, dim))
        # Each n's L against its R, and then the shortest n's R against the spare.
        self._pairs = (rows[1 : k + 2], rows[k + 1 :])
        # Each n's rows, and -1: the history every length reads while only one is in use.
        self._slots = [(n, rows[1 + i], rows[1 + k + i], -1) for i, n in enumerate(lengths)]
        self._older = np.zeros((2, dim))  # c on an older anchor, and a spare

    @classmethod
    def from_observations(cls, observations) -> "ObservationWindow":
        """Build a window by sliding in a block of 2n observations, which fills it exactly."""
        mat = _as_matrix(observations)
        if mat.shape[0] % 2:
            raise ValueError("need an even number of observations")
        win = cls(mat.shape[0] // 2, mat.shape[1])
        for row in mat:
            win.slide(row)
        return win

    @property
    def half_length(self) -> int:
        return self._n

    @property
    def dimension(self) -> int:
        return self._dim

    @property
    def count(self) -> int:
        """Observations currently buffered (at most 2n)."""
        return min(self._clock, 2 * self._n)

    @property
    def is_warm(self) -> bool:
        return self._clock >= 2 * self._n

    def left_half(self) -> np.ndarray:
        """Copy of the n oldest observations, oldest first (warm windows only)."""
        self._require_warm(self._n)
        return np.array(self._obs)[-2 * self._n : -self._n]

    def right_half(self) -> np.ndarray:
        """Copy of the n newest observations, oldest first (warm windows only)."""
        self._require_warm(self._n)
        return np.array(self._obs)[-self._n :]

    def _require_warm(self, n) -> None:
        lengths, clock = self._lengths, self._clock
        if n not in lengths:
            raise ValueError(f"no window of half-length {n!r}: the half-lengths are {lengths}")
        if clock < 2 * n:
            raise ValueError(f"window not warm: has {min(clock, 2 * n)} of {2 * n} observations")

    def slide(self, incoming) -> "ObservationWindow":
        """Feed one observation to the window of every length.

        Each live history's ``S1`` and ``S2`` are extended by the row in the
        batch path's order, ``S1[p] = S1[p - 1] + c``, and each warm n takes
        ``L = S1[p - n] - S1[p - 2n]`` and ``R = S1[p] - S1[p - n]`` from the
        history it reads; one einsum gives the squared norms of c and of every
        L and R, and one the cross products.  A rejected observation changes
        nothing.  Returns the (mutated) window itself.
        """
        dim, depth, rows = self._dim, 2 * self._n, self._rows
        y = np.array(incoming, dtype=float)
        if y.shape != (dim,):
            y = _as_observation(y, dim)
        clock, block, histories = self._clock + 1, _BLOCK, self._histories
        if histories and clock - depth >= histories[0][0] + block:
            histories = histories[1:]  # the longest window has left the oldest anchor's block
        newest = (clock - 1) // block  # the anchor block of the incoming row
        if newest * block == clock - 1:  # an anchor row, checked in full before it anchors
            y = _as_observation(y, dim)
            start = (clock - 1, y, deque([np.zeros(dim)], depth), deque([0.0], depth))
            histories = [*histories, start]
        # Each history's S1 at the new row, and |c|^2 on the older anchors.
        s1s, sqs, older = [], [], self._older
        for _, anchor, pre, _ in histories[:-1]:
            s1s.append(pre[-1] + np.subtract(y, anchor, out=older[0]))
            sqs.append(np.einsum("ij,ij->i", older, older).tolist()[0])
        _, anchor, pre, _ = histories[-1]
        s1s.append(pre[-1] + np.subtract(y, anchor, out=rows[0]))  # c, in the row buffer
        # Each warm n's rows, and the history its window reads, counted from the newest.
        if len(histories) == 1 and clock >= depth:
            warm = self._slots  # every length is warm and reads the one history
        else:
            warm = [(n, left, right, (clock - 2 * n) // block - newest - 1)
                    for n, left, right, _ in self._slots if 2 * n <= clock]
        for n, left, right, h in warm:
            pre = histories[h][2]
            np.subtract(pre[-n], pre[-2 * n], out=left)
            np.subtract(s1s[h], pre[-n], out=right)
        norms = np.einsum("ij,ij->i", rows, rows).tolist()
        cross = np.einsum("ij,ij->i", *self._pairs).tolist()
        # The squared norm is non-finite if the observation is (or overflows).
        if not math.isfinite(norms[0]) and not np.all(np.isfinite(y)):
            raise ValueError("observation contains non-finite values")

        sqs.append(norms[0])
        s2s = [history[3][-1] + sq for history, sq in zip(histories, sqs)]
        sums, right_norms = {}, norms[1 + len(self._slots) :]
        for (n, _, _, h), left_sq, right_sq, lr in zip(warm, norms[1:], right_norms, cross):
            pre_sq = histories[h][3]
            w_left = (pre_sq[-n] - pre_sq[-2 * n]) * n - left_sq
            sums[n] = (left_sq, right_sq, lr, w_left, (s2s[h] - pre_sq[-n]) * n - right_sq)
        for (_, _, pre, pre_sq), s1, s2 in zip(histories, s1s, s2s):
            pre.append(s1)
            pre_sq.append(s2)
        self._obs.append(y)
        self._clock, self._histories, self._sums = clock, histories, sums
        return self

    def decompose(self, half_length: int | None = None) -> SpanningDecomposition:
        """Spanning decomposition of the current warm window of length ``half_length``.

        ``None`` names the window's own length, the longest of several.
        """
        n = self._n if half_length is None else half_length
        sums = self._sums.get(n)
        if sums is None:
            self._require_warm(n)
        left_sq, right_sq, cross, w_left, w_right = sums
        # The batch path's order: (|L|^2 + |R|^2 - 2 L.R) + 2 (w_left + w_right),
        # then negative cancellation residue is clamped to zero, each clamp exactly
        # max(x, 0.0) without the builtin's call.
        w_full = cross * -2.0 + left_sq + right_sq + 2.0 * (w_left + w_right)
        w_full = 0.0 if w_full < 0.0 else w_full
        w_left = 0.0 if w_left < 0.0 else w_left
        w_right = 0.0 if w_right < 0.0 else w_right
        w_btw = w_full - w_left - w_right
        # Filled in place, as detector._build_events fills events: twice as fast as __init__.
        decomp = object.__new__(SpanningDecomposition)
        attrs = decomp.__dict__
        attrs["w_full"], attrs["w_left"], attrs["w_right"] = w_full, w_left, w_right
        attrs["w_rem"] = w_full - 2.0 * (w_left + w_right)
        attrs["w_btw"] = 0.0 if w_btw < 0.0 else w_btw
        return decomp


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
    and ``D[r].D[r + n]`` for each of the p = m + 1 - 2n windows.  When
    0 < p < n only the half-windows that some window spans are formed: the
    left halves [0, p) and the right halves [n, n + p), one after the other.
    Returns |D|^2 and seg of the half-windows formed, the cross products, and
    the slices of the formed rows that hold the windows' left and right halves.
    The buffer ``sums`` (zeroed when omitted) holds at least m + 2 - n rows of
    D, with the row after the formed ones finite: a spare row, whatever it
    holds, as every einsum must reduce two rows or more (it splits a lone row
    longer than its buffer differently).
    """
    k = s1.shape[0] - n  # half-windows
    p = k - n  # windows
    starts, rows = ((0, n), p) if 0 < p < n else ((0,), k)
    formed = len(starts) * rows
    if sums is None:
        sums = np.zeros((k + 1, *s1.shape[1:]))
    seg = np.empty((formed, *s2.shape[1:]))
    for i, r in enumerate(starts):
        at = slice(i * rows, (i + 1) * rows)
        np.subtract(s1[r + n : r + n + rows], s1[r : r + rows], out=sums[at])
        np.subtract(s2[r + n : r + n + rows], s2[r : r + rows], out=seg[at])
    dn_sq = np.einsum("...j,...j->...", sums[: formed + 1], sums[: formed + 1])[:formed]
    seg *= n
    seg -= dn_sq
    right = formed - p  # the first right half
    pairs = max(p, 2) if p > 0 else 0  # a block of one half-window has no pair
    cross = np.einsum("...j,...j->...", sums[:pairs], sums[right : right + pairs])
    return dn_sq, seg, cross[:p], (slice(0, p), slice(right, formed))


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
    for every n (see :func:`_blocks`).  Temporaries are O(_BLOCK d) per stream
    and per thread on top of the outputs; a caller scanning many batches of one
    shape passes the same ``buffers`` from :func:`_scan_buffers` each time,
    rather than allocating them per call.

    A single stream of two blocks or more, each of at least ``_SPLIT_VALUES``
    values, is scanned on two threads when the process may run on more than one
    CPU: a helper thread with buffers of its own scans the second half of the
    blocks, in a copy of the caller's context, while the calling thread scans
    the first.  numpy's loops run without the GIL, so the halves overlap; each
    writes its own rows of the output, so the result is the serial scan's, bit
    for bit.  The helper is joined on every way out.  When the caller's half
    raises, the helper stops at its next block and the caller's error is
    raised, as the serial scan would raise it before reaching the second half.
    """
    t_len, *batch, d = y.shape
    buffers = buffers or _scan_buffers(y.shape, lengths)
    first = 2 * min(lengths)
    # Each n's distances are contiguous, column by column.
    out = np.empty((3, len(lengths), t_len - first + 1, *batch))
    for j, n in enumerate(lengths):
        out[:, j, : 2 * n - first] = np.nan  # not warm yet
    starts = range(0, t_len - first + 1, _BLOCK)
    half = len(starts) // 2
    if batch or not half or (buffers[0].shape[0] - 1) * d < _SPLIT_VALUES or _cpus() < 2:
        _blocks(y, starts, lengths, buffers, out, first)
    else:
        stop = threading.Event()
        with ThreadPoolExecutor(max_workers=1) as helper:
            rest = helper.submit(
                contextvars.copy_context().run, _blocks,
                y, starts[half:], lengths, _scan_buffers(y.shape, lengths), out, first, stop=stop,
            )
            try:
                _blocks(y, starts[:half], lengths, buffers, out, first)
            except BaseException:
                stop.set()
                raise
            rest.result()
    return SlidingStats(np.arange(first, t_len + 1), *np.moveaxis(out, 1, -1))


def _blocks(y: np.ndarray, starts, lengths, buffers, out: np.ndarray, first: int, stop=None):
    """Scan the blocks of :func:`_window_scan` that start at window positions ``starts``,
    up to the first block that starts once the event ``stop``, if given, is set.

    One prefix pass over the block's ``_BLOCK + 2 max(n) - 1`` rows serves
    every n, whose own ``_BLOCK + 2n - 1`` rows are a prefix of it, and each n
    writes straight into its column of ``out``, on the block's own rows.  The
    window whose halves are ``L = D[j]`` and ``R = D[j + n]`` has
    ``w_left = seg[j]``, ``w_right = seg[j + n]`` and
    ``w_full = (|L|^2 + |R|^2 - 2 L.R) + 2 (w_left + w_right)``, each clamped
    at zero; a block of fewer than n windows forms only these halves.
    """
    s1, s2, sums = buffers
    rows, t_len = s1.shape[0] - 1, y.shape[0]
    # Set here, on the thread that scans: a helper thread does not inherit it
    # under numpy 1.  Non-finite input raises in _anchored_block.
    with np.errstate(invalid="ignore"):
        for lo in starts:
            if stop is not None and stop.is_set():
                return
            m = min(rows, t_len - lo)
            _anchored_block(y[lo : lo + m], s1, s2)
            for j, n in enumerate(lengths):
                m_n = min(m, _BLOCK + 2 * n - 1)
                if m_n < 2 * n:  # every window of this n is done
                    continue
                dn_sq, seg, cross, (left, right) = _half_windows(
                    s1[: m_n + 1], s2[: m_n + 1], n, sums
                )
                row = lo + 2 * n - first
                w = out[:, j, row : row + m_n + 1 - 2 * n]
                w_full = np.add(seg[left], seg[right], out=w[2])
                w_full *= 2.0
                w_full += cross * -2.0 + dn_sq[left] + dn_sq[right]
                np.maximum(w_full, 0.0, out=w_full)  # the true distances are nonnegative
                np.maximum(seg[left], 0.0, out=w[0])
                np.maximum(seg[right], 0.0, out=w[1])


def _cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def sliding_spanning_stats(stream, half_length: int | Sequence[int]) -> SlidingStats:
    """Half/full spanning distances for every warm 2n-window of a stream.

    Equal, bit for bit, to building an ``ObservationWindow`` and sliding
    through the stream, but computed in O(T d) from prefix sums.  Window
    positions are taken in blocks of ``_BLOCK``, whose ``_BLOCK + 2n - 1`` rows
    are anchored on the first; a long stream of wide blocks is scanned on two
    threads.  Temporaries are O(_BLOCK d) per thread on top of the O(T) outputs.

    ``half_length`` is one n, or a sequence of distinct ones scanned in one
    prefix pass per block.  A sequence gives (position, length) distances, one
    column per n in the order given, on the clocks from ``2 min(n)`` on: column j equals
    ``sliding_spanning_stats(stream, half_length[j])`` bit for bit from row
    ``2 (n_j - min(n))`` on, and reads NaN on the rows before.
    """
    y = _stack_rows(stream)
    single = np.ndim(half_length) == 0
    lengths = _checks.half_lengths([half_length] if single else half_length)
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
