"""Complete-graph spanning distances over sliding observation windows.

The spanning distance of a block of observations is the sum of squared
Euclidean distances over all unordered pairs.  A scanning window of 2n
observations is split into an older ("left") and a newer ("right") half of n
observations each; the decomposition of the full-window distance into the two
half distances, the cross ("between") distance and a residual term is the raw
material for the change-point ratio statistics.

``ObservationWindow`` maintains the per-half sufficient statistics (sum and
sum of squared norms) incrementally, so sliding in one observation costs
O(d) per window instead of the O(n^2 d) a pairwise recomputation would need.
``sliding_spanning_stats`` is the vectorised equivalent for a stream that is
fully in memory.  It walks the stream in fixed blocks of window positions and
re-anchors its prefix sums on each block's first row (the shifted update of
Chan, Golub & LeVeque), so its temporaries are O(block * d) on top of the O(T)
outputs, and its rounding error grows with the data's distance from the block
anchor rather than from the start of the stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "SpanningDecomposition",
    "ObservationWindow",
    "SlidingStats",
    "spanning_distance",
    "sliding_spanning_stats",
]

# From-scratch refresh cadence, in slides, per window of half-length n.
# Bounds floating-point drift of the running sums on long streams.
_REFRESH_SLIDES_PER_N = 4

# Window positions per block of the batch path.  Each block re-reads the 2n - 1
# rows it shares with the next and pays a fixed cost in numpy calls, which
# weighs on long low-dimensional streams; the rounding error grows with the
# data's spread over a block, which favours short blocks.
_BLOCK = 2048

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


def _segment_distance(m: int, ssum: np.ndarray, ssq: float) -> float:
    """Spanning distance of m observations from their sum and sum of squared norms.

    Uses the identity sum_{i<j} ||Y_i - Y_j||^2 = m * sum ||Y_i||^2 - ||sum Y_i||^2,
    which is exact in real arithmetic.  The true value is nonnegative, so tiny
    negative residue from cancellation is clamped to zero.
    """
    raw = m * ssq - float(ssum @ ssum)
    return raw if raw > 0.0 else 0.0


def spanning_distance(observations) -> float:
    """Sum of squared Euclidean distances over all unordered observation pairs.

    Parameters
    ----------
    observations : array-like
        Sequence of at least two equal-dimension vectors, or an (m, d) array.

    Returns
    -------
    float
        Nonnegative spanning distance of the complete graph on the block.
    """
    mat = _as_matrix(observations)
    m = mat.shape[0]
    if m < 2:
        raise ValueError("spanning distance needs at least 2 observations")
    # Anchor on the first observation: shift invariant in exact arithmetic and
    # exactly zero for blocks of identical points.
    centered = mat - mat[0]
    ssq = float(np.einsum("ij,ij->", centered, centered))
    ssum = centered.sum(axis=0)
    return _segment_distance(m, ssum, ssq)


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
    """Ring buffer of the last 2n observations with incremental half statistics.

    The left half holds the n oldest buffered observations, the right half the
    n newest.  Observations are fed one at a time with :meth:`slide`; the
    window is *warm* once 2n have been seen, after which each slide evicts the
    oldest observation, migrates the boundary observation from the right half
    to the left, and appends the incoming one.

    A window is a single-owner value: slides mutate it in place and return it
    for convenience.  All statistics are maintained relative to an anchor
    observation so that constant streams yield exactly zero distances and
    affine re-scalings of the data leave the ratio statistics unchanged.
    """

    def __init__(self, half_length: int, dim: int):
        if half_length < 2:
            raise ValueError("window half-length must be at least 2")
        if dim < 1:
            raise ValueError("dimension must be at least 1")
        self._n = int(half_length)
        self._d = int(dim)
        self._buf = np.zeros((2 * self._n, self._d))
        self._head = 0  # index of the oldest observation once warm
        self._count = 0
        self._anchor = np.zeros(self._d)
        self._sum_left = np.zeros(self._d)
        self._sum_right = np.zeros(self._d)
        self._sumsq_left = 0.0
        self._sumsq_right = 0.0
        self._slides_since_refresh = 0

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
        return min(self._count, 2 * self._n)

    @property
    def is_warm(self) -> bool:
        return self._count >= 2 * self._n

    def left_half(self) -> np.ndarray:
        """Copy of the n oldest observations, oldest first (warm windows only)."""
        self._require_warm()
        idx = [(self._head + i) % (2 * self._n) for i in range(self._n)]
        return self._buf[idx].copy()

    def right_half(self) -> np.ndarray:
        """Copy of the n newest observations, oldest first (warm windows only)."""
        self._require_warm()
        idx = [(self._head + self._n + i) % (2 * self._n) for i in range(self._n)]
        return self._buf[idx].copy()

    def _require_warm(self) -> None:
        if not self.is_warm:
            raise ValueError(
                f"window not warm: has {self.count} of {2 * self._n} observations"
            )

    def _recompute(self) -> None:
        """Rebuild anchor and running statistics from the buffer."""
        order = [(self._head + i) % (2 * self._n) for i in range(2 * self._n)]
        data = self._buf[order]
        self._anchor = data[0].copy()
        centered = data - self._anchor
        left, right = centered[: self._n], centered[self._n :]
        self._sum_left = left.sum(axis=0)
        self._sum_right = right.sum(axis=0)
        self._sumsq_left = float(np.einsum("ij,ij->", left, left))
        self._sumsq_right = float(np.einsum("ij,ij->", right, right))
        self._slides_since_refresh = 0

    def slide(self, incoming) -> "ObservationWindow":
        """Feed one observation; fills the window during warm-up, slides after.

        Returns the (mutated) window itself.
        """
        y = _as_observation(incoming, self._d)
        cap = 2 * self._n
        if self._count < cap:
            self._buf[self._count] = y
            self._count += 1
            if self._count == cap:
                self._recompute()
            return self

        old = self._buf[self._head]
        boundary = self._buf[(self._head + self._n) % cap]
        y_old = old - self._anchor
        y_bnd = boundary - self._anchor
        y_new = y - self._anchor
        self._sum_left += y_bnd - y_old
        self._sumsq_left += float(y_bnd @ y_bnd) - float(y_old @ y_old)
        self._sum_right += y_new - y_bnd
        self._sumsq_right += float(y_new @ y_new) - float(y_bnd @ y_bnd)
        self._buf[self._head] = y
        self._head = (self._head + 1) % cap
        self._count += 1
        self._slides_since_refresh += 1
        if self._slides_since_refresh >= _REFRESH_SLIDES_PER_N * self._n:
            self._recompute()
        return self

    def decompose(self) -> SpanningDecomposition:
        """Spanning decomposition of the current warm window."""
        self._require_warm()
        n = self._n
        w_left = _segment_distance(n, self._sum_left, self._sumsq_left)
        w_right = _segment_distance(n, self._sum_right, self._sumsq_right)
        w_full = _segment_distance(
            2 * n, self._sum_left + self._sum_right, self._sumsq_left + self._sumsq_right
        )
        w_btw = w_full - w_left - w_right
        if w_btw < 0.0:
            w_btw = 0.0
        w_rem = w_full - 2.0 * (w_left + w_right)
        return SpanningDecomposition(w_full, w_left, w_right, w_rem, w_btw)


class SlidingStats(NamedTuple):
    """Vectorised spanning statistics of every warm position of one window length.

    ``clocks[i]`` is the 1-based stream position of the newest observation in
    the i-th window; the candidate change time of that window is
    ``clocks[i] - n + 1``.
    """

    clocks: np.ndarray
    w_left: np.ndarray
    w_right: np.ndarray
    w_full: np.ndarray


def sliding_spanning_stats(stream, half_length: int) -> SlidingStats:
    """Half/full spanning distances for every warm 2n-window of a stream.

    Equivalent (to numerical tolerance) to building an ``ObservationWindow``
    and sliding through the stream, but computed in O(T d) from prefix sums.
    Window positions are taken in blocks of ``_BLOCK``.  Each block centres
    the ``_BLOCK + 2n - 1`` rows its windows cover on the first of them; with
    ``S1``/``S2`` the prefix sums of the centred rows and of their squared
    norms, the n-row sums ``D = S1[n:] - S1[:-n]`` and
    ``Q = S2[n:] - S2[:-n]`` give, for the window whose halves are
    ``L = D[j]`` and ``R = D[j + n]``,

        w_left  = n Q[j] - |L|^2,    w_right = n Q[j + n] - |R|^2,
        w_full  = 2n (Q[j] + Q[j + n]) - (|L|^2 + |R|^2 + 2 L.R),

    all from plain slices.  Temporaries are O(_BLOCK d) on top of the O(T)
    outputs, and the rounding error of a window is bounded by the spread of
    the data between it and its block anchor, at most ``_BLOCK + 2n - 2`` rows
    away, not by the data's distance from the start of the stream.
    Non-finite input is caught from each block's sum of squares.
    """
    y = _stack_rows(stream)
    n = int(half_length)
    if n < 2:
        raise ValueError("window half-length must be at least 2")
    t_len, d = y.shape
    if t_len < 2 * n:
        raise ValueError(f"stream of length {t_len} never warms a 2x{n} window")

    count = t_len - 2 * n + 1
    # seg[r] = n Q - |D|^2, the spanning distance of the n rows from row r on;
    # res[i] = |L|^2 + |R|^2 - 2 L.R, the rest of w_full of window i:
    # w_full = 2 (w_left + w_right) + res.
    seg, res = np.empty(count + n), np.empty(count)
    rows = min(count, _BLOCK) + 2 * n - 1
    # Block buffers, reused: s1/s2 take the centred rows and their squared
    # norms at offsets 1.., then their prefix sums in place.
    s1, s2 = np.zeros((rows + 1, d)), np.zeros(rows + 1)
    sums, sums_sq = np.empty((rows + 1 - n, d)), np.empty(rows + 1 - n)
    with np.errstate(invalid="ignore"):  # non-finite input raises below
        for lo in range(0, count, _BLOCK):
            b = min(_BLOCK, count - lo)
            m = b + 2 * n - 1
            block = y[lo : lo + m]
            centred, sq = s1[1 : m + 1], s2[1 : m + 1]
            np.subtract(block, block[0], out=centred)
            np.einsum("ij,ij->i", centred, centred, out=sq)
            np.cumsum(centred, axis=0, out=centred)
            np.cumsum(sq, out=sq)
            # The sum of squares is non-finite if any input is (or overflows).
            if not math.isfinite(sq[-1]) and not np.all(np.isfinite(block)):
                raise _NonFiniteError(_NON_FINITE)
            k = b + n
            dn, dn_sq, seg_b, res_b = sums[:k], sums_sq[:k], seg[lo : lo + k], res[lo : lo + b]
            np.subtract(s1[n : m + 1], s1[:k], out=dn)
            np.subtract(s2[n : m + 1], s2[:k], out=seg_b)
            np.einsum("ij,ij->i", dn, dn, out=dn_sq)
            seg_b *= n
            seg_b -= dn_sq
            np.einsum("ij,ij->i", dn[:b], dn[n:], out=res_b)
            res_b *= -2.0
            res_b += dn_sq[:b]
            res_b += dn_sq[n:]
    w_full = np.add(seg[:count], seg[n:])
    w_full *= 2.0
    w_full += res
    # The true distances are nonnegative: clamp cancellation residue to zero.
    np.maximum(w_full, 0.0, out=w_full)
    w_left, w_right = np.maximum(seg[:count], 0.0), np.maximum(seg[n:], 0.0)
    clocks = np.arange(2 * n, t_len + 1)
    return SlidingStats(clocks=clocks, w_left=w_left, w_right=w_right, w_full=w_full)
