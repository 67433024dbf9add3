"""Spanning distances, the sliding window, and the vectorised batch path."""

import os
import re
import threading

import numpy as np
import pytest

from gsrdetect import windows as windows_module
from gsrdetect.windows import (
    _BLOCK,
    ObservationWindow,
    SlidingStats,
    _anchored_block,
    _NonFiniteError,
    _column,
    _window_scan,
    sliding_spanning_stats,
    spanning_distance,
)

from oracles import naive_decomposition, pairwise_spanning, pairwise_spanning_fast, scan_split


def test_spanning_distance_three_points():
    # pairs (0,1), (1,2), (0,2): 1 + 1 + 4
    assert spanning_distance([[0.0], [1.0], [2.0]]) == 6.0


def test_spanning_distance_four_points():
    # all six pairs of {0, 1, 3, 4}: 1 + 9 + 16 + 4 + 9 + 1
    assert spanning_distance([[0.0], [1.0], [3.0], [4.0]]) == 40.0


def test_spanning_distance_identical_points_is_exactly_zero():
    pts = np.full((7, 3), 1.0 / 3.0)
    assert spanning_distance(pts) == 0.0


def test_spanning_distance_matches_enumeration_on_random_blocks():
    rng = np.random.default_rng(0)
    for _ in range(25):
        m = rng.integers(2, 12)
        d = rng.integers(1, 6)
        pts = rng.normal(size=(m, d)) * 3 + rng.normal(size=d)
        expected = pairwise_spanning(pts)
        assert spanning_distance(pts) == pytest.approx(expected, rel=1e-9)


def test_spanning_distance_rejects_bad_input():
    with pytest.raises(ValueError):
        spanning_distance([[1.0]])
    with pytest.raises(ValueError):
        spanning_distance([[1.0, 2.0], [1.0]])
    with pytest.raises(ValueError):
        spanning_distance([[np.nan], [1.0]])
    with pytest.raises(ValueError, match="^no observations given$"):
        spanning_distance([])
    with pytest.raises(ValueError, match="^observations contain non-finite values$"):
        spanning_distance(np.array([[1.0], [np.inf]]))
    with pytest.raises(ValueError, match=r"^observation must be a vector, got shape \(1, 2\)$"):
        spanning_distance([[[1.0, 2.0]], [[3.0, 4.0]]])
    assert spanning_distance([1.0, 3.0]) == 4.0  # scalars are 1-vectors


@pytest.mark.parametrize(
    "block, message",
    [
        (np.zeros((3, 2)), "^need an even number of observations$"),
        (np.array([[0.0, 1.0], [np.nan, 1.0]]), "^observations contain non-finite values$"),
    ],
    ids=["odd", "non-finite"],
)
def test_from_observations_rejects_bad_blocks(block, message):
    with pytest.raises(ValueError, match=message):
        ObservationWindow.from_observations(block)


def test_decompose_example_window():
    win = ObservationWindow.from_observations([[0.0], [1.0], [3.0], [4.0]])
    dec = win.decompose()
    assert dec.w_full == pytest.approx(40.0)
    assert dec.w_left == pytest.approx(1.0)
    assert dec.w_right == pytest.approx(1.0)
    assert dec.w_btw == pytest.approx(38.0)
    assert dec.w_rem == pytest.approx(36.0)


def test_decompose_identical_observations_gives_zeros():
    win = ObservationWindow.from_observations(np.full((8, 2), 0.7))
    dec = win.decompose()
    assert (dec.w_full, dec.w_left, dec.w_right, dec.w_rem, dec.w_btw) == (0, 0, 0, 0, 0)


def test_decompose_identical_halves_symmetric():
    win = ObservationWindow.from_observations([[0.0], [1.0], [0.0], [1.0]])
    dec = win.decompose()
    assert dec.w_left == dec.w_right == pytest.approx(1.0)


def test_decompose_requires_warm_window():
    win = ObservationWindow(2, 1)
    win.slide([1.0])
    with pytest.raises(ValueError, match="not warm"):
        win.decompose()


def test_slide_example():
    win = ObservationWindow.from_observations([[0.0], [1.0], [3.0], [4.0]])
    win.slide([5.0])
    assert win.left_half().ravel().tolist() == [1.0, 3.0]
    assert win.right_half().ravel().tolist() == [4.0, 5.0]
    dec = win.decompose()
    assert dec.w_left == pytest.approx(4.0)
    assert dec.w_right == pytest.approx(1.0)


def test_slide_constant_stream_stays_zero():
    win = ObservationWindow(3, 2)
    for _ in range(25):
        win.slide([2.5, -1.0])
        if win.is_warm:
            dec = win.decompose()
            assert dec.w_full == 0.0 and dec.w_btw == 0.0


def test_slide_full_replacement_equals_fresh_window():
    rng = np.random.default_rng(1)
    n, d = 4, 3
    win = ObservationWindow.from_observations(rng.normal(size=(2 * n, d)))
    fresh_data = rng.normal(size=(2 * n, d))
    for row in fresh_data:
        win.slide(row)
    fresh = ObservationWindow.from_observations(fresh_data)
    a, b = win.decompose(), fresh.decompose()
    assert a.w_full == pytest.approx(b.w_full, rel=1e-9)
    assert a.w_left == pytest.approx(b.w_left, rel=1e-9)
    assert a.w_right == pytest.approx(b.w_right, rel=1e-9)


def test_slide_rejects_dimension_mismatch_and_nonfinite():
    win = ObservationWindow(2, 2)
    with pytest.raises(ValueError, match="dimension"):
        win.slide([1.0])
    with pytest.raises(ValueError, match="non-finite"):
        win.slide([1.0, np.inf])
    with pytest.raises(ValueError, match="must be a vector"):
        win.slide([[1.0, 2.0]])
    scalars = ObservationWindow(2, 1)
    for y in (0.0, 1.0, 3.0, 4.0):
        scalars.slide(y)
    block = ObservationWindow.from_observations([[0.0], [1.0], [3.0], [4.0]])
    assert scalars.decompose() == block.decompose()


@pytest.mark.parametrize(
    "fed, block",
    [(5, _BLOCK), (20, _BLOCK), (23, 16), (24, 16)],
    # with 16 positions a block, the slide after 23 rows re-anchors and the one after 24 follows it
    ids=["warming", "warm", "before-reanchor", "after-reanchor"],
)
def test_rejected_slide_leaves_window_unchanged(monkeypatch, fed, block):
    monkeypatch.setattr(windows_module, "_BLOCK", block)
    stream = np.random.default_rng(7).normal(size=(40, 3))
    batch = sliding_spanning_stats(stream, 4)
    win = ObservationWindow(4, 3)
    for row in stream[:fed]:
        win.slide(row)
    before = win.decompose() if win.is_warm else None
    bad_rows = [([0.5, bad, 1.0], "non-finite") for bad in (np.nan, np.inf, -np.inf)]
    for bad, match in bad_rows + [([0.5, 1.0], "dimension")]:
        with pytest.raises(ValueError, match=match):
            win.slide(bad)
        assert win.count == min(fed, 8)
    if before is not None:
        assert win.decompose() == before
    for t, row in enumerate(stream[fed:], start=fed + 1):
        win.slide(row)
        if t >= 8:
            dec = win.decompose()
            assert (dec.w_left, dec.w_right, dec.w_full) == (
                batch.w_left[t - 8], batch.w_right[t - 8], batch.w_full[t - 8]
            )


def test_window_owns_observations_fed_through_one_buffer():
    # a caller may refill one buffer for every observation; the results after
    # a re-anchor and the halves must not see the later contents
    n, d = 3, 4
    stream = np.random.default_rng(12).normal(size=(_BLOCK + 40, d)) * 2.0 + 5.0
    batch = sliding_spanning_stats(stream, n)
    win, buf = ObservationWindow(n, d), np.empty(d)
    for t, row in enumerate(stream, start=1):
        buf[:] = row
        win.slide(buf)
        if t <= 2 * n:
            assert (win.count, win.is_warm) == (t, t == 2 * n)
        if win.is_warm:
            dec, i = win.decompose(), t - 2 * n
            assert (dec.w_left, dec.w_right, dec.w_full) == (
                batch.w_left[i], batch.w_right[i], batch.w_full[i]
            ), t
    assert win.count == 2 * n
    np.testing.assert_array_equal(win.left_half(), stream[-2 * n : -n])
    np.testing.assert_array_equal(win.right_half(), stream[-n:])


def _decompositions(win, lengths, t):
    """Each warm length's (w_left, w_right, w_full) of a window of several lengths at clock t."""
    return {
        n: (dec.w_left, dec.w_right, dec.w_full)
        for n in lengths
        if t >= 2 * n
        for dec in [win.decompose(n)]
    }


def _batch_decompositions(batch, lengths, t):
    """The same from ``sliding_spanning_stats(stream, lengths)``'s columns."""
    row = t - 2 * min(lengths)
    return {
        n: (batch.w_left[row, j], batch.w_right[row, j], batch.w_full[row, j])
        for j, n in enumerate(lengths)
        if t >= 2 * n
    }


@pytest.mark.parametrize("lengths", [(2, 3, 5), (4, 7, 20)])
@pytest.mark.parametrize(
    "fed",
    # with 16 positions a block: the next row anchors a history, the shortest
    # length's window moves onto row 32, and the longest's does, dropping the older history
    [32, "shortest", "longest"],
)
def test_rejected_slide_leaves_several_lengths_unchanged(monkeypatch, lengths, fed):
    monkeypatch.setattr(windows_module, "_BLOCK", 16)
    fed = {"shortest": 31 + 2 * min(lengths), "longest": 31 + 2 * max(lengths)}.get(fed, fed)
    stream = np.random.default_rng(8).normal(size=(100, 3)) * 2.0
    stream += np.linspace(0.0, 30.0, 100)[:, None]  # a drift makes rounding visible
    batch = sliding_spanning_stats(stream, lengths)
    win = ObservationWindow(lengths, 3)
    for row in stream[:fed]:
        win.slide(row)
    before = _decompositions(win, lengths, fed)
    assert before == _batch_decompositions(batch, lengths, fed)
    bad_rows = [([0.5, bad, 1.0], "non-finite") for bad in (np.nan, np.inf, -np.inf)]
    for bad, match in bad_rows + [([0.5, 1.0], "dimension")]:
        with pytest.raises(ValueError, match=match):
            win.slide(bad)
        assert win.count == min(fed, 2 * max(lengths))
        assert _decompositions(win, lengths, fed) == before
    for t, row in enumerate(stream[fed:], start=fed + 1):
        win.slide(row)
        assert _decompositions(win, lengths, t) == _batch_decompositions(batch, lengths, t), t


def test_several_lengths_share_one_window():
    # decompose(n) names a length; everything else refers to the longest
    stream = np.random.default_rng(9).normal(size=(12, 2))
    win, singles = ObservationWindow((3, 5, 2), 2), [ObservationWindow(n, 2) for n in (2, 3, 5)]
    assert (win.half_length, win.dimension) == (5, 2)
    with pytest.raises(ValueError, match="^window not warm: has 0 of 4 observations$"):
        win.decompose(2)
    for t, row in enumerate(stream, start=1):
        assert win.slide(row) is win
        assert (win.count, win.is_warm) == (min(t, 10), t >= 10)
        for single in singles:
            if single.slide(row).is_warm:
                assert win.decompose(single.half_length) == single.decompose()
    assert win.decompose() == win.decompose(5)
    np.testing.assert_array_equal(win.left_half(), stream[2:7])
    np.testing.assert_array_equal(win.right_half(), stream[7:])
    message = "no window of half-length 4: the half-lengths are (2, 3, 5)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        win.decompose(4)
    for lengths, message in [((), "at least one window half-length is required"),
                             ((3, 3), "window lengths must be distinct, got (3, 3)")]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ObservationWindow(lengths, 2)


def test_incremental_matches_enumeration_over_many_slides():
    rng = np.random.default_rng(2)
    n, d = 5, 3
    data = rng.normal(size=(2 * n, d))
    win = ObservationWindow.from_observations(data)
    history = list(data)
    for _ in range(10 * 2 * n):
        y = rng.normal(size=d) * rng.uniform(0.5, 2.0) + rng.normal()
        win.slide(y)
        history.append(y)
        current = np.asarray(history[-2 * n :])
        expected = naive_decomposition(current)
        dec = win.decompose()
        scale = max(expected["w_full"], 1.0)
        assert abs(dec.w_full - expected["w_full"]) <= 1e-9 * scale
        assert abs(dec.w_left - expected["w_left"]) <= 1e-9 * scale
        assert abs(dec.w_right - expected["w_right"]) <= 1e-9 * scale
        assert abs(dec.w_btw - expected["w_btw"]) <= 1e-9 * scale
        assert abs(dec.w_rem - expected["w_rem"]) <= 1e-9 * scale


def test_additivity_and_residual_identity_on_random_windows():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(2, 8))
        d = int(rng.integers(1, 5))
        win = ObservationWindow.from_observations(rng.normal(size=(2 * n, d)))
        dec = win.decompose()
        assert dec.w_full == pytest.approx(dec.w_left + dec.w_right + dec.w_btw, rel=1e-9)
        assert dec.w_rem == pytest.approx(
            dec.w_full - 2 * (dec.w_left + dec.w_right), rel=1e-9, abs=1e-12
        )
        assert dec.w_full >= 0 and dec.w_left >= 0 and dec.w_right >= 0 and dec.w_btw >= 0


def test_running_sums_survive_long_streams():
    # drift control: after many slides the incremental stats still match a rebuild
    rng = np.random.default_rng(4)
    n, d = 6, 2
    win = ObservationWindow(n, d)
    history = []
    for _ in range(997):
        y = rng.normal(size=d) + 5.0
        win.slide(y)
        history.append(y)
    rebuilt = ObservationWindow.from_observations(np.asarray(history[-2 * n :]))
    a, b = win.decompose(), rebuilt.decompose()
    assert a.w_full == pytest.approx(b.w_full, rel=1e-9)
    assert a.w_left == pytest.approx(b.w_left, rel=1e-9)
    assert a.w_right == pytest.approx(b.w_right, rel=1e-9)


def test_sliding_spanning_stats_matches_window_path():
    rng = np.random.default_rng(5)
    n, d, t_len = 4, 3, 40
    stream = rng.normal(size=(t_len, d))
    stats = sliding_spanning_stats(stream, n)
    assert stats.clocks[0] == 2 * n and stats.clocks[-1] == t_len

    win = ObservationWindow(n, d)
    for t, row in enumerate(stream, start=1):
        win.slide(row)
        if t >= 2 * n:
            i = t - 2 * n
            dec = win.decompose()
            assert stats.w_left[i] == dec.w_left
            assert stats.w_right[i] == dec.w_right
            assert stats.w_full[i] == dec.w_full


def _window_path_stats(stream, n):
    """The window path's distances at every warm position, as batch-shaped arrays."""
    win = ObservationWindow(n, stream.shape[1])
    rows = []
    for row in stream:
        win.slide(row)
        if win.is_warm:
            dec = win.decompose()
            rows.append((dec.w_left, dec.w_right, dec.w_full))
    w_left, w_right, w_full = np.array(rows).T
    return SlidingStats(np.arange(2 * n, len(stream) + 1), w_left, w_right, w_full)


@pytest.mark.parametrize("d", [1, 8, 100])
@pytest.mark.parametrize("n", [2, 5, 50])
def test_decompose_equals_batch_bit_for_bit_across_blocks(d, n):
    # a level drift makes rounding visible; the positions cross two anchor blocks
    rng = np.random.default_rng(100 * d + n)
    t_len = 2 * _BLOCK + 2 * n + 40
    stream = rng.normal(size=(t_len, d)) * 3.0 + np.linspace(0.0, 40.0, t_len)[:, None]
    batch, window = sliding_spanning_stats(stream, n), _window_path_stats(stream, n)
    for name in ("w_left", "w_right", "w_full"):
        mismatched = np.flatnonzero(getattr(batch, name) != getattr(window, name))
        assert mismatched.size == 0, (name, mismatched[:10])
    _assert_anchored_left_halves_are_spanning_distances(stream, n, batch)


def _assert_anchored_left_halves_are_spanning_distances(stream, n, batch):
    """A window anchored on its own first row has w_left == spanning_distance, bit for bit."""
    for i in range(0, batch.w_left.size, _BLOCK):
        assert spanning_distance(stream[i : i + n]) == batch.w_left[i], i


@pytest.mark.parametrize("t_len", [4, 9])
def test_decompose_equals_batch_bit_for_bit_in_long_rows(t_len):
    # rows longer than numpy's 8192-element iterator buffer, and a block of one window
    stream = np.random.default_rng(t_len).normal(size=(t_len, 10_001)) * 3.0 + 7.0
    batch, window = sliding_spanning_stats(stream, 2), _window_path_stats(stream, 2)
    for name in ("w_left", "w_right", "w_full"):
        assert np.array_equal(getattr(batch, name), getattr(window, name)), name
    _assert_anchored_left_halves_are_spanning_distances(stream, 2, batch)


@pytest.mark.parametrize("d", [1, 8, 100])
@pytest.mark.parametrize("lengths", [(20, 35, 50), (5,), (2, 3)])
def test_several_lengths_decompose_equals_batch_bit_for_bit_across_blocks(d, lengths):
    # one window of every length against the batch path's columns, over two anchor blocks
    rng = np.random.default_rng(10 * d + len(lengths))
    t_len = 2 * _BLOCK + 2 * max(lengths) + 40
    stream = rng.normal(size=(t_len, d)) * 3.0 + np.linspace(0.0, 40.0, t_len)[:, None]
    batch, win = sliding_spanning_stats(stream, lengths), ObservationWindow(lengths, d)
    for t, row in enumerate(stream, start=1):
        win.slide(row)
        assert _decompositions(win, lengths, t) == _batch_decompositions(batch, lengths, t), t


@pytest.mark.parametrize("t_len", [8, 13])
def test_several_lengths_decompose_equals_batch_bit_for_bit_in_long_rows(t_len):
    stream = np.random.default_rng(t_len).normal(size=(t_len, 10_001)) * 3.0 + 7.0
    lengths = (2, 4)
    batch, win = sliding_spanning_stats(stream, lengths), ObservationWindow(lengths, 10_001)
    for t, row in enumerate(stream, start=1):
        win.slide(row)
        assert _decompositions(win, lengths, t) == _batch_decompositions(batch, lengths, t), t


def test_sliding_spanning_stats_rejects_short_streams():
    with pytest.raises(ValueError, match="never warms"):
        sliding_spanning_stats(np.zeros((5, 2)), 3)


def _assert_matches_pairwise(stream, stats, starts, n, rel=1e-9):
    """Batch statistics of the windows starting at ``starts`` against enumeration."""
    for i in starts:
        window = stream[i : i + 2 * n]
        assert stats.clocks[i] == i + 2 * n
        assert stats.w_left[i] == pytest.approx(pairwise_spanning_fast(window[:n]), rel=rel)
        assert stats.w_right[i] == pytest.approx(pairwise_spanning_fast(window[n:]), rel=rel)
        assert stats.w_full[i] == pytest.approx(pairwise_spanning_fast(window), rel=rel)


def _boundary_starts(count, n):
    """Window starts within 2n of a block boundary, where windows straddle anchors."""
    starts = set()
    for edge in range(_BLOCK, count, _BLOCK):
        starts.update(range(max(edge - 2 * n, 0), min(edge + 2 * n + 1, count)))
    starts.update(range(max(count - 2 * n, 0), count))  # the last, partial block
    return sorted(starts)


@pytest.mark.parametrize(
    "n, blocks, extra",
    [
        (2, 3, _BLOCK // 2),  # a partial last block
        (7, 3, _BLOCK // 2),
        (40, 3, _BLOCK // 2),
        (5, 1, 1),  # one window over a whole block
        (5, 1, 0),  # exactly one block
        (5, 2, -1),  # one window short of two blocks
    ],
)
def test_sliding_spanning_stats_block_boundaries_match_enumeration(n, blocks, extra):
    rng = np.random.default_rng(20 + n + blocks + extra)
    count = blocks * _BLOCK + extra
    t_len = count + 2 * n - 1
    stream = rng.normal(size=(t_len, 3)) * 2.0 + rng.normal(size=3) * 50.0
    stats = sliding_spanning_stats(stream, n)
    assert stats.w_full.shape == (count,) and stats.clocks[-1] == t_len
    _assert_matches_pairwise(stream, stats, _boundary_starts(count, n), n)


@pytest.mark.parametrize("batch", [(), (3,)], ids=["stream", "batch"])
@pytest.mark.parametrize("t_len, d", [(18, 2), (53, 4), (66, 1), (37, 10_001)])
def test_shared_scan_equals_per_n_scans_bit_for_bit(monkeypatch, t_len, d, batch):
    # Short blocks: the largest window ends a block early and every n crosses anchors.
    monkeypatch.setattr(windows_module, "_BLOCK", 16)
    lengths = (2, 5, 9)
    y = np.random.default_rng(t_len + d).normal(size=(t_len, *batch, d)) * 3.0 + 40.0
    stats = _window_scan(y, lengths)
    for j, n in enumerate(lengths):
        got = _column(stats, j, n)
        for b in np.ndindex(*batch):
            rows = (slice(None), *b)
            want = sliding_spanning_stats(np.ascontiguousarray(y[rows]), n)
            assert np.array_equal(got.clocks, want.clocks)
            for name in ("w_left", "w_right", "w_full"):
                assert np.array_equal(getattr(got, name)[rows], getattr(want, name)), (n, b, name)


@pytest.mark.parametrize(
    "lengths", [(2, 5, 9), (9, 2, 5), (6, 3)], ids=["ascending", "unordered", "descending"]
)
@pytest.mark.parametrize("d", [1, 8, 100, 10_001])
def test_several_lengths_equal_single_length_calls_bit_for_bit(monkeypatch, d, lengths):
    # Short blocks: every n crosses several anchors, and the largest ends a block early.
    monkeypatch.setattr(windows_module, "_BLOCK", 16)
    t_len = 3 * 16 + 2 * max(lengths) + 6
    y = np.random.default_rng(d + len(lengths)).normal(size=(t_len, d)) * 3.0 + 40.0
    stats = sliding_spanning_stats(y, lengths)
    first = 2 * min(lengths)
    assert np.array_equal(stats.clocks, np.arange(first, t_len + 1))
    for j, n in enumerate(lengths):
        want, warm = sliding_spanning_stats(y, n), 2 * (n - min(lengths))
        for name in ("w_left", "w_right", "w_full"):
            column = getattr(stats, name)[:, j]
            assert column.shape == stats.clocks.shape
            assert np.all(np.isnan(column[:warm])), (n, name)
            assert np.array_equal(column[warm:], getattr(want, name)), (n, name)


@pytest.mark.parametrize(
    "lengths, message",
    [
        ((), "at least one window half-length is required"),
        ((3, 1), "window half-length must be at least 2"),
        ((3, 4), "stream of length 7 never warms a 2x4 window"),
        ((3, 3), "window lengths must be distinct, got (3, 3)"),
    ],
    ids=["empty", "short", "long", "repeated"],
)
def test_several_lengths_reject_bad_lengths(lengths, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        sliding_spanning_stats(np.zeros((7, 2)), lengths)


@pytest.mark.parametrize("half_length", [2.9, 5.5, True, np.True_, "4", float("nan")])
def test_half_length_must_be_a_whole_number(half_length):
    y = np.random.default_rng(5).normal(size=(30, 2))
    with pytest.raises(ValueError, match="whole number"):
        sliding_spanning_stats(y, half_length)
    with pytest.raises(ValueError, match="whole number"):
        sliding_spanning_stats(y, (3, half_length))
    with pytest.raises(ValueError, match="whole number"):
        ObservationWindow(half_length, 2)


def test_whole_float_half_length_is_the_integer():
    y = np.random.default_rng(6).normal(size=(30, 2))
    assert ObservationWindow(5.0, 2).half_length == 5
    for got, want in zip(sliding_spanning_stats(y, 5.0), sliding_spanning_stats(y, np.int64(5))):
        assert np.array_equal(got, want)


def test_dimension_must_be_a_whole_number():
    # 2.5 once built a window of 2-vectors, and True one of 1-vectors
    for dim in (2.5, True, np.True_):
        with pytest.raises(ValueError, match="^dimension must be a whole number"):
            ObservationWindow(5, dim)
    with pytest.raises(ValueError, match="^dimension must be at least 1, got 0$"):
        ObservationWindow(5, 0)
    win = ObservationWindow(5, 3.0)
    assert win.dimension == 3 and type(win.dimension) is int


def test_sliding_spanning_stats_constant_stream_is_exactly_zero():
    stream = np.full((2 * _BLOCK + 300, 4), 1.0 / 3.0)
    stats = sliding_spanning_stats(stream, 6)
    for w in (stats.w_left, stats.w_right, stats.w_full):
        assert not np.any(w)


@pytest.mark.parametrize("path", [sliding_spanning_stats, _window_path_stats], ids=["batch", "step"])
def test_sliding_spanning_stats_accurate_under_level_drift(path):
    # a 100-sigma linear drift: anchoring once at y[0] loses 5e-9 here
    rng = np.random.default_rng(30)
    n, d, t_len = 5, 8, 8192
    assert t_len >= 4 * _BLOCK
    stream = rng.standard_normal((t_len, d)) + np.linspace(0.0, 100.0, t_len)[:, None]
    stats = path(stream, n)
    _assert_matches_pairwise(stream, stats, range(0, t_len - 2 * n + 1), n)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_sliding_spanning_stats_rejects_non_finite_in_any_block(bad, where):
    n, t_len = 4, 3 * _BLOCK
    stream = np.random.default_rng(31).normal(size=(t_len, 3))
    row = {"first": 0, "middle": t_len // 2, "last": t_len - 1}[where]
    stream[row, 1] = bad
    with pytest.raises(ValueError, match="^observations contain non-finite values$"):
        sliding_spanning_stats(stream, n)


@pytest.mark.parametrize(
    "cpus, values, shape, split",
    [  # blocks of 16 window positions at n = 2: 19 rows, 57 values at d = 3
        pytest.param({0, 1}, 57, (67, 3), True, id="at-threshold"),
        pytest.param({0, 1}, 58, (67, 3), False, id="below-threshold"),
        pytest.param({0}, 0, (67, 3), False, id="one-cpu"),
        pytest.param({0, 1}, 0, (19, 3), False, id="one-block"),
        pytest.param({0, 1}, 0, (67, 2, 3), False, id="batched"),
    ],
)
def test_stream_blocks_split_only_where_it_pays(monkeypatch, cpus, values, shape, split):
    monkeypatch.setattr(windows_module, "_BLOCK", 16)
    monkeypatch.setattr(windows_module, "_SPLIT_VALUES", values)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    scans, blocks = [], windows_module._blocks

    def recorded(y, starts, *rest, **stop):
        scans.append((threading.current_thread(), list(starts)))
        blocks(y, starts, *rest, **stop)

    monkeypatch.setattr(windows_module, "_blocks", recorded)
    _window_scan(np.random.default_rng(8).normal(size=shape), (2,))
    caller = threading.current_thread()
    mine = [starts for thread, starts in scans if thread is caller]
    helpers = [starts for thread, starts in scans if thread is not caller]
    starts = list(range(0, shape[0] - 3, 16))
    assert (mine, helpers) == (([starts[:2]], [starts[2:]]) if split else ([starts], []))


def test_error_in_the_callers_share_stops_the_helper(monkeypatch):
    monkeypatch.setattr(windows_module, "_BLOCK", 16)
    threads, anchored, blocks = [], windows_module._anchored_block, windows_module._blocks

    def recorded(block, *sums):
        threads.append(threading.current_thread())
        return anchored(block, *sums)

    def late(*args, stop=None):
        if stop is not None:  # the helper starts once the caller's half has had time to fail
            stop.wait(5)
        blocks(*args, stop=stop)

    monkeypatch.setattr(windows_module, "_anchored_block", recorded)
    monkeypatch.setattr(windows_module, "_blocks", late)
    y = np.random.default_rng(10).normal(size=(67, 3))
    y[5, 1] = np.nan
    with scan_split(True), pytest.raises(_NonFiniteError):
        _window_scan(y, (2,))
    assert threads == [threading.current_thread()]


@pytest.mark.skipif(
    np.lib.NumpyVersion(np.__version__) < "2.0.0", reason="numpy 1 keeps errstate per thread"
)
@pytest.mark.parametrize("on", [False, True])
def test_helper_scans_under_the_callers_numpy_error_state(monkeypatch, on):
    monkeypatch.setattr(windows_module, "_BLOCK", 16)
    y = np.random.default_rng(9).normal(size=(67, 3))
    y[48], y[60] = -1e308, 1e308  # in the helper's share, row 60 less its anchor overflows
    with scan_split(on), np.errstate(over="raise"):
        with pytest.raises(FloatingPointError, match="overflow"):
            sliding_spanning_stats(y, 2)


# Rows of 511, 512 and 513 values in S1 and in S2, either side of the row-wise sums' threshold.
_BATCH_SHAPES = [((7,), 73), ((16,), 32), ((1,), 513), ((511,), 1), ((512,), 1), ((513,), 1), ((3, 5), 35)]


@pytest.mark.parametrize("m", [1, 2, 70])
@pytest.mark.parametrize("batch, d", _BATCH_SHAPES)
def test_batched_anchored_block_equals_its_slices_bit_for_bit(m, batch, d):
    y = np.random.default_rng(m + d).normal(size=(m, *batch, d)) * 3.0 + 40.0
    # Row 1 centres to -0.0 in one coordinate: its running sum must add the zero row 0 first.
    y[0, ..., 0] = 0.0
    y[1:2, ..., 0] = -0.0
    s1, s2 = _anchored_block(y)
    for b in np.ndindex(*batch):
        rows = (slice(None), *b)
        want1, want2 = _anchored_block(np.ascontiguousarray(y[rows]))
        assert s1[rows].tobytes() == want1.tobytes(), b
        assert s2[rows].tobytes() == want2.tobytes(), b


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("batch, d", _BATCH_SHAPES[:4])
def test_batched_anchored_block_rejects_non_finite_in_any_slice(bad, batch, d):
    y = np.random.default_rng(d).normal(size=(70, *batch, d))
    for i, b in enumerate(np.ndindex(*batch)):
        hit = y.copy()
        hit[((35 * i) % 70, *b, i % d)] = bad
        with np.errstate(invalid="ignore"), pytest.raises(_NonFiniteError):
            _anchored_block(hit)
