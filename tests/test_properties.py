"""Generated-input equivalences between the batch kernel's callers and the step path,
and between the CSV reader's vectorised parse and its cell-by-cell reference.

Blocks are shortened to 16 window positions (16 to 64 where a stream's scan
is split between two threads), so streams of a few dozen rows cross several
anchors; every caller reads ``windows._BLOCK`` at call time.  Calibration's
replication batches are shortened to as many zones as span 16 rows.
"""

import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsrdetect import calibration as calibration_module
from gsrdetect import windows as windows_module
from gsrdetect.calibration import (
    CalibrationConfig,
    ThresholdEntry,
    ThresholdTable,
    _replication_maxima,
    calibration_maxima,
)
from gsrdetect.cli import _parse_cells, read_stream_csv
from gsrdetect.detector import Detector, DetectorConfig, detect_stream
from gsrdetect.distributions import derived_rng
from gsrdetect.ratios import StatKind, sliding_gsr
from gsrdetect.windows import ObservationWindow, _column, _window_scan, sliding_spanning_stats
from oracles import parse_outcome, replication_overlap, scan_split

BLOCK = 16
LEVELS = (-1e4, -3.0, 0.5, 100.0, 1e6)


def _settings(examples):
    return settings(derandomize=True, database=None, deadline=None, max_examples=examples)


@pytest.fixture(autouse=True, scope="module")
def short_blocks():
    with mock.patch.object(windows_module, "_BLOCK", BLOCK):
        yield


@st.composite
def window_sets(draw, largest=9):
    return tuple(sorted(draw(st.sets(st.integers(2, largest), min_size=1, max_size=3))))


@st.composite
def streams(draw, batched=False, block=BLOCK):
    """(stream, window lengths): Gaussian rows with level offsets and constant stretches,
    over at most four blocks of ``block`` window positions.

    A batched stream is (T, B, d), B streams side by side.
    """
    lengths = draw(window_sets())
    t_len = draw(st.integers(2 * max(lengths), 4 * block + 2 * max(lengths)))
    batch = (draw(st.integers(1, 3)),) if batched else ()
    shape = (t_len, *batch, draw(st.integers(1, 20)))
    y = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal(shape)
    for _ in range(draw(st.integers(0, 2))):
        y[draw(st.integers(0, t_len - 1)) :] += draw(st.sampled_from(LEVELS))
    for _ in range(draw(st.integers(0, 2))):
        lo = draw(st.integers(0, t_len - 1))
        y[lo : lo + draw(st.integers(1, 2 * max(lengths) + 3))] = y[lo]
    return y, lengths


@_settings(150)
@given(streams(batched=True), st.randoms(use_true_random=False))
def test_shared_scan_equals_per_n_scans(case, random):
    y, lengths = case
    lengths = random.sample(lengths, len(lengths))  # columns follow the order given
    batched = _window_scan(y, lengths)
    for b in range(y.shape[1]):
        stream = np.ascontiguousarray(y[:, b])
        public = sliding_spanning_stats(stream, lengths)
        for j, n in enumerate(lengths):
            want = sliding_spanning_stats(stream, n)
            for stats, rows in ((batched, (slice(None), b)), (public, slice(None))):
                got = _column(stats, j, n)
                assert np.array_equal(got.clocks, want.clocks)
                cold = len(stats.clocks) - len(got.clocks)
                assert np.all(np.isnan(stats.w_full[:cold, ..., j]))
                for name in ("w_left", "w_right", "w_full"):
                    w = getattr(got, name)[rows]
                    assert np.all(w >= 0.0)  # cancellation residue is clamped
                    assert np.array_equal(w, getattr(want, name)), (n, b, name)


@_settings(100)
@given(
    lengths=window_sets(largest=6),
    extra_rows=st.integers(0, 30),
    d=st.integers(1, 20),
    reps=st.integers(2, 9),
    seed=st.integers(0, 2**32 - 1),
    base_mean=st.sampled_from((0.0,) + LEVELS),
    base_scale=st.sampled_from((1.0, 0.01, 7.5)),
)
def test_batched_maxima_equal_per_replication_scans(
    lengths, extra_rows, d, reps, seed, base_mean, base_scale
):
    config = CalibrationConfig(
        window_lengths=lengths,
        dimension=d,
        alphas={(kind, n): 0.5 for kind in StatKind for n in lengths},
        zone_length=2 * max(lengths) + extra_rows,
        replications=reps,
        seed=seed,
        base_mean=base_mean,
        base_scale=base_scale,
    )
    zone = config.zone_length
    with mock.patch.object(calibration_module, "_BATCH_VALUES", max(1, BLOCK // zone) * zone * d):
        got = calibration_maxima(config)
    for k in range(reps):
        rng = derived_rng(seed, k)
        y = base_mean + base_scale * rng.standard_normal((config.zone_length, d))
        for n in lengths:
            for kind, r in zip(StatKind, sliding_gsr(sliding_spanning_stats(y, n))):
                assert got[(kind, n)][k] == r.max(), (k, kind, n)


@_settings(100)
@given(
    lengths=window_sets(largest=6),
    extra_rows=st.integers(0, 3 * BLOCK),
    d=st.integers(1, 20),
    count=st.integers(1, 12),
    batch=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
    level=st.sampled_from((0.0,) + LEVELS),
    flat=st.none() | st.integers(0, 11),
)
def test_replication_loop_equals_per_replication_scans(
    lengths, extra_rows, d, count, batch, seed, level, flat
):
    # Short last batches (count % batch != 0) scan only their own slots.  Both
    # paths run: every batch drawn on the calling thread, and every batch after
    # the first drawn on the helper thread while the one before it is scanned.
    rows = 2 * max(lengths) + extra_rows
    ys = np.random.default_rng(seed).standard_normal((count, rows, d)) + level
    if flat is not None and flat < count:
        ys[flat] = ys[flat, 0]  # every ratio degenerate
    caller = threading.current_thread()
    for overlap in (False, True):
        drawn = []

        def draw(lo, slots):
            drawn.append((lo, len(slots), threading.current_thread() is not caller))
            slots[...] = ys[lo : lo + len(slots)]

        with (
            replication_overlap(overlap),
            mock.patch.object(calibration_module, "_BATCH_VALUES", batch * rows * d),
        ):
            batches = list(_replication_maxima(count, rows, d, lengths, draw))
        got = np.concatenate(batches, axis=1)
        # every batch after the first drawn on the helper, when overlapped
        want = [(lo, min(batch, count - lo), overlap and lo > 0) for lo in range(0, count, batch)]
        assert drawn == want
        assert got.shape == (len(StatKind), count, len(lengths))
        for k, y in enumerate(ys):
            for j, n in enumerate(lengths):
                want = [r.max() for r in sliding_gsr(sliding_spanning_stats(y, n))]
                assert np.array_equal(got[:, k, j], want), (k, n, overlap)


def _tie_table(y, lengths, picks):
    """Thresholds equal to observed ratios of the stream, so some statistics tie them."""
    entries = []
    for n in lengths:
        for kind, r in zip(StatKind, sliding_gsr(sliding_spanning_stats(y, n))):
            finite = r[np.isfinite(r)]
            rho = float(finite[picks % finite.size]) if finite.size else 2.0
            entries.append(ThresholdEntry(kind, n, 0.05, rho, "monte_carlo"))
    return ThresholdTable(dimension=y.shape[1], entries=tuple(entries))


@_settings(150)
@given(
    case=streams(),
    policy=st.sampled_from(("halt", "cooldown", "continue")),
    cooldown=st.none() | st.integers(1, 20),
    alpha_total=st.sampled_from((0.01, 0.3, 0.9)),
    ties=st.none() | st.integers(0, 10_000),
)
def test_step_equals_detect_stream(case, policy, cooldown, alpha_total, ties):
    y, lengths = case
    config = DetectorConfig(lengths, alpha_total=alpha_total, policy=policy, cooldown=cooldown)
    table = None if ties is None else _tie_table(y, lengths, ties)
    detector = Detector(config, y.shape[1], table)
    assert [e for row in y for e in detector.step(row)] == detect_stream(y, config, table)


@st.composite
def blocked_streams(draw):
    """(block, stream, window lengths): a stream over at most four blocks of 16 to 64."""
    block = draw(st.integers(BLOCK, 4 * BLOCK))
    return (block, *draw(streams(block=block)))


@_settings(150)
@given(
    case=blocked_streams(),
    policy=st.sampled_from(("halt", "cooldown", "continue")),
    ties=st.none() | st.integers(0, 10_000),
)
def test_split_scan_equals_serial_scan(case, policy, ties):
    # The helper thread scans the second half of the blocks whenever there are two.
    block, y, lengths = case
    config = DetectorConfig(lengths, alpha_total=0.3, policy=policy)
    with mock.patch.object(windows_module, "_BLOCK", block):
        table = None if ties is None else _tie_table(y, lengths, ties)
        outcomes = []
        for on in (False, True):
            with scan_split(on):
                scans = [sliding_spanning_stats(y, n) for n in (*lengths, lengths)]
                outcomes.append((scans, detect_stream(y, config, table)))
        detector = Detector(config, y.shape[1], table)
        stepped = [e for row in y for e in detector.step(row)]
    (serial, serial_events), (split, split_events) = outcomes
    for want, got in zip(serial, split):
        assert all(a.tobytes() == b.tobytes() for a, b in zip(want, got))
    assert split_events == serial_events == stepped


@st.composite
def reanchored_streams(draw):
    """(block, stream, window lengths): blocks of 1 to 40 window positions, so fewer
    or more than 2 max(n), over a stream of at most four blocks."""
    block = draw(st.integers(1, 40))
    return (block, *draw(streams(block=block)))


@_settings(150)
@given(case=reanchored_streams(), random=st.randoms(use_true_random=False))
def test_window_of_several_lengths_equals_single_lengths_and_the_batch_path(case, random):
    # one history while a block lasts, several while windows straddle anchors
    block, y, lengths = case
    lengths = random.sample(lengths, len(lengths))  # columns follow the order given
    d = y.shape[1]
    with mock.patch.object(windows_module, "_BLOCK", block):
        batch = sliding_spanning_stats(y, lengths)
        window = ObservationWindow(lengths, d)
        singles = [ObservationWindow(n, d) for n in lengths]
        for t, row in enumerate(y, start=1):
            window.slide(row)
            for j, (n, single) in enumerate(zip(lengths, singles)):
                if not single.slide(row).is_warm:
                    continue
                got, i = window.decompose(n), t - 2 * min(lengths)
                assert got == single.decompose(), (t, n)
                want = (batch.w_left[i, j], batch.w_right[i, j], batch.w_full[i, j])
                assert (got.w_left, got.w_right, got.w_full) == want, (t, n)
    longest = singles[int(np.argmax(lengths))]
    assert window.count == longest.count
    if window.is_warm:
        assert np.array_equal(window.left_half(), longest.left_half())
        assert np.array_equal(window.right_half(), longest.right_half())


HOSTILE_CELLS = (
    "", " ", "nan", "-inf", "1e400", "1_0", "\uff17", "abc", "#5", '"2.5"', '"1,5"',
    " 3.5 ", "0x10", "-0.0", "1e-400", "5e-324", "2015-01-02",
)
FLOAT_FORMATS = (repr, "{:.3e}".format, "{:g}".format, lambda v: f" {v!r}\t")
BLANK_LINES = ("", "  ", ",,", " , ")


@st.composite
def stream_csv_texts(draw):
    """(CSV text, time_column): repr floats, and in some files hostile cells, ragged and blank rows.

    The values come from a seeded generator, with magnitudes up to 1e300 either way.
    """
    d, rows, stamped = draw(st.integers(1, 10)), draw(st.integers(0, 12)), draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    span = draw(st.sampled_from((0, 5, 300)))
    values = rng.standard_normal((rows, d)) * 10.0 ** rng.integers(-span, span + 1, (rows, d))
    fmt = draw(st.sampled_from(FLOAT_FORMATS))
    table = [[fmt(v) for v in row] for row in values.tolist()]
    index = st.integers(0, 13)
    if draw(st.booleans()):  # a hostile file
        tokens = st.tuples(index, index, st.sampled_from(HOSTILE_CELLS))
        for r, c, token in draw(st.lists(tokens, max_size=3)):
            if r < rows:
                table[r][c % d] = token
        for r, extra in draw(st.lists(st.tuples(index, st.booleans()), max_size=2)):
            if r < rows:
                table[r] = table[r] + ["1"] if extra else table[r][:-1]
    if stamped:
        table = [[f"2020-01-{i + 1:02d}T09:30:00"] + cells for i, cells in enumerate(table)]
    lines = [",".join(cells) for cells in table]
    if draw(st.booleans()):
        lines.insert(0, ",".join(["date"] * int(stamped) + [f"x{j}" for j in range(d)]))
    for at, blank in draw(st.lists(st.tuples(index, st.sampled_from(BLANK_LINES)), max_size=2)):
        lines.insert(at, blank)
    eol = draw(st.sampled_from(("\n", "\r\n", "\r")))
    return eol.join(lines) + draw(st.sampled_from((eol, ""))), draw(st.booleans())


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("csv") / "stream.csv"


@_settings(200)
@given(stream_csv_texts())
def test_csv_reader_equals_cell_by_cell_parse(csv_path, case):
    text, time_column = case
    csv_path.write_text(text, encoding="utf-8", newline="")
    path = str(csv_path)
    assert parse_outcome(read_stream_csv, path, time_column) == parse_outcome(
        _parse_cells, path, time_column
    )
