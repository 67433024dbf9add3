"""Generated-input equivalences between the batch kernel's callers and the step path.

Blocks are shortened to 16 window positions, so streams of a few dozen rows
cross several anchors; every caller reads ``windows._BLOCK`` at call time.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsrdetect import windows as windows_module
from gsrdetect.calibration import (
    CalibrationConfig,
    ThresholdEntry,
    ThresholdTable,
    calibration_maxima,
)
from gsrdetect.detector import Detector, DetectorConfig, detect_stream
from gsrdetect.distributions import derived_rng
from gsrdetect.ratios import StatKind, sliding_gsr
from gsrdetect.windows import _window_scan, sliding_spanning_stats

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
def streams(draw, batched=False):
    """(stream, window lengths): Gaussian rows with level offsets and constant stretches.

    A batched stream is (T, B, d), B streams side by side.
    """
    lengths = draw(window_sets())
    t_len = draw(st.integers(2 * max(lengths), 4 * BLOCK + 2 * max(lengths)))
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
@given(streams(batched=True))
def test_shared_scan_equals_per_n_scans(case):
    y, lengths = case
    for n, got in zip(lengths, _window_scan(y, lengths)):
        assert all(np.all(w >= 0.0) for w in got[1:])  # cancellation residue is clamped
        for b in range(y.shape[1]):
            want = sliding_spanning_stats(np.ascontiguousarray(y[:, b]), n)
            assert np.array_equal(got.clocks, want.clocks)
            for name in ("w_left", "w_right", "w_full"):
                assert np.array_equal(getattr(got, name)[:, b], getattr(want, name)), (n, b, name)


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
    got = calibration_maxima(config)
    for k in range(reps):
        rng = derived_rng(seed, k)
        y = base_mean + base_scale * rng.standard_normal((config.zone_length, d))
        for n in lengths:
            for kind, r in zip(StatKind, sliding_gsr(sliding_spanning_stats(y, n))):
                assert got[(kind, n)][k] == r.max(), (k, kind, n)


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
