"""Alpha allocation, the online detector, policies, and the batch path."""

import json
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

import gsrdetect.detector as detector_module
import gsrdetect.windows as windows_module
from gsrdetect.calibration import (
    CalibrationConfig,
    ThresholdEntry,
    ThresholdTable,
    analytic_table,
    analytic_threshold_mu,
    analytic_threshold_sigma,
    calibrate_monte_carlo,
    calibration_maxima,
)
from gsrdetect.detector import (
    DetectionEvent,
    Detector,
    DetectorConfig,
    allocate_alphas,
    detect_stream,
    events_from_jsonl,
    events_to_jsonl,
)
from gsrdetect.distributions import derived_rng
from gsrdetect.ratios import StatKind, sliding_gsr
from gsrdetect.windows import _BLOCK, ObservationWindow, sliding_spanning_stats

from oracles import scan_split


class TestAllocateAlphas:
    def test_equal_nine_way_split_sums_exactly(self):
        alphas = allocate_alphas(0.06, (20, 35, 50))
        assert len(alphas) == 9
        for value in alphas.values():
            assert value == pytest.approx(0.06 / 9, rel=1e-12)
        assert math.fsum(alphas.values()) == 0.06
        for kind in StatKind:
            family = [alphas[(kind, n)] for n in (20, 35, 50)]
            assert math.fsum(family) == pytest.approx(0.06 / 3, abs=1e-16)

    def test_sum_exact_for_two_windows(self):
        alphas = allocate_alphas(0.1, (10, 20))
        assert math.fsum(alphas.values()) == 0.1

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            allocate_alphas(0.0, (10,))
        with pytest.raises(ValueError):
            allocate_alphas(1.5, (10,))
        with pytest.raises(ValueError):
            allocate_alphas(0.05, ())


def _shifted_stream(seed=0, t_len=120, d=4, change_at=61, shift=2.5):
    rng = derived_rng(seed)
    y = rng.standard_normal((t_len, d))
    y[change_at - 1 :] += shift
    return y


@pytest.mark.parametrize(
    "windows, message",
    [
        ((4, 4), r"^window lengths must be distinct, got \(4, 4\)$"),
        ((2.5,), "^window half-length must be a whole number, got 2.5$"),
        ((4, True), "^window half-length must be a whole number, got True$"),
    ],
    ids=["repeated", "fractional", "boolean"],
)
def test_allocate_alphas_rejects_repeated_fractional_and_boolean_windows(windows, message):
    # (4, 4) once split 0.06 into levels summing to 0.03, and 2.5 keyed a level on it
    with pytest.raises(ValueError, match=message):
        allocate_alphas(0.06, windows)


@pytest.mark.parametrize("n", [5.5, 2.9, True])
def test_config_rejects_fractional_and_boolean_windows(n):
    # 5.5 once scanned n=5 under thresholds of a fractional-n law, at change_at=97.5
    with pytest.raises(ValueError, match="whole number"):
        DetectorConfig(windows=(n,))
    with pytest.raises(ValueError, match="whole number"):
        DetectorConfig(windows=(4, n))


def test_config_rejects_an_unknown_policy():
    message = r"^policy must be one of \('halt', 'cooldown', 'continue'\), got 'bogus'$"
    with pytest.raises(ValueError, match=message):
        DetectorConfig(windows=(5,), policy="bogus")


def test_dimension_must_be_a_whole_number():
    # 2.5 once slid 2-vectors against thresholds of the F law at d = 2.5
    config = DetectorConfig(windows=(5,))
    for dim in (2.5, True):
        with pytest.raises(ValueError, match="^dimension must be a whole number"):
            Detector(config, dim)
    with pytest.raises(ValueError, match="^dimension must be at least 1, got 0$"):
        Detector(config, 0)
    det = Detector(config, 3.0)
    assert type(det.dimension) is int and type(det.thresholds.dimension) is int
    y = _shifted_stream(t_len=40, d=3, change_at=21, shift=4.0)
    assert [e for row in y for e in det.step(row)] == detect_stream(y, config)


def test_cooldown_must_be_a_whole_number():
    # 2.5 once acted as 2 on both paths and was stored as 2.5
    for bad in (2.5, True):
        with pytest.raises(ValueError, match="^cooldown must be a whole number"):
            DetectorConfig(windows=(5,), policy="cooldown", cooldown=bad)
    config = DetectorConfig(windows=(5,), alpha_total=0.2, policy="cooldown", cooldown=11.0)
    assert type(config.cooldown) is int
    y = _shifted_stream(t_len=200, d=3, change_at=101, shift=3.0)
    events = detect_stream(y, config)
    assert len(events) > 1
    ints = DetectorConfig(windows=(5,), alpha_total=0.2, policy="cooldown", cooldown=11)
    assert events == detect_stream(y, ints)
    det = Detector(config, 3)
    assert events == [e for row in y for e in det.step(row)]


def test_given_alphas_must_cover_every_family_and_window():
    # a missing pair once ended in a bare KeyError from analytic_table
    full = {(kind, n): 0.01 for kind in StatKind for n in (5, 6)}
    cases = [
        ({}, (5,), r"missing alpha for \(mu, n=5\)"),
        ({k: a for k, a in full.items() if k[1] == 5}, (5, 6), r"missing alpha for \(mu, n=6\)"),
        ({**full, (StatKind.MU, 5): 1.5}, (5,), r"alpha for \(mu, n=5\) not in \(0, 1\): 1.5"),
        ({**full, (StatKind.SIGMA_MINUS, 6): 0.0}, (5, 6), r"alpha for \(sigma-, n=6\) not in"),
    ]
    for alphas, lengths, match in cases:
        with pytest.raises(ValueError, match=f"^{match}"):
            analytic_table(lengths, 2, alphas)
    config, table = DetectorConfig(windows=(5, 6)), analytic_table((5, 6), 2, full)
    det, y = Detector(config, 2, table), _shifted_stream(t_len=60, d=2, change_at=31, shift=3.0)
    events = detect_stream(y, config, table)
    assert events and [e for row in y for e in det.step(row)] == events
    # levels other than the Bonferroni split reach each pair's law unchanged
    levels = {(kind, n): 0.001 * (i + 1) for i, (kind, n) in enumerate(full)}
    table = analytic_table((5, 6), 2, levels)
    for (kind, n), a in levels.items():
        law = analytic_threshold_mu if kind is StatKind.MU else analytic_threshold_sigma
        assert table.entry(kind, n).alpha == a and table.threshold(kind, n) == law(n, 2, a)


def test_config_stores_whole_float_windows_as_ints():
    config = DetectorConfig(windows=(5.0, np.int64(7)))
    assert config.windows == (5, 7) and all(type(n) is int for n in config.windows)
    y = _shifted_stream(t_len=200, d=3, change_at=101, shift=3.0)
    events = detect_stream(y, config)
    assert events and all(type(e.window) is int and type(e.change_at) is int for e in events)
    assert events == detect_stream(y, DetectorConfig(windows=(5, 7)))


class TestDetectorStep:
    def test_reports_mean_change_near_true_time(self):
        config = DetectorConfig(windows=(15,), alpha_total=0.01, policy="continue")
        det = Detector(config, dimension=4)
        stream = _shifted_stream()
        events = []
        for row in stream:
            events.extend(det.step(row))
        assert events, "no detection on an easy shift"
        # a shift part-way into the newer half may fire the variance ratio
        # first, but the aligned candidate must fire the mean ratio
        aligned = [e for e in events if e.kind == "MeanChange" and abs(e.change_at - 61) <= 3]
        assert aligned
        for e in events:
            assert abs(e.change_at - 61) <= 15
            assert e.change_at == e.detected_at - e.window + 1
            assert e.statistic >= e.threshold

    def test_constant_stream_never_fires(self):
        config = DetectorConfig(windows=(3, 5), alpha_total=0.5, policy="continue")
        det = Detector(config, dimension=2)
        for _ in range(60):
            assert det.step([1.0, -2.0]) == []

    def test_no_events_before_warm(self):
        config = DetectorConfig(windows=(10,), alpha_total=0.5, policy="continue")
        det = Detector(config, dimension=1)
        y = derived_rng(1).standard_normal((19, 1)) * 10
        for row in y:
            assert det.step(row) == []
        assert detect_stream(y, config) == []  # shorter than every 2n: nothing to scan

    def test_halt_policy_stops_after_first_event(self):
        config = DetectorConfig(windows=(15,), alpha_total=0.01, policy="halt")
        det = Detector(config, dimension=4)
        stream = _shifted_stream()
        saw_event_tick = None
        for t, row in enumerate(stream, start=1):
            got = det.step(row)
            if got and saw_event_tick is None:
                saw_event_tick = t
            elif saw_event_tick is not None:
                assert got == []
        assert det.halted

    def test_cooldown_policy_suppresses_then_resumes(self):
        config = DetectorConfig(windows=(10,), alpha_total=0.02, policy="cooldown", cooldown=30)
        det = Detector(config, dimension=2)
        rng = derived_rng(2)
        y = rng.standard_normal((240, 2))
        y[60:] += 3.0
        y[150:] += 3.0  # second shift
        ticks = []
        for t, row in enumerate(y, start=1):
            if det.step(row):
                ticks.append(t)
        assert len(ticks) >= 2
        assert all(b - a > 30 for a, b in zip(ticks, ticks[1:]))

    def test_dimension_mismatch_rejected(self):
        det = Detector(DetectorConfig(windows=(3,)), dimension=3)
        with pytest.raises(ValueError, match="dimension"):
            det.step([1.0])

    @pytest.mark.parametrize("bad", [[np.nan, 0.0], [1.0, 2.0, 3.0]], ids=["nan", "dimension"])
    def test_rejected_observation_does_not_advance_clock(self, bad):
        config = DetectorConfig(windows=(3, 5), alpha_total=0.5, policy="continue")
        y = _shifted_stream(seed=3, t_len=60, d=2, change_at=21, shift=4.0)
        det = Detector(config, dimension=2)
        events = []
        for t, row in enumerate(y, start=1):
            if t == 21:
                with pytest.raises(ValueError):
                    det.step(bad)
                assert det.clock == 20
            events.extend(det.step(row))
        assert det.clock == len(y)
        assert events and events == detect_stream(y, config)

    def test_rows_whose_squared_norms_overflow_agree_without_warnings(self):
        # finite rows; the step path once warned on its first anchor where the batch path is silent
        y = np.random.default_rng(3).standard_normal((40, 3)) * 1e160
        config = DetectorConfig(windows=(4,), policy="continue")
        det, win, batch = Detector(config, 3), ObservationWindow(4, 3), sliding_spanning_stats(y, 4)
        events = []
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for t, row in enumerate(y, start=1):
                events.extend(det.step(row))
                win.slide(row)
                if t >= 8:
                    dec = win.decompose()
                    got, want = [dec.w_left, dec.w_right, dec.w_full], [w[t - 8] for w in batch[1:]]
                    assert np.array_equal(got, want, equal_nan=True)
            assert events == detect_stream(y, config) == []

    def test_table_dimension_checked(self):
        table = analytic_table((4,), 2, allocate_alphas(0.06, (4,)))
        with pytest.raises(ValueError, match="dimension"):
            Detector(DetectorConfig(windows=(4,)), dimension=3, thresholds=table)

    def test_table_must_cover_windows(self):
        table = analytic_table((4,), 2, allocate_alphas(0.06, (4,)))
        with pytest.raises(KeyError):
            Detector(DetectorConfig(windows=(4, 6)), dimension=2, thresholds=table)

    def test_missing_pairs_are_all_named(self):
        # once only the first missing pair, (mu, n=6), was named
        table = analytic_table((4,), 2, allocate_alphas(0.06, (4,)))
        lacks = "threshold table lacks (mu, n=6), (sigma+, n=6), (sigma-, n=6)"
        with pytest.raises(KeyError) as exc:
            Detector(DetectorConfig(windows=(4, 6)), dimension=2, thresholds=table)
        assert exc.value.args[0] == lacks
        with pytest.raises(KeyError) as exc:
            detect_stream(np.zeros((20, 2)), DetectorConfig(windows=(6, 4)), table)
        assert exc.value.args[0] == lacks

    @pytest.mark.parametrize("calibrated", [False, True], ids=["analytic", "monte-carlo"])
    def test_step_and_pooled_statistics_read_no_table_after_construction(
        self, monkeypatch, calibrated
    ):
        # each tick once looked every (family, window) threshold up in the table
        table = None
        if calibrated:
            alphas = allocate_alphas(0.3, (4, 7))
            table = calibrate_monte_carlo(
                CalibrationConfig((4, 7), 2, alphas, zone_length=40, replications=200, seed=1)
            )
        config = DetectorConfig(windows=(7, 4), alpha_total=0.3, policy="continue")
        y = derived_rng(6).standard_normal((120, 2))
        y[40:] += 2.0
        y[80:] *= 3.0

        def unreadable(*args):
            raise AssertionError("threshold table read after construction")

        def run(patched):
            det = Detector(config, dimension=2, thresholds=table)
            if patched:
                monkeypatch.setattr(ThresholdTable, "threshold", unreadable)
                monkeypatch.setattr(ThresholdTable, "entry", unreadable)
            events, pooled = [], []
            for t, row in enumerate(y, start=1):
                events += det.step(row)
                if t >= 8:
                    pooled.append(det.pooled_statistics())
            return events, pooled

        events, pooled = run(patched=False)
        assert len(events) > 10 and len(pooled) == len(y) - 7
        assert run(patched=True) == (events, pooled)


@pytest.mark.parametrize("policy", ["halt", "cooldown", "continue"])
def test_step_decomposes_and_tests_each_warm_window_once_per_tested_tick(monkeypatch, policy):
    calls = []
    decompose, compute_gsr = ObservationWindow.decompose, detector_module.compute_gsr

    def spy_decompose(window, half_length=None):
        calls.append(("decompose", window.half_length if half_length is None else half_length))
        return decompose(window, half_length)

    def spy_compute_gsr(decomp, t):
        calls.append(("compute_gsr", t))
        return compute_gsr(decomp, t)

    monkeypatch.setattr(ObservationWindow, "decompose", spy_decompose)
    monkeypatch.setattr(detector_module, "compute_gsr", spy_compute_gsr)
    windows, cooldown = (4, 7, 9), 12
    config = DetectorConfig(windows=windows, alpha_total=0.2, policy=policy, cooldown=cooldown)
    y = derived_rng(14).standard_normal((200, 2))
    y[60:] += 2.0
    y[120:] *= 3.0
    det = Detector(config, dimension=2)
    gap = {"halt": math.inf, "cooldown": cooldown, "continue": 0}[policy]
    quiet_until, tested, fired = 0, 0, 0
    for t, row in enumerate(y, start=1):
        calls.clear()
        events = det.step(row)
        warm = [n for n in windows if t >= 2 * n] if t > quiet_until else []
        expected = [c for n in warm for c in (("decompose", n), ("compute_gsr", t - n + 1))]
        assert calls == expected, f"tick {t}"
        tested += t > quiet_until and t >= 2 * windows[0]
        if events:
            fired += 1
            quiet_until = t + gap
    assert fired >= (1 if policy == "halt" else 3)
    assert (tested < len(y) - 2 * windows[0] + 1) == (policy != "continue")  # ticks were skipped


class TestPooledStatistics:
    def test_requires_a_warm_window(self):
        det = Detector(DetectorConfig(windows=(4,)), dimension=1)
        with pytest.raises(ValueError, match="warm"):
            det.pooled_statistics()

    def test_single_window_pooled_equals_excess(self):
        config = DetectorConfig(windows=(5,), alpha_total=0.1, policy="continue")
        det = Detector(config, dimension=2)
        rng = derived_rng(3)
        for row in rng.standard_normal((10, 2)):
            det.step(row)
        pooled = det.pooled_statistics()
        trip = det._current_triples()[5]
        assert pooled.t_mu == pytest.approx(
            trip.r_mu - det.thresholds.threshold(StatKind.MU, 5)
        )

    def test_pooled_is_supremum_over_windows(self):
        config = DetectorConfig(windows=(4, 6), alpha_total=0.1, policy="continue")
        det = Detector(config, dimension=3)
        rng = derived_rng(4)
        for row in rng.standard_normal((12, 3)):
            det.step(row)
        pooled = det.pooled_statistics()
        per_window = []
        for n, trip in det._current_triples().items():
            per_window.append(trip.r_mu - det.thresholds.threshold(StatKind.MU, n))
        assert pooled.t_mu == max(per_window)

    def test_firing_equivalence_with_step(self):
        config = DetectorConfig(windows=(4, 7), alpha_total=0.3, policy="continue")
        det = Detector(config, dimension=2)
        rng = derived_rng(5)
        y = rng.standard_normal((160, 2))
        y[80:] += 1.0
        for t, row in enumerate(y, start=1):
            events = det.step(row)
            if t >= 8:
                pooled = det.pooled_statistics()
                fired = max(pooled) >= 0.0
                assert fired == bool(events), f"tick {t}"

    def test_degenerate_family_reports_minus_inf(self):
        config = DetectorConfig(windows=(3,), alpha_total=0.1, policy="continue")
        det = Detector(config, dimension=1)
        for _ in range(6):
            det.step([2.0])
        pooled = det.pooled_statistics()
        assert pooled.t_mu == -math.inf
        assert pooled.t_sigma_plus == -math.inf


def _assert_same_events(got, expected, rel=1e-9):
    """Event-list equality with tolerance on the statistic value only.

    For streams that differ by an affine map, whose statistics agree to
    rounding noise rather than bit-exactly.
    """
    assert [e.as_dict() | {"statistic": None} for e in got] == [
        e.as_dict() | {"statistic": None} for e in expected
    ]
    for e1, e2 in zip(expected, got):
        assert e2.statistic == pytest.approx(e1.statistic, rel=rel)


def _batch_stream():
    rng = derived_rng(6)
    y = rng.standard_normal((200, 3))
    y[100:] += 1.5
    return y


class TestDetectStreamBatch:
    @pytest.mark.parametrize(
        "policy, cooldown",
        [
            pytest.param("halt", 11, id="halt"),
            pytest.param("cooldown", 11, id="cooldown"),
            pytest.param("continue", 11, id="continue"),
            pytest.param("cooldown", 1, id="cooldown-1"),
        ],
    )
    def test_matches_step_by_step(self, policy, cooldown):
        config = DetectorConfig(windows=(5, 8), alpha_total=0.2, policy=policy, cooldown=cooldown)
        y = _batch_stream()
        batch = detect_stream(y, config)
        det = Detector(config, dimension=3)
        stepped = []
        for row in y:
            stepped.extend(det.step(row))
        assert batch and stepped
        assert stepped == batch
        assert det.halted == (policy == "halt")

    @pytest.mark.parametrize("past_edge", [False, True], ids=["at-edge", "past-edge"])
    def test_second_exceedance_at_quiet_period_edge(self, past_edge):
        # The cooldown puts the stream's second exceedance exactly on the last
        # reported tick + cooldown (still quiet) or one tick past it.
        y = _batch_stream()
        every = DetectorConfig(windows=(5, 8), alpha_total=0.2, policy="continue")
        first, second = sorted({e.detected_at for e in detect_stream(y, every)})[:2]
        config = DetectorConfig(
            windows=(5, 8), alpha_total=0.2, policy="cooldown",
            cooldown=second - first - past_edge,
        )
        batch = detect_stream(y, config)
        det = Detector(config, dimension=3)
        stepped = [e for row in y for e in det.step(row)]
        assert stepped == batch
        ticks = [e.detected_at for e in stepped]
        assert ticks[0] == first
        assert (second in ticks) == past_edge
        assert not det.halted

    def test_pivotality_event_lists_identical_under_affine_map(self):
        config = DetectorConfig(windows=(6, 9), alpha_total=0.1, policy="continue")
        rng = derived_rng(7)
        y = rng.standard_normal((150, 3))
        y[75:] += 1.2
        base = detect_stream(y, config)
        assert base
        for a in (0.1, 10.0):
            b = rng.standard_normal(3) * 4.0
            mapped = detect_stream(a * y + b, config)
            _assert_same_events(mapped, base)

    def test_deterministic_across_runs(self):
        config = DetectorConfig(windows=(5,), alpha_total=0.3, policy="continue")
        y = _shifted_stream(seed=8, d=2, t_len=90, change_at=46, shift=1.0)[:, :2]
        assert detect_stream(y, config) == detect_stream(y, config)

    def test_event_order_within_tick(self):
        # simultaneous exceedances are reported family-major, window-minor, on
        # both paths and in whatever order the windows are configured
        rng = derived_rng(9)
        y = rng.standard_normal((80, 2))
        y[40:] = 3.0 * rng.standard_normal((40, 2)) + 4.0
        rank = {"MeanChange": 0, "VarianceIncrease": 1, "VarianceDecrease": 2}
        for windows in ((4, 6), (6, 4)):
            config = DetectorConfig(windows=windows, alpha_total=0.4, policy="continue")
            events = detect_stream(y, config)
            det = Detector(config, 2)
            assert [e for row in y for e in det.step(row)] == events
            by_tick = {}
            for e in events:
                by_tick.setdefault(e.detected_at, []).append(e)
            assert any(len({e.window for e in tick}) == 2 for tick in by_tick.values())
            for tick_events in by_tick.values():
                keys = [(rank[e.kind], e.window) for e in tick_events]
                assert keys == sorted(keys)

    def test_works_with_monte_carlo_table(self):
        table = calibrate_monte_carlo(
            CalibrationConfig(
                window_lengths=(5,),
                dimension=2,
                alphas=allocate_alphas(0.1, (5,)),
                zone_length=30,
                replications=300,
                seed=1,
            )
        )
        config = DetectorConfig(windows=(5,), policy="halt")
        y = _shifted_stream(seed=10, t_len=80, d=2, change_at=41, shift=3.0)[:, :2]
        events = detect_stream(y, config, table)
        assert events and events[0].threshold == table.threshold(
            {"MeanChange": StatKind.MU,
             "VarianceIncrease": StatKind.SIGMA_PLUS,
             "VarianceDecrease": StatKind.SIGMA_MINUS}[events[0].kind],
            5,
        )


@pytest.mark.parametrize("policy", ["halt", "cooldown", "continue"])
def test_threshold_ties_fire_on_both_paths(policy):
    # The replication whose zone maximum is a Monte Carlo threshold ties it
    # exactly; step and detect_stream must report the same events on it.
    windows, d = (3, 5), 2
    config = DetectorConfig(windows=windows, alpha_total=0.3, policy=policy, cooldown=4)
    mismatched = []
    for seed in range(40):
        cal = CalibrationConfig(
            window_lengths=windows, dimension=d, alphas=config.resolved_alphas(),
            zone_length=24, replications=40, seed=seed,
        )
        table = calibrate_monte_carlo(cal)
        for (kind, n), maxima in calibration_maxima(cal).items():
            rho = table.threshold(kind, n)
            k = int(np.flatnonzero(maxima == rho)[0])
            y = cal.base_mean + cal.base_scale * derived_rng(seed, k).standard_normal((24, d))
            batch = detect_stream(y, config, table)
            if policy == "continue":
                assert rho in [e.statistic for e in batch if e.window == n]
            det = Detector(config, d, table)
            if [e for row in y for e in det.step(row)] != batch:
                mismatched.append((seed, str(kind), n))
    assert mismatched == []


class TestDetectStreamBlocks:
    """Streams several kernel blocks long, with changes at block boundaries."""

    @staticmethod
    def _stream(seed=11, d=3):
        rng = derived_rng(seed)
        t_len = 3 * _BLOCK + 400
        y = rng.standard_normal((t_len, d)) + 20.0
        # mean and variance changes n rows either side of the block edges
        y[_BLOCK - 6 :] += 1.5
        y[2 * _BLOCK + 6 :] *= 2.0
        y[3 * _BLOCK + 200 :] -= 4.0
        return y

    @pytest.mark.parametrize("policy", ["halt", "cooldown", "continue"])
    def test_matches_step_by_step(self, policy):
        config = DetectorConfig(windows=(6, 13), alpha_total=0.05, policy=policy, cooldown=25)
        y = self._stream()
        batch = detect_stream(y, config)
        det = Detector(config, dimension=y.shape[1])
        stepped = [e for row in y for e in det.step(row)]
        assert stepped
        if policy != "halt":
            assert len({e.detected_at for e in stepped}) > 3
        assert stepped == batch

    def test_events_are_plain_detection_events(self):
        config = DetectorConfig(windows=(6, 13), alpha_total=0.05, policy="continue")
        events = detect_stream(self._stream(), config)
        assert events
        for e in events:
            rebuilt = DetectionEvent(**e.as_dict())
            assert type(e) is DetectionEvent
            assert e == rebuilt and hash(e) == hash(rebuilt) and repr(e) == repr(rebuilt)
            with pytest.raises(AttributeError):
                e.window = 0

    def test_constant_stream_never_fires(self):
        config = DetectorConfig(windows=(4, 9), alpha_total=0.5, policy="continue")
        assert detect_stream(np.full((2 * _BLOCK + 50, 2), 7.25), config) == []

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_rejects_non_finite_in_any_block(self, bad, where):
        config = DetectorConfig(windows=(5, 8))
        y = derived_rng(12).standard_normal((3 * _BLOCK, 2))
        row = {"first": 0, "middle": y.shape[0] // 2, "last": y.shape[0] - 1}[where]
        y[row, 0] = bad
        with pytest.raises(ValueError, match="^stream contains non-finite values$"):
            detect_stream(y, config)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("rows", [(5,), (60,), (5, 60)], ids=["caller", "helper", "both"])
    def test_rejects_non_finite_in_either_share_of_a_split_scan(self, monkeypatch, bad, rows):
        # Blocks of 16 window positions at n = 2 and 3 on 67 rows: the calling
        # thread scans rows 0-36 and the helper thread rows 32-66.
        monkeypatch.setattr(windows_module, "_BLOCK", 16)
        y = derived_rng(13).standard_normal((67, 2))
        y[list(rows), 1] = bad
        with scan_split(True), warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^stream contains non-finite values$"):
                detect_stream(y, DetectorConfig(windows=(2, 3)))

    @pytest.mark.parametrize("shape", [(40,), (2, 40, 2)], ids=["1-D", "3-D"])
    def test_stream_must_be_two_dimensional(self, shape):
        with pytest.raises(ValueError, match=r"^stream must be a \(T, d\) array$"):
            detect_stream(np.zeros(shape), DetectorConfig(windows=(5,)))

    def test_rejects_non_finite_in_stream_too_short_to_scan(self):
        config = DetectorConfig(windows=(5,))
        y = np.zeros((6, 2))
        y[3, 1] = np.nan
        with pytest.raises(ValueError, match="^stream contains non-finite values$"):
            detect_stream(y, config)

    @pytest.mark.parametrize("rows", [40, 6], ids=["scanned", "too-short"])
    @pytest.mark.parametrize(
        "dim, lengths, error",
        [(2, (5,), ValueError), (3, (5, 8), KeyError)],
        ids=["other-dimension", "missing-window"],
    )
    def test_non_finite_reported_before_table_mismatch(self, rows, dim, lengths, error):
        table = analytic_table((5,), 3, allocate_alphas(0.06, (5,)))
        config = DetectorConfig(windows=lengths)
        y = np.zeros((rows, dim))
        y[-1, 0] = np.inf
        with pytest.raises(ValueError, match="^stream contains non-finite values$"):
            detect_stream(y, config, table)
        y[-1, 0] = 0.0
        with pytest.raises(error) as raised:
            detect_stream(y, config, table)
        assert "non-finite" not in str(raised.value)

    @pytest.mark.parametrize(
        "dim, lengths, error, message",
        [
            (2, (5,), ValueError, "calibrated for dimension 3, stream has dimension 2"),
            (3, (5, 8), KeyError, r"lacks \(mu, n=8\), \(sigma\+, n=8\), \(sigma-, n=8\)"),
        ],
        ids=["other-dimension", "missing-window"],
    )
    def test_table_misfit_raises_before_the_scan(self, monkeypatch, dim, lengths, error, message):
        scans = []
        scan = windows_module._window_scan
        monkeypatch.setattr(
            windows_module, "_window_scan", lambda *args: scans.append(args) or scan(*args)
        )
        table = analytic_table((5,), 3, allocate_alphas(0.06, (5,)))
        with pytest.raises(error, match=message):
            detect_stream(np.zeros((40, dim)), DetectorConfig(windows=lengths), table)
        assert scans == []
        detect_stream(np.zeros((40, 3)), DetectorConfig(windows=(5,)), table)
        assert len(scans) == 1  # the spy sees the scan of a table that fits


class TestDetectStreamChunks:
    """Streams several ratio chunks long: ``_BLOCK`` is 16, so a chunk is 64 window positions."""

    WINDOWS = (5, 8, 12)
    EDGES = (74, 138)  # the first clocks of the second and third chunks

    @pytest.fixture(autouse=True)
    def _short_blocks(self, monkeypatch):
        monkeypatch.setattr(windows_module, "_BLOCK", 16)

    @staticmethod
    def _both_paths(y, config, table=None):
        det = Detector(config, y.shape[1], table)
        stepped = [e for row in y for e in det.step(row)]
        assert stepped == detect_stream(y, config, table)
        return stepped

    def _flagged_ticks(self, y, table=None, alpha_total=0.01):
        config = DetectorConfig(self.WINDOWS, alpha_total=alpha_total, policy="continue")
        return sorted({e.detected_at for e in self._both_paths(y, config, table)})

    def test_quiet_period_crosses_a_chunk_edge(self):
        y = derived_rng(21).standard_normal((600, 2))
        y[62:] += 3.0
        y[300:] *= 3.0
        flagged = self._flagged_ticks(y)
        config = DetectorConfig(self.WINDOWS, alpha_total=0.01, policy="cooldown", cooldown=20)
        kept = [e.detected_at for e in self._both_paths(y, config)]
        # A tick kept before the edge hides flags after it, which a fresh chunk would report.
        last = max(t for t in kept if t < self.EDGES[0])
        hidden = [t for t in flagged if self.EDGES[0] <= t <= last + 20]
        assert hidden and not set(hidden) & set(kept)
        assert any(t > self.EDGES[1] for t in kept)

    def test_halt_in_the_second_chunk_with_flags_after(self):
        y = derived_rng(22).standard_normal((600, 2))
        y[100:] += 3.0
        y[300:] -= 3.0
        flagged = self._flagged_ticks(y, alpha_total=0.001)
        config = DetectorConfig(self.WINDOWS, alpha_total=0.001, policy="halt")
        events = self._both_paths(y, config)
        assert events and {e.detected_at for e in events} == {flagged[0]}
        assert self.EDGES[0] <= flagged[0] < self.EDGES[1] < flagged[-1]

    @pytest.mark.parametrize("policy", ["halt", "cooldown", "continue"])
    def test_thresholds_tied_to_observed_ratios(self, policy):
        y = derived_rng(23).standard_normal((600, 2))
        entries = []
        for n in self.WINDOWS:
            for kind, r in zip(StatKind, sliding_gsr(sliding_spanning_stats(y, n))):
                # the sixth largest ratio: five more exceed it, the sixth ties it
                entries.append(ThresholdEntry(kind, n, 0.05, float(np.sort(r)[-6]), "monte_carlo"))
        table = ThresholdTable(dimension=2, entries=tuple(entries))
        flagged = self._flagged_ticks(y, table)
        assert flagged[0] < self.EDGES[0] and flagged[-1] >= self.EDGES[1]
        config = DetectorConfig(self.WINDOWS, policy=policy, cooldown=40)
        events = self._both_paths(y, config, table)
        if policy == "continue":
            assert {e.statistic for e in events} >= {entry.rho for entry in entries}


def test_memory_beyond_kernel_output_does_not_grow_with_stream_length():
    # Thresholds that never fire: every chunk is tested, and no event is built.
    lengths = (20, 35, 50)
    table = ThresholdTable(
        dimension=2,
        entries=tuple(ThresholdEntry(k, n, 0.02, 1e9, "monte_carlo") for k in StatKind for n in lengths),
    )
    config = DetectorConfig(lengths, policy="continue")
    extra = []
    for t_len in (40_000, 160_000):
        y = derived_rng(3).standard_normal((t_len, 2))
        tracemalloc.start()
        try:
            assert detect_stream(y, config, table) == []
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        positions = t_len - 2 * min(lengths) + 1
        # The kernel's output: three distances per (position, window) and the clocks.
        extra.append(peak - (3 * len(lengths) + 1) * positions * 8)
    assert extra[1] - extra[0] < 1_000_000


class TestEventSerialization:
    def test_jsonl_round_trip(self):
        events = [
            DetectionEvent("MeanChange", 46, 15, 2.71, 2.5, 60),
            DetectionEvent("VarianceIncrease", 50, 11, 3.1, 2.9, 60),
        ]
        text = events_to_jsonl(events)
        assert text.count("\n") == 2
        assert events_from_jsonl(text) == events
        assert events_from_jsonl(f"\n  \n{text}\n") == events  # blank lines are skipped
        whole = text.replace('"window": 15', '"window": 15.0')
        assert events_from_jsonl(whole) == events
        assert all(type(e.window) is int for e in events_from_jsonl(whole))
        # 3.7 once read as detected_at 3, and true as change_at 1
        bad = [
            ("detected_at", 3.7, "^detected_at must be a whole number, got 3.7$"),
            ("change_at", True, "^change_at must be a whole number, got True$"),
            ("window", "15", "^window must be a whole number, got '15'$"),
            ("statistic", math.nan, "^statistic must be finite, got nan$"),
            ("threshold", "2.5", "^threshold must be finite, got '2.5'$"),
        ]
        for field, value, message in bad:
            record = {**events[0].as_dict(), field: value}
            with pytest.raises(ValueError, match=message):
                events_from_jsonl(json.dumps(record))
            with pytest.raises(ValueError, match=message):  # an event built in code
                DetectionEvent(**record)
        # an unknown kind was once read as an event, and built in code was written as one
        # that could not be read back; a missing field raised a bare KeyError and a line
        # that is not an object a TypeError
        kinds = ("MeanChange", "VarianceIncrease", "VarianceDecrease")
        for kind in (5, "bogus", None):
            message = re.escape(f"kind must be one of {kinds}, got {kind!r}")
            record = {**events[0].as_dict(), "kind": kind}
            with pytest.raises(ValueError, match=f"^{message}$"):
                events_from_jsonl(json.dumps(record))
            with pytest.raises(ValueError, match=f"^{message}$"):
                DetectionEvent(**record)
        for field in events[0].as_dict():
            record = {k: v for k, v in events[0].as_dict().items() if k != field}
            with pytest.raises(ValueError, match=f"^event record lacks the field '{field}'$"):
                events_from_jsonl(f"{text}{json.dumps(record)}\n")
        for line, name in (("[1, 2]", "list"), ('"MeanChange"', "str"), ("7", "int")):
            message = f"^event record must be a JSON object, got {name}$"
            with pytest.raises(ValueError, match=message):
                events_from_jsonl(line)

    def test_jsonl_field_names(self):
        event = DetectionEvent("VarianceDecrease", 3, 5, 1.5, 1.2, 7)
        doc = json.loads(events_to_jsonl([event]))
        assert set(doc) == {
            "detected_at",
            "change_at",
            "kind",
            "window",
            "statistic",
            "threshold",
        }
