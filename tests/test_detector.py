"""Alpha allocation, the online detector, policies, and the batch path."""

import math

import numpy as np
import pytest

from gsrdetect.calibration import (
    CalibrationConfig,
    analytic_table,
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
from gsrdetect.ratios import StatKind
from gsrdetect.windows import _BLOCK


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

    def test_single_family_single_window(self):
        alphas = allocate_alphas(0.04, (30,), families=(StatKind.MU,))
        assert alphas == {(StatKind.MU, 30): 0.04}

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


@pytest.mark.parametrize("n", [5.5, 2.9, True])
def test_config_rejects_fractional_and_boolean_windows(n):
    # 5.5 once scanned n=5 under thresholds of a fractional-n law, at change_at=97.5
    with pytest.raises(ValueError, match="whole number"):
        DetectorConfig(windows=(n,))
    with pytest.raises(ValueError, match="whole number"):
        DetectorConfig(windows=(4, n))


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
        rng = derived_rng(1)
        for t in range(19):
            assert det.step(rng.standard_normal(1) * 10) == []

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

    def test_table_dimension_checked(self):
        table = analytic_table((4,), 2, allocate_alphas(0.06, (4,)))
        with pytest.raises(ValueError, match="dimension"):
            Detector(DetectorConfig(windows=(4,)), dimension=3, thresholds=table)

    def test_table_must_cover_windows(self):
        table = analytic_table((4,), 2, allocate_alphas(0.06, (4,)))
        with pytest.raises(KeyError):
            Detector(DetectorConfig(windows=(4, 6)), dimension=2, thresholds=table)


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

    def test_rejects_non_finite_in_stream_too_short_to_scan(self):
        config = DetectorConfig(windows=(5,))
        y = np.zeros((6, 2))
        y[3, 1] = np.nan
        with pytest.raises(ValueError, match="^stream contains non-finite values$"):
            detect_stream(y, config)

    def test_non_finite_reported_before_table_mismatch(self):
        table = analytic_table((5,), 3, allocate_alphas(0.06, (5,)))
        y = np.zeros((40, 2))
        y[-1, 0] = np.inf
        with pytest.raises(ValueError, match="^stream contains non-finite values$"):
            detect_stream(y, DetectorConfig(windows=(5,)), table)


class TestEventSerialization:
    def test_jsonl_round_trip(self):
        events = [
            DetectionEvent("MeanChange", 46, 15, 2.71, 2.5, 60),
            DetectionEvent("VarianceIncrease", 50, 11, 3.1, 2.9, 60),
        ]
        text = events_to_jsonl(events)
        assert text.count("\n") == 2
        assert events_from_jsonl(text) == events

    def test_jsonl_field_names(self):
        import json

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
