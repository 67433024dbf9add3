"""Scenario generation, outcome classification, and the power studies."""

import json
import math

import numpy as np
import pytest
from oracles import naive_decomposition

import gsrdetect.calibration as calibration_module
from gsrdetect.calibration import analytic_table
from gsrdetect.detector import DetectionEvent, allocate_alphas
from gsrdetect.distributions import derived_rng
from gsrdetect.ratios import StatKind
from gsrdetect.simulate import (
    PowerReport,
    Scenario,
    classify_outcome,
    run_online_power,
    run_static_power,
    static_power_grid,
)


def _event(change_at=10):
    return DetectionEvent("MeanChange", change_at, 5, 3.0, 2.0, change_at + 4)


class TestScenario:
    def test_change_applies_from_change_at(self):
        sc = Scenario(dimension=2, length=30, change_at=11, mean_shift=100.0)
        y = sc.sample(derived_rng(0))
        assert y.shape == (30, 2)
        assert np.all(y[:10] < 50)
        assert np.all(y[10:] > 50)

    def test_variance_scale(self):
        sc = Scenario(dimension=1, length=20000, change_at=10001, variance_scale=4.0)
        y = sc.sample(derived_rng(1))
        assert y[:10000].var() == pytest.approx(1.0, rel=0.1)
        assert y[10000:].var() == pytest.approx(4.0, rel=0.1)

    def test_has_change_semantics(self):
        assert not Scenario(dimension=1, length=10).has_change
        assert not Scenario(dimension=1, length=10, change_at=5).has_change
        assert Scenario(dimension=1, length=10, change_at=5, mean_shift=1.0).has_change
        assert Scenario(dimension=1, length=10, change_at=5, variance_scale=2.0).has_change

    def test_rejects_out_of_range_change(self):
        with pytest.raises(ValueError):
            Scenario(dimension=1, length=10, change_at=11)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("mean_shift", math.nan, "^mean_shift must be finite, got nan$"),
            ("variance_scale", math.inf, "^variance_scale must be positive and finite, got inf$"),
            ("variance_scale", math.nan, "^variance_scale must be positive and finite, got nan$"),
        ],
    )
    def test_rejects_non_finite_change(self, field, value, message):
        # each once passed and ended in the kernel's non-finite error
        with pytest.raises(ValueError, match=message):
            Scenario(dimension=2, length=10, change_at=5, **{field: value})

    def test_dimension_must_be_a_whole_number(self):
        # 2.5 once reached numpy's draw as a bare TypeError
        for dim in (2.5, True):
            with pytest.raises(ValueError, match="^dimension must be a whole number"):
                Scenario(dimension=dim, length=10)
        sc = Scenario(dimension=3.0, length=10)
        assert type(sc.dimension) is int and sc.sample(derived_rng(0)).shape == (10, 3)

    def test_length_and_change_at_must_be_whole_numbers(self):
        # each once ended in a bare TypeError from numpy, or (change_at=2.5
        # without a shift) was accepted silently
        for bad in (10.5, True):
            with pytest.raises(ValueError, match="^length must be a whole number"):
                Scenario(dimension=2, length=bad)
        for bad in (2.5, True):
            for shift in (0.0, 1.0):
                with pytest.raises(ValueError, match="^change_at must be a whole number"):
                    Scenario(dimension=2, length=10, change_at=bad, mean_shift=shift)
        sc = Scenario(dimension=2, length=10.0, change_at=4.0, mean_shift=1.0)
        assert type(sc.length) is int and type(sc.change_at) is int
        assert np.array_equal(
            sc.sample(derived_rng(0)),
            Scenario(dimension=2, length=10, change_at=4, mean_shift=1.0).sample(derived_rng(0)),
        )


class TestClassifyOutcome:
    def test_four_quadrants(self):
        changed = Scenario(dimension=1, length=20, change_at=10, mean_shift=1.0)
        null = Scenario(dimension=1, length=20)
        assert classify_outcome([_event()], changed) == "TP"
        assert classify_outcome([], changed) == "FN"
        assert classify_outcome([_event()], null) == "FP"
        assert classify_outcome([], null) == "TN"

    def test_multiple_events_still_one_stream_decision(self):
        null = Scenario(dimension=1, length=20)
        assert classify_outcome([_event(3), _event(9)], null) == "FP"


class TestPowerReport:
    def test_metric_identities(self):
        rep = PowerReport(tp=40, fp=5, tn=45, fn=10)
        assert rep.accuracy == pytest.approx(85 / 100)
        assert rep.sensitivity == pytest.approx(40 / 50)
        assert rep.p_mean == pytest.approx(math.sqrt(0.85 * 0.8))
        assert rep.fpr == pytest.approx(5 / 50)
        for value in (rep.accuracy, rep.sensitivity, rep.p_mean, rep.fpr):
            assert 0.0 <= value <= 1.0

    def test_degenerate_ratios_are_none(self):
        no_positives = PowerReport(tp=0, fp=3, tn=97, fn=0)
        assert no_positives.sensitivity is None
        assert no_positives.p_mean is None
        no_negatives = PowerReport(tp=50, fp=0, tn=0, fn=50)
        assert no_negatives.fpr is None

    def test_json_round_trip(self):
        rep = PowerReport(tp=1, fp=2, tn=3, fn=4)
        doc = json.loads(rep.to_json())
        assert doc["tp"] == 1 and doc["fn"] == 4
        assert doc["accuracy"] == pytest.approx(0.4)


class TestStaticStudy:
    def test_large_shift_saturates(self):
        rep = run_static_power(10, 30, "mean", samples=200, mean_shift=10.0, seed=1)
        assert rep.p_mean >= 0.99

    def test_dimension_adapted_shift_detectable(self):
        # default shift d^(-1/3), the regime where the test is designed to work
        rep = run_static_power(10, 30, "mean", samples=400, seed=2)
        assert rep.p_mean >= 0.8

    def test_no_change_controls_fpr(self):
        samples = 1000
        rep = run_static_power(5, 20, "none", samples=samples, alpha=0.05, seed=3)
        assert rep.sensitivity is None  # degenerate: no positives injected
        se = math.sqrt(0.05 * 0.95 / samples)
        assert rep.fpr <= 0.05 + 3 * se

    def test_variance_change_detectable_in_high_dimension(self):
        rep = run_static_power(20, 30, "variance", samples=300, variance_scale=2.0, seed=4)
        assert rep.p_mean >= 0.9

    def test_deterministic_given_seed(self):
        a = run_static_power(3, 10, "mean", samples=150, seed=5)
        b = run_static_power(3, 10, "mean", samples=150, seed=5)
        assert a == b

    def test_rejects_small_sample_count(self):
        with pytest.raises(ValueError):
            run_static_power(3, 10, "mean", samples=50)

    def test_sample_count_must_be_a_whole_number(self):
        # 100.5 once ended in a bare TypeError from numpy
        for bad in (100.5, True):
            with pytest.raises(ValueError, match="^samples must be a whole number"):
                run_static_power(3, 5, "mean", samples=bad)
        assert run_static_power(3, 5, "mean", samples=100.0) == run_static_power(3, 5, "mean")

    def test_seed_must_be_a_nonnegative_whole_number(self):
        # 1.5 once drew silently as seed 1
        for seed in (1.5, True):
            with pytest.raises(ValueError, match="^seed must be a whole number"):
                run_static_power(3, 5, "mean", seed=seed)
        with pytest.raises(ValueError, match="^seed must be nonnegative, got -1$"):
            run_static_power(3, 5, "mean", seed=-1)
        assert run_static_power(3, 5, "mean", seed=2.0) == run_static_power(3, 5, "mean", seed=2)

    def test_rejects_non_finite_mean_shift(self):
        # once ended in the kernel's non-finite error
        with pytest.raises(ValueError, match="^mean_shift must be finite, got nan$"):
            run_static_power(3, 5, "mean", mean_shift=math.nan)

    def test_window_and_dimension_must_be_whole_numbers(self):
        for bad in (2.5, True):
            with pytest.raises(ValueError, match="^dimension must be a whole number"):
                run_static_power(bad, 5, "mean")
            with pytest.raises(ValueError, match="^window half-length must be a whole number"):
                run_static_power(5, bad, "mean")
        assert run_static_power(3.0, 5.0, "mean", seed=2) == run_static_power(3, 5, "mean", seed=2)

    def test_dimension_must_be_at_least_one(self):
        # 0 once raised ZeroDivisionError from the default shift d^(-1/3)
        with pytest.raises(ValueError, match="^dimension must be at least 1, got 0$"):
            run_static_power(0, 5, "mean")

    @pytest.mark.parametrize(
        "d, n, change, shift, scale, samples, batch",
        [
            pytest.param(1, 3, "mean", 2.2, 1.0, 120, None, id="1-3-mean-2.2-1.0-120"),
            pytest.param(4, 3, "variance", 0.0, 6.0, 120, None, id="4-3-variance-0.0-6.0-120"),
            pytest.param(1, 10, "variance", 0.0, 3.0, 120, None, id="1-10-variance-0.0-3.0-120"),
            # more than one kernel batch
            pytest.param(4, 10, "mean", 0.6, 1.0, 600, 512, id="4-10-mean-0.6-1.0-600"),
            # Batches of one window, and of 7 with a short last batch (120 = 17 * 7 + 1).
            pytest.param(4, 3, "variance", 0.0, 6.0, 120, 1, id="4-3-variance-0.0-6.0-120-batch1"),
            pytest.param(4, 3, "variance", 0.0, 6.0, 120, 7, id="4-3-variance-0.0-6.0-120-batch7"),
        ],
    )
    def test_counts_match_pairwise_oracle(
        self, monkeypatch, d, n, change, shift, scale, samples, batch
    ):
        if batch is not None:
            monkeypatch.setattr(calibration_module, "_BATCH_VALUES", batch * 2 * n * d)
        alpha, seed = 0.05, 13
        table = analytic_table([n], d, allocate_alphas(alpha, [n]))
        rho = [table.threshold(kind, n) for kind in StatKind]
        counts = {"tp": 0, "fp": 0, "tn": 0, "fn": 0}
        for i in range(samples):
            rng = derived_rng(seed, i)
            with_change = bool(rng.random() < 0.5)
            y = rng.standard_normal((2 * n, d))
            if with_change:
                y[n:] = y[n:] * math.sqrt(scale) + shift
            w = naive_decomposition(y)
            ratios = [
                (w["w_full"], w["w_left"] + w["w_right"]),
                (w["w_right"], w["w_left"]),
                (w["w_left"], w["w_right"]),
            ]
            hit = any(den > 0 and num / den >= r for (num, den), r in zip(ratios, rho))
            counts[("tp" if hit else "fn") if with_change else ("fp" if hit else "tn")] += 1
        assert counts["tp"] and counts["fn"]  # both outcomes occur
        report = run_static_power(
            d, n, change, samples=samples, alpha=alpha, seed=seed,
            mean_shift=shift, variance_scale=scale,
        )
        assert (report.tp, report.fp, report.tn, report.fn) == (
            counts["tp"], counts["fp"], counts["tn"], counts["fn"]
        )


@pytest.fixture(scope="module")
def small_study():
    return run_online_power(
        5,
        windows=(10, 15),
        change="mean",
        samples=300,
        alpha_total=0.06,
        seed=6,
        stream_length=60,
        change_position=30,
        mean_shift=1.2,
        calibration_replications=500,
        return_localization=True,
    )


class TestOnlineStudy:
    def test_detects_most_changes(self, small_study):
        report, offsets = small_study
        assert report.total == 300
        assert report.sensitivity >= 0.9
        assert report.fpr <= 0.12

    def test_localization_within_one_window(self, small_study):
        report, offsets = small_study
        assert len(offsets) == report.tp
        assert np.median(offsets) <= 15

    def test_increasing_shift_does_not_hurt_sensitivity(self):
        common = dict(
            windows=(8,),
            change="mean",
            samples=250,
            alpha_total=0.1,
            seed=7,
            stream_length=40,
            change_position=20,
            calibration_replications=400,
        )
        weak = run_online_power(4, mean_shift=0.5, **common)
        strong = run_online_power(4, mean_shift=2.0, **common)
        # common random numbers: same seed, so noise largely cancels
        assert strong.sensitivity >= weak.sensitivity - 0.02

    def test_rejects_small_sample_count(self):
        with pytest.raises(ValueError):
            run_online_power(2, samples=100)

    def test_dimension_must_be_at_least_one(self):
        # 0 once raised ZeroDivisionError from the default shift d^(-1/3)
        with pytest.raises(ValueError, match="^dimension must be at least 1, got 0$"):
            run_online_power(0, samples=200)

    def test_seed_must_be_a_nonnegative_whole_number(self):
        # 1.5 once drew silently as seed 1
        table = analytic_table((5,), 2, allocate_alphas(0.06, (5,)))
        study = dict(windows=(5,), samples=200, thresholds=table, stream_length=30, change_position=15)
        for seed in (1.5, True):
            with pytest.raises(ValueError, match="^seed must be a whole number"):
                run_online_power(2, seed=seed, **study)
        with pytest.raises(ValueError, match="^seed must be nonnegative, got -1$"):
            run_online_power(2, seed=-1, **study)
        assert run_online_power(2, seed=2.0, **study) == run_online_power(2, seed=2, **study)

    @pytest.mark.parametrize(
        "field, value",
        [("stream_length", 60.5), ("change_position", 30.5), ("samples", 200.5), ("samples", True)],
    )
    def test_counts_and_positions_must_be_whole_numbers(self, field, value):
        # each once ended in a bare TypeError from numpy
        with pytest.raises(ValueError, match=f"^{field} must be a whole number"):
            run_online_power(2, **{"windows": (5,), "samples": 200, field: value})


@pytest.mark.parametrize(
    "study", [lambda **kw: run_static_power(2, 5, **kw), lambda **kw: run_online_power(2, **kw)],
    ids=["static", "online"],
)
def test_studies_reject_an_unknown_change(study):
    with pytest.raises(ValueError, match=r"^change must be none\|mean\|variance, got 'bogus'$"):
        study(change="bogus", samples=200)


class TestStaticGrid:
    def test_grid_rows_complete(self):
        rows = static_power_grid((1, 4), (10, 12), "mean", samples=120, seed=8)
        assert len(rows) == 4
        assert {(r["dimension"], r["window"]) for r in rows} == {
            (1, 10), (1, 12), (4, 10), (4, 12),
        }
        for row in rows:
            assert 0.0 <= row["p_mean"] <= 1.0
