"""Monte Carlo and analytic threshold calibration, table serialization."""

import math

import numpy as np
import pytest

from gsrdetect import windows as windows_module
from gsrdetect.calibration import (
    CalibrationConfig,
    CalibrationError,
    ThresholdEntry,
    ThresholdTable,
    analytic_table,
    analytic_threshold_mu,
    analytic_threshold_sigma,
    bootstrap_quantile_se,
    calibrate_monte_carlo,
    calibration_maxima,
    empirical_upper_quantile,
)
from gsrdetect.detector import allocate_alphas
from gsrdetect.distributions import derived_rng
from gsrdetect.ratios import StatKind, sliding_gsr
from gsrdetect.windows import sliding_spanning_stats


def _config(**overrides):
    defaults = dict(
        window_lengths=(4,),
        dimension=2,
        alphas=allocate_alphas(0.15, (4,)),
        zone_length=16,
        replications=400,
        seed=7,
    )
    defaults.update(overrides)
    return CalibrationConfig(**defaults)


class TestEmpiricalQuantile:
    def test_order_statistic_convention(self):
        # alpha = 0.05 over 1000 values: the 950th order statistic
        values = np.arange(1, 1001, dtype=float)
        assert empirical_upper_quantile(values, 0.05) == 950.0
        assert empirical_upper_quantile(values, 0.1) == 900.0
        assert empirical_upper_quantile(values, 0.5) == 500.0

    def test_unresolvable_tail_raises(self):
        with pytest.raises(CalibrationError, match="quantile unresolvable"):
            empirical_upper_quantile(np.arange(10.0), 0.05)

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=500)
        quantiles = [empirical_upper_quantile(values, a) for a in (0.01, 0.05, 0.1, 0.3)]
        assert quantiles == sorted(quantiles, reverse=True)


class TestMonteCarloCalibration:
    def test_deterministic_given_seed(self):
        t1 = calibrate_monte_carlo(_config())
        t2 = calibrate_monte_carlo(_config())
        assert t1.to_json() == t2.to_json()

    def test_different_seed_changes_thresholds(self):
        t1 = calibrate_monte_carlo(_config())
        t2 = calibrate_monte_carlo(_config(seed=8))
        assert t1.to_json() != t2.to_json()

    def test_mu_thresholds_exceed_two_and_all_positive(self):
        table = calibrate_monte_carlo(_config())
        for entry in table.entries:
            assert entry.rho > 0
            if entry.kind is StatKind.MU:
                assert entry.rho > 2.0

    def test_monotone_in_alpha_with_shared_seed(self):
        maxima = calibration_maxima(_config())
        for key, values in maxima.items():
            tight = empirical_upper_quantile(values, 0.02)
            loose = empirical_upper_quantile(values, 0.2)
            assert tight >= loose, key

    def test_max_over_zone_dominates_single_point(self):
        table = calibrate_monte_carlo(
            _config(window_lengths=(5,), zone_length=40, replications=600,
                    alphas=allocate_alphas(0.15, (5,)), dimension=3)
        )
        alphas = allocate_alphas(0.15, (5,))
        assert table.threshold(StatKind.MU, 5) >= analytic_threshold_mu(
            5, 3, alphas[(StatKind.MU, 5)]
        )
        assert table.threshold(StatKind.SIGMA_PLUS, 5) >= analytic_threshold_sigma(
            5, 3, alphas[(StatKind.SIGMA_PLUS, 5)]
        )

    def test_single_point_zone_converges_to_analytic(self):
        # zone of size 1: the max is one draw from the null law, so the MC
        # quantile estimates the analytic single-point critical value
        n, d = 5, 2
        alphas = {(kind, n): 0.1 for kind in StatKind}
        config = CalibrationConfig(
            window_lengths=(n,),
            dimension=d,
            alphas=alphas,
            zone_length=2 * n,
            replications=20000,
            seed=3,
        )
        maxima = calibration_maxima(config)
        table = calibrate_monte_carlo(config)
        for kind, analytic in (
            (StatKind.MU, analytic_threshold_mu(n, d, 0.1)),
            (StatKind.SIGMA_PLUS, analytic_threshold_sigma(n, d, 0.1)),
            (StatKind.SIGMA_MINUS, analytic_threshold_sigma(n, d, 0.1)),
        ):
            se = bootstrap_quantile_se(maxima[(kind, n)], 0.1, resamples=300, seed=1)
            assert abs(table.threshold(kind, n) - analytic) <= 3 * se, kind

    def test_pivotality_against_shifted_scaled_law(self):
        base = _config(replications=1500)
        shifted = _config(replications=1500, base_mean=5.0, base_scale=3.0)
        t_base = calibrate_monte_carlo(base)
        t_shift = calibrate_monte_carlo(shifted)
        m_base = calibration_maxima(base)
        m_shift = calibration_maxima(shifted)
        for kind in StatKind:
            alpha = base.alphas[(kind, 4)]
            se = math.hypot(
                bootstrap_quantile_se(m_base[(kind, 4)], alpha, resamples=300, seed=2),
                bootstrap_quantile_se(m_shift[(kind, 4)], alpha, resamples=300, seed=3),
            )
            diff = abs(t_base.threshold(kind, 4) - t_shift.threshold(kind, 4))
            assert diff <= 2 * se, (kind, diff, se)

    def test_rejects_unresolvable_alpha(self):
        with pytest.raises(CalibrationError, match="quantile unresolvable"):
            calibrate_monte_carlo(_config(replications=5))

    def test_rejects_short_zone(self):
        with pytest.raises(CalibrationError, match="zone"):
            calibrate_monte_carlo(_config(zone_length=7)).validate()

    def test_rejects_missing_alpha(self):
        with pytest.raises(CalibrationError, match="missing alpha"):
            calibrate_monte_carlo(_config(alphas={(StatKind.MU, 4): 0.05}))

    def test_whole_float_window_lengths_are_ints(self):
        config = _config(window_lengths=(4.0,))
        assert config.window_lengths == (4,) and type(config.window_lengths[0]) is int
        assert calibrate_monte_carlo(config) == calibrate_monte_carlo(_config())

    @pytest.mark.parametrize("n", [5.5, True])
    def test_rejects_fractional_and_boolean_window_lengths(self, n):
        lengths = (4, n)
        config = _config(window_lengths=lengths, alphas=allocate_alphas(0.15, lengths), zone_length=24)
        with pytest.raises(CalibrationError, match="whole number"):
            calibrate_monte_carlo(config)

    def test_dimension_must_be_a_whole_number(self):
        # 2.5 and True once ended in a bare TypeError, and so did 3.0
        for dim in (2.5, True):
            with pytest.raises(CalibrationError, match="^dimension must be a whole number"):
                calibrate_monte_carlo(_config(dimension=dim))
        with pytest.raises(CalibrationError, match="^dimension must be at least 1, got 0$"):
            calibrate_monte_carlo(_config(dimension=0))
        table = calibrate_monte_carlo(_config(dimension=3.0))
        assert type(table.dimension) is int and table == calibrate_monte_carlo(_config(dimension=3))


def _maxima_oracle(config):
    """Zone maxima from one scan per replication and window length."""
    zone = config.resolved_zone_length()
    maxima = {}
    for k in range(config.replications):
        rng = derived_rng(config.seed, k)
        y = config.base_mean + config.base_scale * rng.standard_normal((zone, config.dimension))
        for n in config.window_lengths:
            for kind, r in zip(StatKind, sliding_gsr(sliding_spanning_stats(y, n))):
                maxima.setdefault((kind, n), []).append(r.max())
    return maxima


@pytest.mark.parametrize(
    "block, d, zone, lengths, reps, base",
    [
        (16, 1, 40, (2, 5, 7), 5, (-3.0, 2.5)),  # zones cross several anchors
        (16, 8, 6, (2, 3), 7, (0.0, 1.0)),  # batches of 2, the last one short
        (16, 10_001, 20, (2, 3), 2, (7.0, 0.5)),  # rows longer than numpy's buffer
        (16, 10_001, 6, (2, 3), 3, (0.0, 1.0)),  # and in batches of 2
        (2048, 8, 100, (20, 35, 50), 45, (1e3, 4.0)),  # batches of 20
        (2048, 25, 100, (20, 35, 50), 25, (-2.0, 3.0)),  # rows of 500 values, summed by cumsum
        (2048, 26, 100, (20, 35, 50), 25, (-2.0, 3.0)),  # rows of 520 values, summed row-wise
        (16, 300, 40, (2, 5, 7), 3, (4.0, 0.5)),  # one wide replication per batch, across anchors
    ],
)
def test_batched_maxima_equal_per_replication_scans(
    monkeypatch, block, d, zone, lengths, reps, base
):
    monkeypatch.setattr(windows_module, "_BLOCK", block)
    config = _config(
        window_lengths=lengths,
        dimension=d,
        alphas={(kind, n): 0.5 for kind in StatKind for n in lengths},
        zone_length=zone,
        replications=reps,
        base_mean=base[0],
        base_scale=base[1],
    )
    got, want = calibration_maxima(config), _maxima_oracle(config)
    assert got.keys() == want.keys()
    for key, values in want.items():
        assert np.array_equal(got[key], values), key


class TestAnalyticThresholds:
    def test_mu_reference_value(self):
        # F(1, 2) upper 5% = 18.513, over (n-1)=1, plus 2
        assert analytic_threshold_mu(2, 1, 0.05) == pytest.approx(20.513, abs=1e-3)

    def test_mu_approaches_two_for_loose_alpha(self):
        assert analytic_threshold_mu(5, 3, 0.999999) == pytest.approx(2.0, abs=1e-2)

    def test_mu_formula_in_high_dimension(self):
        from gsrdetect.distributions import FisherParams, fisher_upper_quantile

        expected = 2.0 + fisher_upper_quantile(FisherParams(100, 5800), 0.05) / 29
        assert analytic_threshold_mu(30, 100, 0.05) == pytest.approx(expected, rel=1e-12)
        assert analytic_threshold_mu(30, 100, 0.05) == pytest.approx(2.0430, abs=1e-3)

    def test_sigma_reference_values(self):
        assert analytic_threshold_sigma(2, 1, 0.05) == pytest.approx(161.448, abs=1e-3)
        for n, d in ((2, 1), (7, 3), (30, 10)):
            assert analytic_threshold_sigma(n, d, 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_sigma_reciprocal_symmetry(self):
        hi = analytic_threshold_sigma(6, 2, 0.05)
        lo = analytic_threshold_sigma(6, 2, 0.95)
        assert hi * lo == pytest.approx(1.0, abs=1e-8)

    def test_analytic_table_round_trip(self):
        alphas = allocate_alphas(0.06, (3, 5))
        table = analytic_table((3, 5), 4, alphas)
        parsed = ThresholdTable.from_json(table.to_json())
        assert parsed == table


class TestTableSerialization:
    def test_json_round_trip_is_lossless(self):
        table = calibrate_monte_carlo(_config())
        parsed = ThresholdTable.from_json(table.to_json())
        assert parsed == table
        assert parsed.to_json() == table.to_json()

    def test_version_checked(self):
        doc = calibrate_monte_carlo(_config()).to_json().replace('"version": 1', '"version": 99')
        with pytest.raises(ValueError, match="version"):
            ThresholdTable.from_json(doc)

    def test_duplicate_entries_rejected(self):
        entry = ThresholdEntry(StatKind.MU, 4, 0.05, 2.5, "analytic")
        with pytest.raises(ValueError, match="duplicate"):
            ThresholdTable(dimension=1, entries=(entry, entry))

    def test_missing_entry_lookup(self):
        table = analytic_table((4,), 2, allocate_alphas(0.06, (4,)))
        with pytest.raises(KeyError):
            table.threshold(StatKind.MU, 9)
