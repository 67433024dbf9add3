"""Monte Carlo and analytic threshold calibration, table serialization."""

import math
import os
import sys
import threading
import time
from unittest import mock

import numpy as np
import pytest
from oracles import replication_overlap

from gsrdetect import calibration as calibration_module
from gsrdetect import windows as windows_module
from gsrdetect.calibration import (
    CalibrationConfig,
    CalibrationError,
    ThresholdEntry,
    ThresholdTable,
    _replication_maxima,
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
from gsrdetect.power import empirical_power
from gsrdetect.ratios import StatKind, null_law_mu, sliding_gsr
from gsrdetect.simulate import run_static_power
from gsrdetect.windows import _NonFiniteError, sliding_spanning_stats


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

    def test_bootstrap_needs_two_whole_resamples(self):
        # 0 and 1 once returned nan after numpy warnings
        values = np.arange(100.0)
        for bad in (0, 1, 2.5, True):
            with pytest.raises(ValueError, match="^resamples must be"):
                bootstrap_quantile_se(values, 0.05, resamples=bad)
        assert bootstrap_quantile_se(values, 0.05, resamples=2.0) == bootstrap_quantile_se(
            values, 0.05, resamples=2
        )

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=500)
        quantiles = [empirical_upper_quantile(values, a) for a in (0.01, 0.05, 0.1, 0.3)]
        assert quantiles == sorted(quantiles, reverse=True)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: null_law_mu(2.5, 3), "^window half-length must be a whole number, got 2.5$"),
        (lambda: analytic_threshold_sigma(3.5, 2, 0.05),
         "^window half-length must be a whole number, got 3.5$"),
        (lambda: analytic_table((2.5,), 2, {(kind, 2.5): 0.02 for kind in StatKind}),
         "^window half-length must be a whole number, got 2.5$"),
        (lambda: empirical_upper_quantile(np.arange(100.0), 1.5), r"^alpha not in \(0, 1\): 1.5$"),
        (lambda: bootstrap_quantile_se(np.arange(100.0), 0.05, seed=1.5),
         "^seed must be a whole number, got 1.5$"),
        (lambda: bootstrap_quantile_se(np.arange(100.0), 0.05, seed=True),
         "^seed must be a whole number, got True$"),
    ],
    ids=["null-law-n", "threshold-n", "table-n", "quantile-alpha", "bootstrap-seed",
         "bootstrap-seed-bool"],
)
def test_threshold_entry_points_reject_bad_arguments(call, message):
    # each once returned a value: at a fractional n's F law, the minimum, or seed 1's
    with pytest.raises(ValueError, match=message):
        call()


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

    def test_replications_and_zone_length_must_be_whole_numbers(self):
        # 200.5 and 30.5 once ended in bare TypeErrors from numpy
        for field, bad in (("replications", 200.5), ("zone_length", 30.5)):
            for value in (bad, True):
                with pytest.raises(CalibrationError, match=f"^{field} must be a whole number"):
                    calibrate_monte_carlo(_config(**{field: value}))
        config = _config(replications=400.0, zone_length=16.0)
        assert type(config.replications) is int and type(config.zone_length) is int
        assert calibrate_monte_carlo(config) == calibrate_monte_carlo(_config())

    def test_whole_float_window_lengths_are_ints(self):
        config = _config(window_lengths=(4.0,))
        assert config.window_lengths == (4,) and type(config.window_lengths[0]) is int
        assert calibrate_monte_carlo(config) == calibrate_monte_carlo(_config())

    @pytest.mark.parametrize("n", [5.5, True])
    def test_rejects_fractional_and_boolean_window_lengths(self, n):
        lengths = (4, n)
        alphas = {(kind, m): 0.025 for kind in StatKind for m in lengths}  # allocate_alphas rejects n
        config = _config(window_lengths=lengths, alphas=alphas, zone_length=24)
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

    def test_seed_must_be_a_nonnegative_whole_number(self):
        # 1.5 once drew with seed 1 yet was written to the table as 1.5, and True as true
        for seed in (1.5, True):
            with pytest.raises(CalibrationError, match="^seed must be a whole number"):
                calibrate_monte_carlo(_config(seed=seed))
        with pytest.raises(CalibrationError, match="^seed must be nonnegative, got -1$"):
            calibrate_monte_carlo(_config(seed=-1))
        table = calibrate_monte_carlo(_config(seed=3.0))
        assert type(table.seed) is int and table == calibrate_monte_carlo(_config(seed=3))
        assert '"seed": 3,' in table.to_json()

    @pytest.mark.parametrize(
        "field, value",
        [("base_scale", math.nan), ("base_scale", math.inf), ("base_mean", math.nan),
         ("base_mean", -math.inf)],
    )
    def test_simulated_law_must_be_finite(self, field, value):
        # each once passed validation and ended in the kernel's non-finite error
        with pytest.raises(CalibrationError, match=f"^{field} must be .*finite, got"):
            calibrate_monte_carlo(_config(**{field: value}))


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
    # batches of max(1, block // zone) replications, the sizes the comments name
    monkeypatch.setattr(calibration_module, "_BATCH_VALUES", max(1, block // zone) * zone * d)
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


def _zone_config(d, replications, alpha=0.5, lengths=(20, 35, 50)):
    alphas = {(kind, n): alpha for kind in StatKind for n in lengths}
    return _config(window_lengths=lengths, dimension=d, alphas=alphas, zone_length=100,
                   replications=replications, seed=21)


class TestBatchSize:
    """Every replication batch holds as many replications as fit in ``_BATCH_VALUES`` values."""

    @pytest.mark.parametrize(
        "run, sizes",
        [
            pytest.param(lambda: calibration_maxima(_zone_config(8, 400)), [163, 163, 74],
                         id="calibration-d8"),
            pytest.param(lambda: calibration_maxima(_zone_config(100, 30)), [13, 13, 4],
                         id="calibration-d100"),
            # one replication of 140 000 values per batch
            pytest.param(lambda: calibration_maxima(_zone_config(1400, 2)), [1, 1],
                         id="calibration-d1400"),
            pytest.param(lambda: empirical_power(10, 5, 0.05, 0.3, replications=3000),
                         [1310, 1310, 380], id="empirical-power"),
            pytest.param(lambda: run_static_power(4, 10, "mean", samples=2000),
                         [1638, 362], id="static-study"),
        ],
    )
    def test_batches_are_sized_by_their_values(self, monkeypatch, run, sizes):
        shapes, scan = [], windows_module._window_scan

        def spy(ys, lengths, buffers=None):
            shapes.append(ys.shape)  # (rows, replications, dim)
            return scan(ys, lengths, buffers)

        monkeypatch.setattr(windows_module, "_window_scan", spy)
        run()
        assert [live for _, live, _ in shapes] == sizes
        limit = calibration_module._BATCH_VALUES
        for rows, live, dim in shapes:
            assert live * rows * dim <= limit or live == 1
        rows, size, dim = shapes[0]
        assert (size + 1) * rows * dim > limit  # no room for one more

    def test_small_dimension_draws_on_the_helper_thread(self):
        # d=8, zone 100: batches of 163 replications, the next drawn while one is scanned
        config = _zone_config(8, 400, alpha=0.01)
        threads, derive = [], calibration_module.derived_rng

        def spy(seed, *stream):
            threads.append(threading.current_thread())
            return derive(seed, *stream)

        with mock.patch.object(calibration_module, "derived_rng", spy):
            with mock.patch.object(os, "sched_getaffinity", lambda pid: {0, 1}, create=True):
                table = calibrate_monte_carlo(config)
        caller = threading.current_thread()
        assert [t is caller for t in threads] == [True] * 163 + [False] * 237
        want = _maxima_oracle(config)
        for kind, n in want:
            alpha = config.alphas[(kind, n)]
            assert table.threshold(kind, n) == empirical_upper_quantile(want[(kind, n)], alpha)


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

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: ThresholdTable(dimension=2.5, entries=()),
             "dimension must be a whole number of at least 1, got 2.5"),
            (lambda: ThresholdTable(dimension=0, entries=()),
             "dimension must be a whole number of at least 1, got 0"),
            (lambda: ThresholdTable(dimension=True, entries=()),
             "dimension must be a whole number of at least 1, got True"),
            (lambda: ThresholdEntry(StatKind.MU, 4.5, 0.05, 2.5, "analytic"),
             "n must be a whole number of at least 2, got 4.5"),
            (lambda: ThresholdEntry(StatKind.MU, 1, 0.05, 2.5, "analytic"),
             "n must be a whole number of at least 2, got 1"),
            (lambda: ThresholdEntry(StatKind.MU, True, 0.05, 2.5, "analytic"),
             "n must be a whole number of at least 2, got True"),
            (lambda: ThresholdEntry(StatKind.MU, 4, 0.05, math.nan, "analytic"),
             "threshold for (mu, n=4) is not finite: nan"),
            (lambda: ThresholdEntry(StatKind.SIGMA_PLUS, 4, 0.05, -math.inf, "analytic"),
             "threshold for (sigma+, n=4) is not finite: -inf"),
            (lambda: ThresholdEntry(StatKind.MU, 5, 7.5, 2.5, "analytic"),
             "alpha for (mu, n=5) not in (0, 1): 7.5"),
            (lambda: ThresholdEntry(StatKind.MU, 5, -1, 2.5, "analytic"),
             "alpha for (mu, n=5) not in (0, 1): -1"),
            (lambda: ThresholdEntry(StatKind.MU, 5, 0.01, "3", "x"),
             "threshold for (mu, n=5) is not a real number: '3'"),
            (lambda: ThresholdEntry("nu", 5, 0.01, 2.5, "analytic"),
             "'nu' is not a valid StatKind"),
            (lambda: ThresholdTable.from_json(_provenance_json("seed", '"abc"')),
             "seed must be a whole number of at least 0, got 'abc'"),
            (lambda: ThresholdTable.from_json(_provenance_json("K", "-5")),
             "replications must be a whole number of at least 1, got -5"),
            (lambda: ThresholdTable.from_json(_provenance_json("N", "true")),
             "zone_length must be a whole number of at least 1, got True"),
            (lambda: ThresholdTable(dimension=2, entries=(), seed=-1),
             "seed must be a whole number of at least 0, got -1"),
            (lambda: ThresholdTable(dimension=2, entries=(), replications=2.5),
             "replications must be a whole number of at least 1, got 2.5"),
            (lambda: ThresholdTable(dimension=2, entries=(), zone_length=0),
             "zone_length must be a whole number of at least 1, got 0"),
            (lambda: ThresholdEntry(StatKind.MU, 5, 0.01, 2.5, None),
             "provenance of (mu, n=5) must be one of ('monte_carlo', 'analytic'), got None"),
            (lambda: ThresholdEntry(StatKind.MU, 5, 0.01, 2.5, 5),
             "provenance of (mu, n=5) must be one of ('monte_carlo', 'analytic'), got 5"),
            (lambda: ThresholdEntry(StatKind.MU, 5, 0.01, 2.5, "bogus"),
             "provenance of (mu, n=5) must be one of ('monte_carlo', 'analytic'), got 'bogus'"),
        ],
        ids=["dimension-fraction", "dimension-0", "dimension-bool", "n-fraction", "n-below-2",
             "n-bool", "rho-nan", "rho-minus-inf", "alpha-above-1", "alpha-negative",
             "rho-string", "kind-unknown", "json-seed-string", "json-K-negative",
             "json-N-bool", "seed-negative", "replications-fraction", "zone-length-0",
             "provenance-none", "provenance-int", "provenance-unknown"],
    )
    def test_tables_built_in_code_are_checked(self, build, message):
        # each was once accepted; a NaN threshold then never fired
        with pytest.raises(ValueError) as exc:
            build()
        assert str(exc.value).endswith(message)

    def test_entry_kind_may_be_given_by_value(self):
        # once accepted as a string, on which to_json then failed
        entry = ThresholdEntry("mu", 5, 0.01, 2.5, "analytic")
        assert entry.kind is StatKind.MU
        table = ThresholdTable(dimension=2, entries=(entry,))
        assert ThresholdTable.from_json(table.to_json()) == table

    def test_tables_built_in_code_take_numpy_whole_numbers_as_ints(self):
        entry = ThresholdEntry(StatKind.MU, np.int32(4), 0.05, 2.5, "analytic")
        whole_float = ThresholdEntry(StatKind.SIGMA_PLUS, 4.0, 0.05, 1.5, "analytic")
        table = ThresholdTable(dimension=np.int64(2), entries=(entry, whole_float))
        assert [type(e.n) for e in table.entries] == [int, int] and type(table.dimension) is int
        assert table.threshold(StatKind.SIGMA_PLUS, 4) == 1.5


def _provenance_json(field: str, value: str) -> str:
    """A table's JSON whose provenance ``field`` reads the JSON text ``value``."""
    text = ThresholdTable(dimension=2, entries=()).to_json()
    return text.replace(f'"{field}": null', f'"{field}": {value}')


def _loop_outcome(draw, count=12):
    """Batches of a small replication loop, or the error it ended in, with the thread count after."""
    batches = []
    try:
        # batches of 4 replications of 12 x 2 values
        with mock.patch.object(calibration_module, "_BATCH_VALUES", 4 * 12 * 2):
            for maxima in _replication_maxima(count, 12, 2, (3,), draw):
                batches.append(maxima)
    except Exception as exc:
        return batches, (type(exc), str(exc)), threading.active_count()
    return batches, None, threading.active_count()


def _serial_and_overlapped(run):
    """``run()``'s outcome with the replication loop serial, then overlapped; each of its
    loops must run two batches or more, and only the overlapped ones draw on the helper."""
    outcomes, caller = [], threading.current_thread()
    for overlap in (False, True):
        with replication_overlap(overlap) as draws:
            outcomes.append(run())
        assert any(lo for lo, _ in draws)  # a second batch
        assert all((thread is not caller) == (overlap and lo > 0) for lo, thread in draws)
    return outcomes


class TestReplicationOverlap:
    """The replication loop's overlapped path gives the serial path's results and errors."""

    @pytest.mark.parametrize(
        "d, batch",
        [  # 230 replications in batches of 100, 77 and 13 (d=100's own size)
            pytest.param(1, 100, id="1"),
            pytest.param(3, 77, id="3"),
            pytest.param(100, 13, id="100"),
        ],
    )
    def test_tables_and_maxima_equal_on_both_paths(self, monkeypatch, d, batch):
        lengths = (5, 12) if d < 100 else (20, 35, 50)
        zone = 6 * max(lengths) if d < 100 else 100
        config = _config(
            window_lengths=lengths, dimension=d, alphas=allocate_alphas(0.06, lengths),
            zone_length=zone, replications=230, seed=17,
        )
        monkeypatch.setattr(calibration_module, "_BATCH_VALUES", batch * zone * d)
        results = _serial_and_overlapped(
            lambda: (calibrate_monte_carlo(config), calibration_maxima(config))
        )
        (serial_table, serial), (overlapped_table, overlapped) = results
        assert serial_table == overlapped_table
        assert all(np.array_equal(serial[key], overlapped[key]) for key in serial)

    @pytest.mark.parametrize("replications", [513, 3000])
    def test_empirical_power_equal_on_both_paths(self, monkeypatch, replications):
        # 2^13 values: batches of 409, 136, 40 and 13 windows of 20, 60, 200 and 600 values
        monkeypatch.setattr(calibration_module, "_BATCH_VALUES", 2**13)
        for n in (10, 30):
            for d in (1, 10):
                rates = _serial_and_overlapped(
                    lambda: empirical_power(n, d, 0.05, 0.3, replications=replications, seed=9)
                )
                assert rates[0] == rates[1], (n, d)

    @pytest.mark.parametrize("samples", [100, 513])
    @pytest.mark.parametrize("change", ["none", "mean", "variance"])
    def test_static_power_equal_on_both_paths(self, monkeypatch, change, samples):
        # batches of 40 windows of 20 x 4 values
        monkeypatch.setattr(calibration_module, "_BATCH_VALUES", 40 * 20 * 4)
        reports = _serial_and_overlapped(
            lambda: run_static_power(4, 10, change, samples=samples, seed=4)
        )
        assert reports[0] == reports[1]

    def test_static_study_equal_on_both_paths_under_rapid_thread_switches(self):
        # the draws append to the study's list on the helper while the caller scans;
        # 2000 windows of 20 x 4 values make batches of 1638 and 362
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            reports = _serial_and_overlapped(
                lambda: run_static_power(4, 10, "mean", samples=2000, seed=8)
            )
        finally:
            sys.setswitchinterval(interval)
        assert reports[0] == reports[1]

    @pytest.mark.parametrize(
        "cpus, count, helper",
        [  # _loop_outcome's batches hold 4 replications
            pytest.param({0, 1}, 12, True, id="two-cpus"),
            pytest.param({0}, 12, False, id="one-cpu"),
            pytest.param({0, 1}, 4, False, id="one-batch"),
        ],
    )
    def test_helper_draws_only_where_it_pays(self, cpus, count, helper):
        threads = []

        def draw(lo, slots):
            threads.append(threading.current_thread())
            slots[...] = derived_rng(5, lo).standard_normal(slots.shape)

        with mock.patch.object(os, "sched_getaffinity", lambda pid: cpus, create=True):
            _loop_outcome(draw, count=count)
        caller = threading.current_thread()
        assert threads[0] is caller
        assert all((t is not caller) is helper for t in threads[1:])

    def _both_paths(self, make_draw):
        outcomes = []
        for overlap in (False, True):
            before = threading.active_count()
            with replication_overlap(overlap):
                batches, error, after = _loop_outcome(make_draw())
            assert after == before, overlap
            outcomes.append((batches, error))
        (serial, serial_error), (overlapped, overlapped_error) = outcomes
        assert overlapped_error == serial_error
        assert len(overlapped) == len(serial)
        assert all(map(np.array_equal, serial, overlapped))
        return serial_error

    def test_draw_error_on_second_batch_is_raised_as_in_the_serial_loop(self):
        def make_draw():
            def draw(lo, slots):
                if lo:
                    raise RuntimeError(f"cannot draw replication {lo}")
                slots[...] = derived_rng(5, lo).standard_normal(slots.shape)
            return draw

        assert self._both_paths(make_draw) == (RuntimeError, "cannot draw replication 4")

    def test_kernel_error_while_the_next_batch_is_drawn_is_raised_as_in_the_serial_loop(self):
        def make_draw():
            def draw(lo, slots):
                slots[...] = derived_rng(5, lo).standard_normal(slots.shape)
                if lo == 4:
                    slots[1, 3, 0] = np.nan  # batch 1 fails in the kernel
                if lo == 8:
                    time.sleep(0.05)  # batch 2 is still being drawn when it does
            return draw

        error = self._both_paths(make_draw)
        assert error == (_NonFiniteError, "observations contain non-finite values")

    @pytest.mark.skipif(
        np.lib.NumpyVersion(np.__version__) < "2.0.0", reason="numpy 1 keeps errstate per thread"
    )
    def test_draws_on_the_helper_see_the_callers_numpy_error_state(self):
        def make_draw():
            def draw(lo, slots):
                slots[...] = derived_rng(5, lo).standard_normal(slots.shape)
                if lo:
                    slots *= 1e308  # overflows from the second batch on
            return draw

        with np.errstate(over="raise"):
            error = self._both_paths(make_draw)
        assert error == (FloatingPointError, "overflow encountered in multiply")

    def test_consumer_closing_after_one_batch_stops_the_loop(self):
        for overlap in (False, True):
            before = threading.active_count()
            drawn = []

            def draw(lo, slots):
                drawn.append(lo)
                slots[...] = derived_rng(5, lo).standard_normal(slots.shape)

            with (
                replication_overlap(overlap),
                mock.patch.object(calibration_module, "_BATCH_VALUES", 4 * 12 * 2),
            ):
                batches = _replication_maxima(12, 12, 2, (3,), draw)
                first = next(batches)
                batches.close()
            assert first.shape == (len(StatKind), 4, 1)
            assert threading.active_count() == before
            assert drawn == ([0, 4] if overlap else [0])  # the helper drew one batch ahead
