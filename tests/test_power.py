"""Power bounds, the minimum radius, and their Monte Carlo validation."""

import math

import numpy as np
import pytest
from oracles import naive_decomposition

import gsrdetect.power as power_module
from gsrdetect.calibration import analytic_threshold_mu
from gsrdetect.distributions import FisherParams, derived_rng, fisher_upper_quantile
from gsrdetect.power import (
    PowerQuery,
    delta_mu,
    delta_sigma,
    empirical_power,
    minimum_radius,
    residual_noncentrality,
    shift_for_residual,
)
from gsrdetect.ratios import sliding_gsr
from gsrdetect.windows import (
    ObservationWindow,
    SlidingStats,
    sliding_spanning_stats,
    spanning_distance,
)


def _query(**overrides):
    params = dict(n=30, d=10, alpha=0.05, beta=0.1)
    params.update(overrides)
    return PowerQuery(**params)


class TestDeltaMu:
    def test_constant_c1_small_window_value(self):
        # n=2, d=1: C1 = 5 * (1/2) * F^{-1}(1, 2; 0.05) = 2.5 * 18.513
        q = _query(n=2, d=1, beta=0.5)
        c1 = 2.5 * fisher_upper_quantile(FisherParams(1, 2), 0.05)
        assert c1 == pytest.approx(46.28, abs=0.01)
        log_term = math.log(4.0)
        c2 = (2 + 2 * math.sqrt(2 * log_term) + 4 * log_term) - 1.25 * (
            1 - 2 * math.sqrt(log_term) - 10 * log_term
        )
        assert delta_mu(q) == pytest.approx(c1 * c2, rel=1e-12)

    def test_nonincreasing_in_beta(self):
        betas = [0.05, 0.1, 0.2, 0.3, 0.4, 0.5]
        values = [delta_mu(_query(beta=b)) for b in betas]
        assert values == sorted(values, reverse=True)

    def test_monotone_curves_ordered_by_window(self):
        # each curve decreases in beta; at fixed beta a longer window needs a
        # smaller residual separation, so the curves never cross
        betas = np.linspace(0.05, 0.5, 10)
        curves = {n: [delta_mu(_query(n=n, beta=b)) for b in betas] for n in (30, 32, 34)}
        for n, curve in curves.items():
            assert curve == sorted(curve, reverse=True)
        for b_idx in range(len(betas)):
            assert curves[30][b_idx] > curves[32][b_idx] > curves[34][b_idx]

    def test_half_separations_enter_linearly(self):
        base = delta_mu(_query())
        shifted = delta_mu(_query(mean_left=3.0, mean_right=4.0))
        n_dof, d_dof = 10, 2 * 29 * 10
        c1 = 5 * (n_dof / d_dof) * fisher_upper_quantile(FisherParams(n_dof, d_dof), 0.05)
        assert shifted - base == pytest.approx(7.0 * c1, rel=1e-9)

    def test_rejects_bad_query(self):
        with pytest.raises(ValueError):
            _query(alpha=0.0)
        with pytest.raises(ValueError):
            _query(beta=1.0)
        with pytest.raises(ValueError):
            _query(n=1)
        with pytest.raises(ValueError):
            _query(sigma2=0.0)
        with pytest.raises(ValueError):
            _query(mean_left=-1.0)


class TestDeltaSigma:
    def test_c1_at_even_odds(self):
        # F(k, k) median is 1, so C1 = 5/2 at alpha = 0.5
        q = _query(alpha=0.5, beta=0.5, mean_left=1.0)
        k = (q.n - 1) * q.d
        log_term = math.log(4.0)
        c2 = 1.25 * (k + 2 * math.sqrt(k * log_term) + 4 * log_term) - 1.25 * (
            k - 2 * math.sqrt(k * log_term) - 10 * log_term
        )
        assert delta_sigma(q, "plus") == pytest.approx(2.5 * 1.0 + c2, rel=1e-9)

    def test_small_window_value(self):
        q = _query(n=2, d=1, beta=0.5, mean_left=1.0)
        c1 = 2.5 * fisher_upper_quantile(FisherParams(1, 1), 0.05)
        assert c1 == pytest.approx(403.6, abs=0.1)
        assert delta_sigma(q, "plus") > c1  # C2 term is positive here

    def test_plus_minus_mirror_symmetry(self):
        q_plus = _query(mean_left=2.0, mean_right=0.0)
        q_minus = _query(mean_left=0.0, mean_right=2.0)
        assert delta_sigma(q_plus, "plus") == delta_sigma(q_minus, "minus")

    def test_rejects_unknown_direction(self):
        with pytest.raises(ValueError):
            delta_sigma(_query(), "sideways")


class TestMinimumRadius:
    def test_reference_value(self):
        # theta(0.05, 0.05) = sqrt(2 ln(1 + 4 * 0.81)) ~ 1.700
        radius = minimum_radius(30, 10, 0.05, 0.05)
        assert radius == pytest.approx(1.700 * math.sqrt(300), abs=0.02)
        assert radius == pytest.approx(29.44, abs=0.02)

    def test_vanishes_as_levels_exhaust_probability(self):
        assert minimum_radius(10, 4, 0.4, 0.5999) < minimum_radius(10, 4, 0.4, 0.3)
        assert minimum_radius(10, 4, 0.5, 0.4999999) == pytest.approx(0.0, abs=1e-3)

    def test_scales_with_sqrt_nd(self):
        base = minimum_radius(10, 7, 0.05, 0.1)
        assert minimum_radius(40, 7, 0.05, 0.1) == pytest.approx(2 * base, rel=1e-12)
        assert minimum_radius(10, 28, 0.05, 0.1) == pytest.approx(2 * base, rel=1e-12)

    def test_sigma_scaling_and_errors(self):
        assert minimum_radius(10, 7, 0.05, 0.1, sigma2=3.0) == pytest.approx(
            3.0 * minimum_radius(10, 7, 0.05, 0.1), rel=1e-12
        )
        with pytest.raises(ValueError):
            minimum_radius(10, 7, 0.05, 0.95)  # beta >= 1 - alpha
        with pytest.raises(ValueError):
            minimum_radius(10, 7, 0.05, 0.96)

    def test_dominated_by_delta_mu_on_grid(self):
        for n in (10, 20, 30):
            for d in (1, 5, 10):
                for beta in (0.1, 0.3):
                    gap = delta_mu(_query(n=n, d=d, beta=beta))
                    assert gap > minimum_radius(n, d, 0.05, beta)


class TestNoncentralityHelpers:
    def test_residual_noncentrality_formula(self):
        # n ||delta||^2 / (2 sigma^2)
        assert residual_noncentrality(10, [1.0, 2.0]) == pytest.approx(25.0)
        assert residual_noncentrality(10, [1.0, 2.0], sigma=2.0) == pytest.approx(6.25)

    def test_shift_round_trip(self):
        shift = shift_for_residual(12, 5, 40.0, sigma=1.5)
        assert residual_noncentrality(12, shift, sigma=1.5) == pytest.approx(40.0)


class TestEmpiricalPower:
    def test_null_scenario_matches_level(self):
        alpha, reps = 0.1, 4000
        power = empirical_power(8, 3, alpha, 0.0, replications=reps, seed=5)
        se = math.sqrt(alpha * (1 - alpha) / reps)
        assert abs(power - alpha) <= 3 * se

    def test_guarantee_at_delta_mu(self):
        n, d, alpha, beta = 15, 5, 0.05, 0.1
        target = delta_mu(_query(n=n, d=d, alpha=alpha, beta=beta))
        shift = shift_for_residual(n, d, target)
        reps = 600
        power = empirical_power(n, d, alpha, shift, replications=reps, seed=6)
        se = math.sqrt(max(power * (1 - power), 1e-6) / reps)
        assert power >= 1 - beta - 3 * se

    def test_saturates_for_huge_shift(self):
        power = empirical_power(30, 10, 0.05, 10.0, replications=1000, seed=7)
        assert power >= 0.999

    def test_rejects_tiny_replication_count(self):
        with pytest.raises(ValueError):
            empirical_power(10, 2, 0.05, 1.0, replications=50)

    @pytest.mark.parametrize(
        "n, d, shift, reps, batch",
        [
            pytest.param(3, 1, 2.2, 120, None, id="3-1-2.2-120"),
            pytest.param(3, 4, 1.2, 120, None, id="3-4-1.2-120"),
            pytest.param(10, 1, 1.0, 120, None, id="10-1-1.0-120"),
            pytest.param(10, 4, 0.6, 600, None, id="10-4-0.6-600"),
            # Batches of one window, and of 7 with a short last batch (120 = 17 * 7 + 1).
            pytest.param(3, 4, 1.2, 120, 1, id="3-4-1.2-120-batch1"),
            pytest.param(3, 4, 1.2, 120, 7, id="3-4-1.2-120-batch7"),
        ],
    )
    def test_rate_matches_pairwise_oracle(self, monkeypatch, n, d, shift, reps, batch):
        if batch is not None:
            monkeypatch.setattr(power_module, "_STATIC_BATCH", batch)
        alpha, seed = 0.05, 14
        rho = analytic_threshold_mu(n, d, alpha)
        # One draw of every replication equals the function's batched draws.
        y = derived_rng(seed, 0x90E6).standard_normal((reps, 2 * n, d))
        y[:, n:] += shift
        hits = 0
        for window in y:
            w = naive_decomposition(window)
            halves = w["w_left"] + w["w_right"]
            hits += halves > 0 and w["w_full"] / halves >= rho
        assert 0 < hits < reps  # both outcomes occur
        assert empirical_power(n, d, alpha, shift, replications=reps, seed=seed) == hits / reps


@pytest.mark.parametrize("d", [1, 8, 100, 10_001])
@pytest.mark.parametrize("n", [2, 5, 30])
def test_static_windows_equal_stream_and_step_paths_bit_for_bit(monkeypatch, n, d):
    # Each window is anchored on its own first row, whatever batch it is in.
    count = 64 if d <= 100 else 6  # fewer of the rows longer than numpy's iterator buffer
    windows = np.random.default_rng(10 * d + n).normal(size=(count, 2 * n, d)) * 3.0 + 7.0
    windows[:, n:] += 0.5
    seen = []  # the statistics the static path hands to sliding_gsr
    monkeypatch.setattr(power_module, "sliding_gsr", lambda s: seen.append(s) or sliding_gsr(s))
    ratios = [power_module._static_gsr(batch) for batch in np.array_split(windows, 3)]
    assert len(seen) == 3
    got = SlidingStats(*map(np.concatenate, zip(*seen)))
    got_ratios = np.concatenate(ratios, axis=1)
    for j, window in enumerate(windows):
        stream = sliding_spanning_stats(window, n)
        step = ObservationWindow.from_observations(window).decompose()
        assert got.clocks[j] == stream.clocks[0] == 2 * n
        for name in ("w_left", "w_right", "w_full"):
            assert getattr(got, name)[j] == getattr(stream, name)[0] == getattr(step, name), (j, name)
        assert np.array_equal(got_ratios[:, j], np.ravel(sliding_gsr(stream))), j
        assert spanning_distance(window[:n]) == step.w_left, j
