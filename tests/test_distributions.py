"""Quantile layer, Gaussian sampling, and the KS statistic."""

import math

import numpy as np
import pytest
from scipy import stats

from gsrdetect.detector import allocate_alphas
from gsrdetect.distributions import (
    ChiSquareParams,
    FisherParams,
    chi2_quantile_upper_bound,
    chi2_upper_quantile,
    derived_rng,
    fisher_distribution,
    fisher_upper_quantile,
    gaussian_sample,
    ks_statistic,
)

# Tail masses from deep Bonferroni shares to the lower tail, with the nine
# shares of 0.06 over windows (20, 35, 50) that the benchmark's tables use.
ALPHAS = sorted(
    {1e-9, 1e-6, 1e-4, 1e-3, 0.01, 0.05, 0.2, 0.5, 0.9, 0.999}
    | set(allocate_alphas(0.06, (20, 35, 50)).values())
)


class TestFisherQuantiles:
    def test_reference_values(self):
        # classical F-table entries
        assert fisher_upper_quantile(FisherParams(1, 1), 0.05) == pytest.approx(161.448, abs=1e-3)
        assert fisher_upper_quantile(FisherParams(10, 10), 0.05) == pytest.approx(2.978, abs=1e-3)
        assert fisher_upper_quantile(FisherParams(1, 2), 0.05) == pytest.approx(18.513, abs=1e-3)

    def test_equal_dof_median_is_one(self):
        for k in (1, 3, 10, 57, 200):
            assert fisher_upper_quantile(FisherParams(k, k), 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_reciprocal_symmetry(self):
        for k in (2, 5, 40):
            for alpha in (0.01, 0.05, 0.2):
                hi = fisher_upper_quantile(FisherParams(k, k), alpha)
                lo = fisher_upper_quantile(FisherParams(k, k), 1 - alpha)
                assert hi * lo == pytest.approx(1.0, abs=1e-8)

    def test_quantile_cdf_round_trip(self):
        law = fisher_distribution(FisherParams(7, 23))
        for alpha in np.linspace(0.001, 0.999, 25):
            q = fisher_upper_quantile(FisherParams(7, 23), alpha)
            assert law.sf(q) == pytest.approx(alpha, abs=1e-9)
            assert law.cdf(q) == pytest.approx(1 - alpha, abs=1e-9)

    @pytest.mark.parametrize("df_num", [1, 2.5, 8, 100, 1000])
    @pytest.mark.parametrize("df_den", [1, 3.5, 24, 98, 980, 98_000])
    def test_equals_scipy_stats(self, df_num, df_den):
        # Guards the direct special-function call: its argument order, its
        # 1 - alpha, and scipy.stats' own path to the same quantile.
        for alpha in ALPHAS:
            expected = stats.f.isf(alpha, df_num, df_den)
            got = fisher_upper_quantile(FisherParams(df_num, df_den), alpha)
            assert got == pytest.approx(expected, rel=1e-12)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            FisherParams(0, 3)
        with pytest.raises(ValueError):
            FisherParams(3, -1)
        with pytest.raises(ValueError):
            fisher_upper_quantile(FisherParams(3, 3), 0.0)
        with pytest.raises(ValueError):
            fisher_upper_quantile(FisherParams(3, 3), 1.0)


class TestChiSquare:
    def test_central_reference_value(self):
        res = chi2_upper_quantile(ChiSquareParams(1), 0.05)
        assert not res.is_bound
        assert res.value == pytest.approx(3.8415, abs=1e-4)

    def test_central_round_trip(self):
        for df in (1, 4, 50):
            for alpha in (0.001, 0.05, 0.5, 0.99):
                res = chi2_upper_quantile(ChiSquareParams(df), alpha)
                assert stats.chi2.sf(res.value, df) == pytest.approx(alpha, abs=1e-10)

    @pytest.mark.parametrize("df", [0.5, 1, 2.5, 10, 99, 1000, 1e4])
    def test_equals_scipy_stats(self, df):
        for alpha in ALPHAS:
            got = chi2_upper_quantile(ChiSquareParams(df), alpha).value
            assert got == pytest.approx(stats.chi2.isf(alpha, df), rel=1e-12)

    def test_median_below_mean(self):
        # chi-square is right-skewed: median < df
        for df in (1, 3, 8, 100):
            assert chi2_upper_quantile(ChiSquareParams(df), 0.5).value < df

    def test_upper_bound_formula(self):
        value = chi2_quantile_upper_bound(ChiSquareParams(10, 0.0), 0.05)
        expected = 10 + 2 * math.sqrt(10 * math.log(20)) + 2 * math.log(20)
        assert value == pytest.approx(expected, rel=1e-12)
        assert value == pytest.approx(26.938, abs=1e-3)

    def test_noncentral_returns_flagged_bound(self):
        res = chi2_upper_quantile(ChiSquareParams(10, 4.0), 0.05)
        assert res.is_bound
        # a genuine upper bound on the exact noncentral quantile
        assert res.value >= stats.ncx2.isf(0.05, 10, 4.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ChiSquareParams(0)
        with pytest.raises(ValueError):
            ChiSquareParams(3, -0.5)


class TestGaussianSample:
    def test_deterministic_given_seed(self):
        a = gaussian_sample(np.zeros(3), 1.0, 100, seed=9)
        b = gaussian_sample(np.zeros(3), 1.0, 100, seed=9)
        np.testing.assert_array_equal(a, b)
        c = gaussian_sample(np.zeros(3), 1.0, 100, seed=10)
        assert not np.array_equal(a, c)

    def test_moments_within_four_standard_errors(self):
        draws = gaussian_sample([0.0], 1.0, 100_000, seed=1)
        assert draws.shape == (100_000, 1)
        assert abs(draws.mean()) < 4 / math.sqrt(100_000)
        assert abs(draws.var() - 1.0) < 4 * math.sqrt(2.0 / 100_000)

    def test_vector_mean_and_scale(self):
        draws = gaussian_sample([1.0, -2.0], [0.5, 2.0], 50_000, seed=2)
        assert np.allclose(draws.mean(axis=0), [1.0, -2.0], atol=0.05)
        assert np.allclose(draws.std(axis=0), [0.5, 2.0], rtol=0.05)

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            gaussian_sample([0.0], 0.0, 10, seed=0)
        with pytest.raises(ValueError):
            gaussian_sample([0.0, 0.0], [1.0, -1.0], 10, seed=0)

    @pytest.mark.parametrize(
        "mean, message",
        [
            ([[0.0, 1.0]], "^mean must be a scalar or a vector$"),
            ([0.0, np.nan], "^mean must be finite$"),
        ],
        ids=["2-D", "nan"],
    )
    def test_rejects_bad_mean(self, mean, message):
        with pytest.raises(ValueError, match=message):
            gaussian_sample(mean, 1.0, 10, seed=0)

    def test_count_must_be_a_whole_number(self):
        # 2.5 once drew 2 rows and True one row
        for bad in (2.5, True):
            with pytest.raises(ValueError, match="^count must be a whole number"):
                gaussian_sample([0.0], 1.0, bad, seed=0)
        with pytest.raises(ValueError, match="^count must be at least 1"):
            gaussian_sample([0.0], 1.0, 0, seed=0)
        np.testing.assert_array_equal(
            gaussian_sample([0.0], 1.0, 3.0, seed=4), gaussian_sample([0.0], 1.0, 3, seed=4)
        )

    @pytest.mark.parametrize(
        "seed, message",
        [(2.7, "^seed must be a whole number, got 2.7$"),
         (True, "^seed must be a whole number, got True$"),
         (-1, "^seed must be nonnegative, got -1$")],
    )
    def test_seed_must_be_a_nonnegative_whole_number(self, seed, message):
        # 2.7 once drew as seed 2, and -1 ended in numpy's own message
        with pytest.raises(ValueError, match=message):
            gaussian_sample([0.0], 1.0, 3, seed=seed)

    def test_derived_rng_substreams_differ(self):
        x = derived_rng(5, 0).standard_normal(4)
        y = derived_rng(5, 1).standard_normal(4)
        assert not np.array_equal(x, y)
        np.testing.assert_array_equal(x, derived_rng(5, 0).standard_normal(4))


class TestKsStatistic:
    def test_matched_samples_stay_below_critical_value(self):
        m = 5000
        samples = derived_rng(3).standard_normal(m)
        d = ks_statistic(samples, stats.norm())
        assert d < stats.kstwobign.isf(0.01) / math.sqrt(m)

    def test_point_mass_at_median(self):
        d = ks_statistic(np.zeros(100), stats.norm())
        assert d >= 0.5

    def test_reference_quantile_grid_is_near_perfect(self):
        m = 999
        grid = stats.norm.ppf(np.arange(1, m + 1) / (m + 1))
        assert ks_statistic(grid, stats.norm()) <= 1 / (m + 1) + 1e-9

    def test_accepts_plain_callable(self):
        samples = derived_rng(4).uniform(size=500)
        assert ks_statistic(samples, lambda x: np.clip(x, 0, 1)) < 0.06

    def test_rejects_tiny_input(self):
        with pytest.raises(ValueError):
            ks_statistic([1.0], stats.norm())

    def test_scaling_law(self):
        # c * chi2_df samples against the scaled CDF
        m, df, c = 4000, 7, 3.5
        samples = c * stats.chi2.rvs(df, size=m, random_state=11)
        d = ks_statistic(samples, lambda x: stats.chi2.cdf(np.asarray(x) / c, df))
        assert d < stats.kstwobign.isf(0.01) / math.sqrt(m)
