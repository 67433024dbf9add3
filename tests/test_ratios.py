"""GSR triple computation, null laws, and pivotality."""

import dataclasses

import numpy as np
import pytest
from scipy import stats

from gsrdetect.distributions import derived_rng, ks_statistic
from gsrdetect.ratios import (
    GsrTriple,
    StatKind,
    compute_gsr,
    effective_dof,
    null_law_mu,
    null_law_sigma,
    sliding_gsr,
)
from gsrdetect.windows import (
    ObservationWindow,
    SlidingStats,
    SpanningDecomposition,
    sliding_spanning_stats,
)

from oracles import naive_decomposition


def _triple_of(window_data, t=0) -> GsrTriple:
    win = ObservationWindow.from_observations(window_data)
    return compute_gsr(win.decompose(), t)


def test_example_window_ratios():
    triple = _triple_of([[0.0], [1.0], [3.0], [4.0]])
    assert triple.r_mu == pytest.approx(20.0)
    assert triple.r_sigma_plus == pytest.approx(1.0)
    assert triple.r_sigma_minus == pytest.approx(1.0)


def test_identical_halves_give_unit_variance_ratios():
    triple = _triple_of([[2.0, 1.0], [0.0, 0.0], [2.0, 1.0], [0.0, 0.0]])
    assert triple.r_sigma_plus == pytest.approx(1.0)
    assert triple.r_sigma_minus == pytest.approx(1.0)


def test_all_identical_points_degenerate():
    triple = _triple_of(np.full((6, 2), 4.2))
    assert triple.r_mu is None
    assert triple.r_sigma_plus is None
    assert triple.r_sigma_minus is None
    assert triple.value_of(StatKind.MU) is None


def test_constant_left_half_degenerates_only_sigma_plus():
    data = np.vstack([np.zeros((3, 1)), [[1.0], [2.0], [4.0]]])
    triple = _triple_of(data)
    assert triple.r_sigma_plus is None  # denominator w_left = 0
    assert triple.r_sigma_minus == 0.0
    assert triple.r_mu is not None


@pytest.mark.parametrize(
    "data, degenerate",
    [
        (derived_rng(9).standard_normal((10, 3)), 0),
        (np.vstack([np.zeros((3, 1)), [[1.0], [2.0], [4.0]]]), 1),
        (np.full((6, 2), 4.2), 3),
    ],
    ids=["random", "constant-left-half", "all-identical"],
)
def test_window_outputs_keep_the_frozen_dataclass_contract(data, degenerate):
    # decompose and compute_gsr fill their instances without calling __init__.
    decomp = ObservationWindow.from_observations(data).decompose()
    outputs = (decomp, compute_gsr(decomp, 7))
    for made, cls in zip(outputs, (SpanningDecomposition, GsrTriple)):
        names = [f.name for f in dataclasses.fields(cls)]
        built = cls(*(getattr(made, name) for name in names))
        assert type(made) is cls and list(vars(made)) == names
        assert made == built and hash(made) == hash(built) and repr(made) == repr(built)
        assert dataclasses.asdict(made) == dataclasses.asdict(built)
        assert dataclasses.replace(made) == built
        changed = {names[0]: 1.5}
        assert dataclasses.replace(made, **changed) == dataclasses.replace(built, **changed)
        for name in names:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(made, name, 0.0)
    assert dataclasses.astuple(outputs[1])[:3].count(None) == degenerate


def test_reciprocity_and_mu_floor_on_random_windows():
    rng = derived_rng(12)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        d = int(rng.integers(1, 4))
        triple = _triple_of(rng.normal(size=(2 * n, d)))
        assert triple.r_sigma_plus * triple.r_sigma_minus == pytest.approx(1.0, abs=1e-12)
        assert triple.r_mu >= 2.0 - 1e-9


def test_pivotality_of_ratios_under_affine_maps():
    rng = derived_rng(13)
    for a in (0.1, 1.0, 10.0):
        n, d = 6, 3
        data = rng.normal(size=(2 * n, d))
        b = rng.normal(size=d) * 5
        base = _triple_of(data)
        mapped = _triple_of(a * data + b)
        assert mapped.r_mu == pytest.approx(base.r_mu, rel=1e-9)
        assert mapped.r_sigma_plus == pytest.approx(base.r_sigma_plus, rel=1e-9)
        assert mapped.r_sigma_minus == pytest.approx(base.r_sigma_minus, rel=1e-9)


def test_null_law_degrees_of_freedom():
    assert null_law_mu(2, 1).args == (1, 2)
    assert null_law_mu(30, 100).args == (100, 5800)
    assert null_law_sigma(2, 1).args == (1, 1)
    assert null_law_sigma(30, 10).args == (290, 290)


def test_null_law_mu_mean_shrinks_with_window():
    # E[r_mu - 2] = E[F(d, D)] / (n-1) = D/(D-2)/(n-1) -> 0
    previous = np.inf
    for n in (3, 10, 50, 2000):
        d2 = 2 * (n - 1) * 5
        mean = (d2 / (d2 - 2)) / (n - 1)
        assert mean < previous
        assert null_law_mu(n, 5).mean() / (n - 1) == pytest.approx(mean)
        previous = mean
    assert mean < 1e-3


def test_null_law_sigma_median_is_one():
    for n, d in ((2, 1), (5, 3), (30, 10)):
        assert null_law_sigma(n, d).median() == pytest.approx(1.0, abs=1e-12)


def test_null_law_rejects_small_windows():
    with pytest.raises(ValueError):
        null_law_mu(1, 3)
    with pytest.raises(ValueError):
        null_law_sigma(1, 3)


@pytest.mark.parametrize(
    "variances, expected",
    [((1.0, 1.0, 1.0, 1.0), 4.0), ((1.0, 4.0), 25.0 / 17.0), ((7.3,), 1.0)],
)
def test_effective_dof_values(variances, expected):
    assert effective_dof(variances) == pytest.approx(expected, rel=1e-12)


def test_effective_dof_bounds_and_errors():
    rng = derived_rng(14)
    v = rng.uniform(0.2, 3.0, size=8)
    u = effective_dof(v)
    assert 1.0 <= u <= 8.0
    with pytest.raises(ValueError):
        effective_dof([1.0, 0.0])
    with pytest.raises(ValueError):
        effective_dof([1.0, -2.0])
    with pytest.raises(ValueError, match="^variances must be a nonempty vector$"):
        effective_dof([])


def _batch_ratios(y: np.ndarray):
    """r_mu, r_sigma_plus over a (reps, 2n, d) batch, by block identities."""
    n = y.shape[1] // 2

    def block(b):
        m = b.shape[1]
        s = b.sum(axis=1)
        q = np.einsum("bij,bij->b", b, b)
        return np.maximum(m * q - np.einsum("bj,bj->b", s, s), 0.0)

    w_l, w_r, w_f = block(y[:, :n]), block(y[:, n:]), block(y)
    return w_f / (w_l + w_r), w_r / w_l


def test_null_distributions_by_monte_carlo():
    n, d, reps = 10, 5, 5000
    rng = derived_rng(15)
    y = 2.0 + 1.5 * rng.standard_normal((reps, 2 * n, d))
    r_mu, r_plus = _batch_ratios(y)
    crit = stats.kstwobign.isf(0.01) / np.sqrt(reps)
    assert ks_statistic((r_mu - 2) * (n - 1), null_law_mu(n, d)) < crit
    assert ks_statistic(r_plus, null_law_sigma(n, d)) < crit


def test_heteroskedastic_law_with_effective_dof():
    n, d, reps = 10, 5, 5000
    variances = np.array([0.5, 1.0, 1.5, 2.0, 2.5])
    rng = derived_rng(16)
    y = np.sqrt(variances) * rng.standard_normal((reps, 2 * n, d))
    r_mu, _ = _batch_ratios(y)
    u = effective_dof(variances)
    crit = stats.kstwobign.isf(0.001) / np.sqrt(reps)
    assert ks_statistic((r_mu - 2) * (n - 1), null_law_mu(n, u)) < crit


def test_ratio_triple_matches_enumeration_oracle():
    rng = derived_rng(17)
    data = rng.normal(size=(12, 4))
    triple = _triple_of(data)
    expected = naive_decomposition(data)
    assert triple.r_mu == pytest.approx(
        expected["w_full"] / (expected["w_left"] + expected["w_right"]), rel=1e-9
    )
    assert triple.r_sigma_plus == pytest.approx(
        expected["w_right"] / expected["w_left"], rel=1e-9
    )


def test_sliding_gsr_equals_compute_gsr_bit_for_bit():
    rng = derived_rng(18)
    y = rng.normal(size=(60, 3))
    y[20:30] = 1.5  # constant stretch: degenerate ratios in some windows
    stats = sliding_spanning_stats(y, 4)
    ratios = sliding_gsr(stats)
    assert [r.shape for r in ratios] == [stats.clocks.shape] * 3
    degenerate = 0
    for i, t in enumerate(stats.clocks):
        w_l, w_r, w_f = float(stats.w_left[i]), float(stats.w_right[i]), float(stats.w_full[i])
        triple = compute_gsr(SpanningDecomposition(w_f, w_l, w_r, 0.0, 0.0), int(t))
        for kind, r in zip(StatKind, ratios):
            expected = triple.value_of(kind)
            if expected is None:
                degenerate += 1
                assert r[i] == -np.inf
            else:
                assert r[i] == expected  # same division, no tolerance
    assert degenerate > 0


def test_sliding_gsr_all_degenerate_is_minus_inf_without_warnings():
    zeros = np.zeros(4)
    stats = SlidingStats(clocks=np.arange(4), w_left=zeros, w_right=zeros, w_full=zeros)
    with np.errstate(all="raise"):
        ratios = sliding_gsr(stats)
    for r in ratios:
        assert np.all(r == -np.inf)
