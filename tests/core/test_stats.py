"""Tests for the statistical machinery."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.stats import (
    Comparison,
    DelayDistribution,
    DiffEstimate,
    SampleStats,
    StatsError,
    compose_loss,
    diff_of_loss_rates,
    diff_of_means,
    left_sum,
    make_cdf,
    median_of_composed,
    row_stats,
    welch_satterthwaite,
)

sample_arrays = st.lists(
    st.floats(min_value=0.1, max_value=1000.0), min_size=2, max_size=50
).map(np.array)


# -- SampleStats ------------------------------------------------------------

def test_sample_stats_from_samples():
    stats = SampleStats.from_samples([1.0, 2.0, 3.0])
    assert stats.n == 3
    assert stats.mean == pytest.approx(2.0)
    assert stats.var == pytest.approx(1.0)


def test_sample_stats_single_sample():
    stats = SampleStats.from_samples([5.0])
    assert stats.n == 1
    assert stats.var == 0.0


def test_sample_stats_validation():
    with pytest.raises(StatsError):
        SampleStats.from_samples([])
    with pytest.raises(StatsError):
        SampleStats(n=0, mean=1.0, var=0.0)
    with pytest.raises(StatsError):
        SampleStats(n=3, mean=1.0, var=-1.0)


@given(samples=sample_arrays)
def test_sample_stats_match_numpy(samples):
    stats = SampleStats.from_samples(samples)
    assert stats.mean == pytest.approx(float(samples.mean()))
    assert stats.var == pytest.approx(float(samples.var(ddof=1)))


@pytest.mark.parametrize(
    "lengths",
    [list(range(1, 41)), [1, 1, 2, 40, 2, 3], [100, 257, 300, 100, 513]],
    ids=["1-40", "mixed", "hundreds"],
)
def test_row_stats_match_sample_stats(lengths):
    """Ragged rows, reduced a block of equal lengths at a time, give each
    row exactly SampleStats.from_samples' mean and variance."""
    rng = np.random.default_rng(len(lengths))
    rows = [
        rng.normal(100.0, 30.0, size=k) * rng.choice([1e-3, 1.0, 1e3])
        for k in lengths * 3
    ]
    means, variances = row_stats(
        np.concatenate(rows), np.array([len(r) for r in rows])
    )
    for row, mean, var in zip(rows, means.tolist(), variances.tolist()):
        ref = SampleStats.from_samples(row)
        assert (mean, var) == (ref.mean, ref.var)


def test_row_stats_of_no_rows():
    means, variances = row_stats(np.empty(0), np.zeros(0, dtype=np.int64))
    assert means.size == variances.size == 0


def test_left_sum_adds_first_to_last():
    """Python 3.11's float sum on every interpreter (3.12's builtin sum
    compensates and returns 0.6 here)."""
    assert left_sum([0.1, 0.2, 0.3]) == 0.6000000000000001
    assert left_sum([]) == 0.0
    est = diff_of_means(
        SampleStats(n=5, mean=1.0, var=0.0),
        [SampleStats(n=5, mean=m, var=0.0) for m in (0.1, 0.2, 0.3)],
    )
    assert est.diff == 1.0 - 0.6000000000000001


# -- Welch-Satterthwaite ------------------------------------------------------

def test_welch_dof_single_component():
    stats = SampleStats(n=10, mean=5.0, var=4.0)
    assert welch_satterthwaite([stats]) == pytest.approx(9.0)


def test_welch_dof_bounds():
    a = SampleStats(n=10, mean=5.0, var=4.0)
    b = SampleStats(n=20, mean=3.0, var=1.0)
    dof = welch_satterthwaite([a, b])
    # Welch dof lies between min(n_i - 1) and sum(n_i - 1).
    assert 9.0 <= dof <= 28.0


def test_welch_degenerate_variances():
    a = SampleStats(n=10, mean=5.0, var=0.0)
    b = SampleStats(n=10, mean=3.0, var=0.0)
    assert welch_satterthwaite([a, b]) >= 1.0


def test_welch_requires_components():
    with pytest.raises(StatsError):
        welch_satterthwaite([])


# -- diff estimates ------------------------------------------------------------

def test_diff_of_means_point_estimate():
    default = SampleStats(n=100, mean=100.0, var=25.0)
    legs = [SampleStats(n=100, mean=40.0, var=16.0), SampleStats(n=100, mean=30.0, var=9.0)]
    est = diff_of_means(default, legs)
    assert est.diff == pytest.approx(30.0)
    assert est.se == pytest.approx(math.sqrt((25 + 16 + 9) / 100))


def test_diff_classification():
    clear_win = DiffEstimate(diff=30.0, se=1.0, dof=50.0)
    assert clear_win.classify() is Comparison.BETTER
    clear_loss = DiffEstimate(diff=-30.0, se=1.0, dof=50.0)
    assert clear_loss.classify() is Comparison.WORSE
    unclear = DiffEstimate(diff=1.0, se=5.0, dof=50.0)
    assert unclear.classify() is Comparison.INDETERMINATE
    silent = DiffEstimate(diff=0.0, se=0.0, dof=1.0)
    assert silent.classify() is Comparison.ZERO


def test_confidence_interval_widens_with_confidence():
    est = DiffEstimate(diff=10.0, se=2.0, dof=30.0)
    lo95, hi95 = est.confidence_interval(0.95)
    lo99, hi99 = est.confidence_interval(0.99)
    assert lo99 < lo95 < 10.0 < hi95 < hi99
    with pytest.raises(StatsError):
        est.confidence_interval(1.5)


def test_confidence_interval_matches_scipy_t_quantile():
    """The t quantile is scipy.stats.t.ppf bit for bit (dof < 1 clamps)."""
    from scipy import stats as sps

    dofs = [0.25, 1.0, 1.5, 2.0, 3.7, 5.0, 9.99, 30.0, 61.2, 250.0, 1e4, 1e7]
    for confidence in (0.5, 0.8, 0.9, 0.95, 0.99, 0.999):
        for dof in dofs:
            est = DiffEstimate(diff=3.0, se=1.5, dof=dof)
            tq = float(sps.t.ppf(0.5 + confidence / 2.0, max(dof, 1.0)))
            assert est.confidence_interval(confidence) == (
                3.0 - tq * 1.5,
                3.0 + tq * 1.5,
            )


def test_diff_of_means_requires_components():
    default = SampleStats(n=10, mean=1.0, var=1.0)
    with pytest.raises(StatsError):
        diff_of_means(default, [])


# -- loss composition -----------------------------------------------------------

def test_compose_loss_known_values():
    assert compose_loss([0.0, 0.0]) == 0.0
    assert compose_loss([0.1, 0.1]) == pytest.approx(0.19)
    assert compose_loss([1.0, 0.5]) == 1.0


def test_compose_loss_validation():
    with pytest.raises(StatsError):
        compose_loss([1.5])
    with pytest.raises(StatsError):
        compose_loss([-0.1])


@given(ps=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=8))
def test_compose_loss_bounds_and_monotonicity(ps):
    combined = compose_loss(ps)
    assert 0.0 <= combined <= 1.0
    assert combined >= max(ps) - 1e-12  # never better than the worst hop
    assert combined <= min(sum(ps), 1.0) + 1e-9  # union bound


def test_diff_of_loss_rates_matches_composition():
    default = SampleStats(n=200, mean=0.10, var=0.09)
    legs = [SampleStats(n=200, mean=0.02, var=0.02), SampleStats(n=200, mean=0.03, var=0.03)]
    est = diff_of_loss_rates(default, legs)
    assert est.diff == pytest.approx(0.10 - compose_loss([0.02, 0.03]))
    assert est.se > 0


# -- convolution medians -------------------------------------------------------

def test_delay_distribution_basics():
    dist = DelayDistribution.from_samples([10.0, 10.4, 11.2, 12.9], bin_width=1.0)
    assert dist.pmf.sum() == pytest.approx(1.0)
    assert dist.origin == 10.0
    assert 10.0 <= dist.median <= 13.0


def test_delay_distribution_validation():
    with pytest.raises(StatsError):
        DelayDistribution.from_samples([], bin_width=1.0)
    dist = DelayDistribution.from_samples([1.0, 2.0])
    with pytest.raises(StatsError):
        dist.quantile(0.0)


def test_convolution_of_point_masses():
    a = DelayDistribution.from_samples([10.0] * 5, bin_width=1.0)
    b = DelayDistribution.from_samples([20.0] * 5, bin_width=1.0)
    c = a.convolve(b)
    assert c.median == pytest.approx(30.0)
    assert c.mean == pytest.approx(30.0)


def test_convolution_requires_matching_bins():
    a = DelayDistribution.from_samples([1.0, 2.0], bin_width=1.0)
    b = DelayDistribution.from_samples([1.0, 2.0], bin_width=2.0)
    with pytest.raises(StatsError):
        a.convolve(b)


@given(a=sample_arrays, b=sample_arrays)
@settings(max_examples=25, deadline=None)
def test_convolution_mean_is_additive(a, b):
    da = DelayDistribution.from_samples(a, bin_width=1.0)
    db = DelayDistribution.from_samples(b, bin_width=1.0)
    composed = da.convolve(db)
    # Binning introduces at most one bin width of error per operand.
    assert composed.mean == pytest.approx(da.mean + db.mean, abs=2.0)


@given(a=sample_arrays, b=sample_arrays)
@settings(max_examples=25, deadline=None)
def test_composed_median_within_support(a, b):
    med = median_of_composed(
        [
            DelayDistribution.from_samples(a, bin_width=1.0),
            DelayDistribution.from_samples(b, bin_width=1.0),
        ]
    )
    assert a.min() + b.min() - 2.0 <= med <= a.max() + b.max() + 2.0


def test_median_of_composed_requires_input():
    with pytest.raises(StatsError):
        median_of_composed([])


# -- CDFs -----------------------------------------------------------------------

def test_make_cdf_monotone():
    series = make_cdf([3.0, 1.0, 2.0], label="x")
    np.testing.assert_allclose(series.x, [1.0, 2.0, 3.0])
    np.testing.assert_allclose(series.y, [1 / 3, 2 / 3, 1.0])
    assert series.label == "x"


def test_make_cdf_empty_rejected():
    with pytest.raises(StatsError):
        make_cdf([])


def test_cdf_fractions():
    series = make_cdf([-2.0, -1.0, 1.0, 2.0])
    assert series.fraction_above(0.0) == pytest.approx(0.5)
    assert series.fraction_below(0.0) == pytest.approx(0.5)
    assert series.value_at_fraction(0.5) == pytest.approx(0.0, abs=1.1)


def test_cdf_trimming():
    series = make_cdf(list(range(100)))
    trimmed = series.trimmed(10, 89)
    assert trimmed.x.min() == 10
    assert trimmed.x.max() == 89
    # y values preserved, so the curve no longer reaches 1.0 — just like
    # the paper's trimmed figures.
    assert trimmed.y.max() < 1.0


@given(values=st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=100))
def test_cdf_is_monotone_property(values):
    series = make_cdf(values)
    assert np.all(np.diff(series.x) >= 0)
    assert np.all(np.diff(series.y) > 0)
    assert series.y[-1] == pytest.approx(1.0)
