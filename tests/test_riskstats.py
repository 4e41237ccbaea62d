"""Tests for the ensemble default-count statistics."""

import numpy as np
import pytest

from firmglass.riskstats import (
    ensemble_stats,
    histogram,
    mean_nd,
    upper_semivariance,
)


def test_mean_basic():
    assert mean_nd([5]) == 5.0
    assert mean_nd([1, 2, 3]) == 2.0
    with pytest.raises(ValueError):
        mean_nd([])


def test_mean_of_binomial_sample():
    rng = np.random.default_rng(20)
    n, p, k = 400, 0.3, 1000
    draws = rng.binomial(n, p, size=k)
    stderr = np.sqrt(n * p * (1 - p) / k)
    assert abs(mean_nd(draws) - n * p) <= 3 * stderr


def test_semivariance_hand_cases():
    assert upper_semivariance([1, 2, 3]) == 0.5  # only the 3 exceeds the mean
    assert upper_semivariance([4, 4, 4, 4]) == 0.0
    m = 9
    assert upper_semivariance([0, 2 * m]) == m * m  # K=2: (2m - m)^2 / 1
    with pytest.raises(ValueError):
        upper_semivariance([7])


def test_semivariance_bounded_by_variance():
    rng = np.random.default_rng(21)
    for _ in range(1000):
        values = rng.integers(0, 100, size=int(rng.integers(2, 40)))
        semivar = upper_semivariance(values)
        assert semivar >= 0.0
        assert semivar <= np.var(values, ddof=1) + 1e-12


def test_semivariance_zero_iff_no_upside():
    assert upper_semivariance([3, 3, 3]) == 0.0
    assert upper_semivariance([3, 3, 4]) > 0.0


def test_histogram_basic():
    assert histogram([0, 0, 1]) == {0: 2, 1: 1}


def test_histogram_counts_sum_to_k():
    rng = np.random.default_rng(22)
    for _ in range(200):
        values = rng.integers(0, 1000, size=int(rng.integers(1, 60)))
        assert sum(histogram(values).values()) == values.size


def test_permutation_invariance():
    # invariant up to float summation order
    rng = np.random.default_rng(24)
    values = list(rng.integers(0, 30, size=50))
    shuffled = list(values)
    rng.shuffle(shuffled)
    assert mean_nd(values) == pytest.approx(mean_nd(shuffled), rel=1e-12)
    assert upper_semivariance(values) == pytest.approx(
        upper_semivariance(shuffled), rel=1e-12
    )
    assert histogram(values) == histogram(shuffled)


def test_ensemble_stats_bundle():
    stats = ensemble_stats([2, 4, 9])
    assert stats.mean_nd == pytest.approx(5.0, abs=1e-9)
    assert stats.semivariance_plus == upper_semivariance([2, 4, 9])
    assert stats.histogram == {2: 1, 4: 1, 9: 1}
    assert sum(stats.histogram.values()) == 3
    single = ensemble_stats([7])
    assert single.mean_nd == 7.0
    assert single.semivariance_plus is None


def test_counts_that_are_not_integers_at_least_zero_are_refused():
    for bad in ([1.7, 2.9, -0.5], [1.5, 2.5], [3, -1], [True, 2], [np.float64(2.0)]):
        with pytest.raises(ValueError, match="nd_values"):
            histogram(bad)
        with pytest.raises(ValueError, match="nd_values"):
            ensemble_stats(bad)
    stats = ensemble_stats(np.array([3, 3, 5], dtype=np.int64))
    assert stats.nd_values == [3, 3, 5]
    assert all(type(value) is int for value in stats.nd_values)
    assert histogram(np.array([0, 0], dtype=np.int32)) == {0: 2}
    assert histogram(v for v in (4, 4, 7)) == {4: 2, 7: 1}
    assert ensemble_stats(v for v in (4, 4, 7)).nd_values == [4, 4, 7]
