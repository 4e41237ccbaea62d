"""Tests for the ensemble default-count statistics."""

import numpy as np
import pytest

from firmglass.riskstats import ensemble_stats


def test_mean_basic():
    assert ensemble_stats([5]).mean_nd == 5.0
    assert ensemble_stats([1, 2, 3]).mean_nd == 2.0
    with pytest.raises(ValueError, match="nd_values"):
        ensemble_stats([])


def test_mean_of_binomial_sample():
    rng = np.random.default_rng(20)
    n, p, k = 400, 0.3, 1000
    draws = rng.binomial(n, p, size=k)
    stderr = np.sqrt(n * p * (1 - p) / k)
    assert abs(ensemble_stats(draws).mean_nd - n * p) <= 3 * stderr


def test_semivariance_hand_cases():
    # only the 3 exceeds the mean
    assert ensemble_stats([1, 2, 3]).semivariance_plus == 0.5
    assert ensemble_stats([4, 4, 4, 4]).semivariance_plus == 0.0
    m = 9
    # K=2: (2m - m)^2 / 1
    assert ensemble_stats([0, 2 * m]).semivariance_plus == m * m


def test_semivariance_bounded_by_variance():
    rng = np.random.default_rng(21)
    for _ in range(1000):
        values = rng.integers(0, 100, size=int(rng.integers(2, 40)))
        semivar = ensemble_stats(values).semivariance_plus
        assert semivar >= 0.0
        assert semivar <= np.var(values, ddof=1) + 1e-12


def test_semivariance_zero_iff_no_upside():
    assert ensemble_stats([3, 3, 3]).semivariance_plus == 0.0
    assert ensemble_stats([3, 3, 4]).semivariance_plus > 0.0


def test_statistics_bits_at_the_published_k():
    # K = 1000 counts of up to N = 1000, the published scale: the sweep
    # digests reach only K <= 4, so a change to a reduction or its order
    # shows up here
    stats = ensemble_stats(np.random.default_rng(31).integers(0, 1001, size=1000))
    assert stats.mean_nd.hex() == "0x1.fc5df3b645a1dp+8"
    assert stats.semivariance_plus.hex() == "0x1.3891640ae2696p+15"


def test_histogram_basic():
    assert ensemble_stats([0, 0, 1]).histogram == {0: 2, 1: 1}


def test_histogram_counts_sum_to_k():
    rng = np.random.default_rng(22)
    for _ in range(200):
        values = rng.integers(0, 1000, size=int(rng.integers(1, 60)))
        counts = ensemble_stats(values).histogram
        assert sum(counts.values()) == values.size
        assert list(counts) == sorted(set(values.tolist()))


def test_permutation_invariance():
    # invariant up to float summation order
    rng = np.random.default_rng(24)
    values = list(rng.integers(0, 30, size=50))
    shuffled = list(values)
    rng.shuffle(shuffled)
    stats, shuffled_stats = ensemble_stats(values), ensemble_stats(shuffled)
    assert stats.mean_nd == pytest.approx(shuffled_stats.mean_nd, rel=1e-12)
    assert stats.semivariance_plus == pytest.approx(
        shuffled_stats.semivariance_plus, rel=1e-12
    )
    assert stats.histogram == shuffled_stats.histogram


def test_ensemble_stats_bundle():
    stats = ensemble_stats([2, 4, 9])
    assert stats.nd_values == [2, 4, 9]
    assert stats.mean_nd == pytest.approx(5.0, abs=1e-9)
    assert stats.semivariance_plus == 8.0  # (9 - 5)^2 / (3 - 1)
    assert stats.histogram == {2: 1, 4: 1, 9: 1}
    single = ensemble_stats([7])
    assert single.mean_nd == 7.0
    assert single.semivariance_plus is None
    assert single.histogram == {7: 1}


def test_counts_that_are_not_integers_at_least_zero_are_refused():
    for bad in ([1.7, 2.9, -0.5], [1.5, 2.5], [3, -1], [True, 2], [np.float64(2.0)]):
        with pytest.raises(ValueError, match="nd_values"):
            ensemble_stats(bad)
    stats = ensemble_stats(np.array([3, 3, 5], dtype=np.int64))
    assert stats.nd_values == [3, 3, 5]
    assert all(type(value) is int for value in stats.nd_values)
    assert all(type(value) is int for value in stats.histogram)
    assert ensemble_stats(np.array([0, 0], dtype=np.int32)).histogram == {0: 2}
    generated = ensemble_stats(v for v in (4, 4, 7))
    assert generated.nd_values == [4, 4, 7]
    assert generated.histogram == {4: 2, 7: 1}
