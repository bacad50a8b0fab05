"""Tests for statistics helpers."""


import pytest

from repro.util.stats import (
    mean,
    normal_quantile,
    percentile,
    population_variance,
    sample_variance,
    welch_t,
)


class TestMoments:
    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0

    def test_mean_empty_raises(self):
        with pytest.raises(ValueError):
            mean([])

    def test_population_variance(self):
        assert population_variance([2.0, 4.0]) == 1.0

    def test_sample_variance(self):
        assert sample_variance([2.0, 4.0]) == 2.0

    def test_sample_variance_needs_two(self):
        with pytest.raises(ValueError):
            sample_variance([1.0])


class TestWelch:
    def test_identical_samples_zero(self):
        assert welch_t([1, 2, 3], [1, 2, 3]) == 0.0

    def test_separated_samples_large(self):
        assert welch_t([10, 11, 12], [0, 1, 2]) > 5

    def test_sign(self):
        assert welch_t([0, 1, 2], [10, 11, 12]) < 0


class TestNormalQuantile:
    def test_median(self):
        assert abs(normal_quantile(0.5)) < 1e-9

    def test_known_values(self):
        assert normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-4)
        assert normal_quantile(0.99) == pytest.approx(2.326348, abs=1e-4)

    def test_symmetry(self):
        assert normal_quantile(0.25) == pytest.approx(-normal_quantile(0.75),
                                                      abs=1e-9)

    def test_tails(self):
        assert normal_quantile(1e-6) < -4
        assert normal_quantile(1 - 1e-6) > 4

    def test_domain_validation(self):
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                normal_quantile(bad)


class TestPercentile:
    def test_nearest_rank(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 0.50) == 3.0
        assert percentile(values, 0.95) == 5.0     # rank round(3.8) = 4
        assert percentile(values, 1.0) == 5.0

    def test_never_interpolates(self):
        assert percentile([1.0, 2.0], 0.50) in (1.0, 2.0)
        assert percentile([10.0, 20.0, 30.0], 0.70) == 20.0   # round(1.4)

    def test_empty_is_zero(self):
        assert percentile([], 0.95) == 0.0
