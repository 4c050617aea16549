"""Tests for construction parameters, the Terrell–Scott rule and the uniformity test."""

import numpy as np
import pytest

from repro.core.chi2_table import CHI2_999
from repro.core.hypothesis import (
    chi2_critical_value,
    is_uniform,
    terrell_scott_bins,
    uniformity_test,
)
from repro.core.params import PairwiseHistParams
from repro.core.weightings import Z_98


class TestParams:
    def test_paper_defaults_m_is_one_percent_of_ns(self):
        params = PairwiseHistParams.with_defaults(sample_size=100_000)
        assert params.min_points == 1_000
        assert params.alpha == pytest.approx(0.001)

    def test_small_sample_keeps_minimum_m(self):
        params = PairwiseHistParams.with_defaults(sample_size=200)
        assert params.min_points == 10

    def test_full_scan_defaults(self):
        params = PairwiseHistParams.with_defaults(sample_size=None)
        assert params.sample_size is None

    def test_scaled_to(self):
        params = PairwiseHistParams.with_defaults(sample_size=10_000)
        rescaled = params.scaled_to(50_000)
        assert rescaled.sample_size == 50_000
        assert rescaled.min_points == 500

    def test_effective_initial_bins_is_ns_over_m(self):
        params = PairwiseHistParams(sample_size=10_000, min_points=100)
        assert params.effective_initial_bins == 100

    def test_invalid_min_points(self):
        with pytest.raises(ValueError):
            PairwiseHistParams(sample_size=100, min_points=1)

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            PairwiseHistParams(sample_size=100, min_points=10, alpha=1.5)

    def test_invalid_sample_size(self):
        with pytest.raises(ValueError):
            PairwiseHistParams(sample_size=0, min_points=10)


class TestTerrellScott:
    @pytest.mark.parametrize("unique,expected", [(1, 2), (4, 2), (13, 3), (32, 4), (500, 10)])
    def test_known_values(self, unique, expected):
        # ceil((2u)^(1/3))
        assert terrell_scott_bins(unique) == expected

    def test_non_positive_unique(self):
        assert terrell_scott_bins(0) == 1
        assert terrell_scott_bins(-5) == 1

    def test_monotone_in_unique_count(self):
        values = [terrell_scott_bins(u) for u in range(1, 2000, 50)]
        assert values == sorted(values)


class TestScipyFreeConstants:
    """The literals that keep scipy out of a server are scipy's values, bit for bit."""

    def test_z_98_is_the_normal_quantile(self):
        stats = pytest.importorskip("scipy.stats")
        assert Z_98 == float(stats.norm.ppf(0.99))

    def test_chi2_table_is_the_paper_alpha_quantile(self):
        stats = pytest.importorskip("scipy.stats")
        assert len(CHI2_999) == 255
        for dof, value in enumerate(CHI2_999, start=1):
            assert value == float(stats.chi2.ppf(0.999, dof)), dof

    def test_paper_alpha_reads_the_table_up_to_256_sub_bins(self):
        stats = pytest.importorskip("scipy.stats")
        for sub_bins in (1, 2, 3, 127, 256):
            dof = max(1, sub_bins - 1)
            assert chi2_critical_value(0.001, sub_bins) == CHI2_999[dof - 1]
        assert chi2_critical_value(0.001, 300) == float(stats.chi2.ppf(0.999, 299))


class TestChiSquaredCritical:
    def test_matches_scipy(self):
        from scipy import stats

        assert chi2_critical_value(0.05, 10) == float(stats.chi2.ppf(0.95, 9))

    def test_smaller_alpha_means_larger_critical_value(self):
        assert chi2_critical_value(0.001, 5) > chi2_critical_value(0.1, 5)

    def test_minimum_one_degree_of_freedom(self):
        assert chi2_critical_value(0.05, 1) == chi2_critical_value(0.05, 2)


class TestUniformityTest:
    def test_uniform_data_passes(self):
        rng = np.random.default_rng(0)
        values = rng.uniform(0, 100, size=5000)
        assert is_uniform(values, 0, 100, len(np.unique(values)), alpha=0.001)

    def test_heavily_clustered_data_fails(self):
        rng = np.random.default_rng(1)
        values = np.concatenate([rng.normal(10, 0.5, 4000), rng.uniform(0, 100, 100)])
        values = np.clip(values, 0, 100)
        assert not is_uniform(values, 0, 100, len(np.unique(values)), alpha=0.001)

    def test_empty_bin_counts_as_uniform(self):
        assert is_uniform(np.array([]), 0, 10, 0, alpha=0.01)

    def test_single_unique_value_counts_as_uniform(self):
        values = np.full(100, 3.0)
        assert is_uniform(values, 0, 10, 1, alpha=0.01)

    def test_result_exposes_statistic_and_critical_value(self):
        rng = np.random.default_rng(2)
        values = rng.uniform(0, 1, 1000)
        result = uniformity_test(values, 0, 1, 500, alpha=0.01)
        assert result.sub_bins == terrell_scott_bins(500)
        assert result.statistic >= 0
        assert result.critical_value > 0
        assert result.is_uniform == (result.statistic <= result.critical_value)

    def test_degenerate_range_is_uniform(self):
        values = np.full(50, 5.0)
        assert uniformity_test(values, 5.0, 5.0, 1, 0.01).is_uniform

    def test_alpha_controls_sensitivity(self):
        rng = np.random.default_rng(3)
        # Mildly non-uniform data: a small linear trend.
        values = rng.uniform(0, 1, 3000) ** 1.15
        strict = uniformity_test(values, 0, 1, 2500, alpha=0.2)
        lenient = uniformity_test(values, 0, 1, 2500, alpha=1e-12)
        # The lenient (tiny alpha -> huge critical value) test should accept.
        assert lenient.critical_value > strict.critical_value
