"""Tests for coverage estimation (Eq. 14–16) and its bounds (Theorem 2, Eq. 22–23)."""

import numpy as np
import pytest

from repro.core.coverage import (
    condition_coverage,
    consolidate_and,
    consolidate_or,
    coverage_bounds,
    coverage_estimate,
    partial_count_bounds,
)
from repro.sql.ast import ComparisonOp


@pytest.fixture()
def bins():
    """Five bins covering [0, 50), each with 10 values and 100 points."""
    return {
        "v_minus": np.array([0.0, 10.0, 20.0, 30.0, 40.0]),
        "v_plus": np.array([10.0, 20.0, 30.0, 40.0, 50.0]),
        "unique": np.array([10.0, 10.0, 10.0, 10.0, 10.0]),
        "counts": np.array([100.0, 100.0, 100.0, 100.0, 100.0]),
    }


class TestCoverageEstimate:
    def test_less_than_fully_covers_lower_bins(self, bins):
        beta = coverage_estimate(ComparisonOp.LT, 25.0, bins["v_minus"], bins["v_plus"], bins["unique"])
        np.testing.assert_allclose(beta, [1.0, 1.0, 0.5, 0.0, 0.0])

    def test_greater_than_mirrors_less_than(self, bins):
        beta = coverage_estimate(ComparisonOp.GT, 25.0, bins["v_minus"], bins["v_plus"], bins["unique"])
        np.testing.assert_allclose(beta, [0.0, 0.0, 0.5, 1.0, 1.0])

    def test_equality_uses_unique_count(self, bins):
        beta = coverage_estimate(ComparisonOp.EQ, 15.0, bins["v_minus"], bins["v_plus"], bins["unique"])
        np.testing.assert_allclose(beta, [0.0, 0.1, 0.0, 0.0, 0.0])

    def test_inequality_is_complement_of_equality(self, bins):
        eq = coverage_estimate(ComparisonOp.EQ, 15.0, bins["v_minus"], bins["v_plus"], bins["unique"])
        ne = coverage_estimate(ComparisonOp.NE, 15.0, bins["v_minus"], bins["v_plus"], bins["unique"])
        np.testing.assert_allclose(eq + ne, np.ones(5))

    def test_empty_bin_gets_zero(self):
        beta = coverage_estimate(
            ComparisonOp.LT, 5.0, np.array([0.0]), np.array([10.0]), np.array([0.0])
        )
        assert beta[0] == 0.0

    def test_two_unique_values_special_case(self):
        beta = coverage_estimate(
            ComparisonOp.LT, 5.0, np.array([0.0]), np.array([10.0]), np.array([2.0])
        )
        assert beta[0] == 0.5

    def test_boundary_literal_at_bin_edges(self, bins):
        beta = coverage_estimate(ComparisonOp.LE, 10.0, bins["v_minus"], bins["v_plus"], bins["unique"])
        assert beta[0] == 1.0
        assert beta[1] == pytest.approx(0.0, abs=1e-9)

    def test_coverage_matches_data_fraction_for_uniform_bin(self):
        rng = np.random.default_rng(0)
        values = rng.uniform(0, 100, 100_000)
        literal = 33.0
        beta = coverage_estimate(
            ComparisonOp.LT, literal, np.array([values.min()]), np.array([values.max()]),
            np.array([50_000.0]),
        )
        assert beta[0] == pytest.approx((values < literal).mean(), abs=0.01)


class TestPartialCountBounds:
    def test_full_coverage_is_exact(self):
        assert partial_count_bounds(1000, 5, 5, 10.0) == (1000, 1000)

    def test_zero_coverage_is_zero(self):
        assert partial_count_bounds(1000, 5, 0, 10.0) == (0.0, 0.0)

    def test_bounds_bracket_expected_count(self):
        lower, upper = partial_count_bounds(1000, 5, 2, 10.0)
        expected = 1000 * 2 / 5
        assert lower <= expected <= upper
        assert 0 <= lower and upper <= 1000

    def test_wider_chi2_gives_wider_bounds(self):
        narrow = partial_count_bounds(1000, 5, 2, 5.0)
        wide = partial_count_bounds(1000, 5, 2, 20.0)
        assert (wide[1] - wide[0]) > (narrow[1] - narrow[0])


class TestCoverageBounds:
    def test_exact_coverages_keep_their_value(self, bins):
        beta = np.array([0.0, 1.0, 0.5, 1.0, 0.0])
        lower, upper = coverage_bounds(beta, bins["counts"], bins["unique"], min_points=50, alpha=0.001)
        assert lower[0] == upper[0] == 0.0
        assert lower[1] == upper[1] == 1.0
        assert lower[2] <= 0.5 <= upper[2]

    def test_small_bins_use_worst_case(self, bins):
        beta = np.array([0.3, 0.3, 0.3, 0.3, 0.3])
        lower, upper = coverage_bounds(beta, bins["counts"], bins["unique"], min_points=1000, alpha=0.001)
        np.testing.assert_allclose(lower, 1.0 / bins["counts"])
        np.testing.assert_allclose(upper, 1.0 - 1.0 / bins["counts"])

    def test_bounds_bracket_estimate(self, bins):
        beta = np.array([0.1, 0.25, 0.5, 0.75, 0.9])
        lower, upper = coverage_bounds(beta, bins["counts"], bins["unique"], min_points=50, alpha=0.001)
        assert (lower <= beta + 1e-12).all()
        assert (upper >= beta - 1e-12).all()
        assert (lower >= 0).all() and (upper <= 1).all()

    def test_condition_coverage_wrapper(self, bins):
        result = condition_coverage(
            ComparisonOp.LT, 25.0, bins["v_minus"], bins["v_plus"], bins["unique"],
            bins["counts"], min_points=50, alpha=0.001,
        )
        estimate, lower, upper = result
        assert result.shape[1] == 5
        assert (lower <= estimate).all()
        assert (upper >= estimate).all()


class TestConsolidation:
    def test_and_consolidation_is_elementwise_min(self, bins):
        a = condition_coverage(ComparisonOp.GT, 15.0, bins["v_minus"], bins["v_plus"],
                               bins["unique"], bins["counts"], 50, 0.001)
        b = condition_coverage(ComparisonOp.LT, 35.0, bins["v_minus"], bins["v_plus"],
                               bins["unique"], bins["counts"], 50, 0.001)
        merged = consolidate_and([a, b])
        np.testing.assert_allclose(merged[0], np.minimum(a[0], b[0]))

    def test_fig7_consolidation_example(self):
        # Fig. 7: beta_1 = <0.19, 1, 1, 1, 1>, beta_2 = <1, 1, 0.31, 0, 0>
        # consolidate to beta_12 = <0.19, 1, 0.31, 0, 0>.
        beta1 = np.array([[0.19, 1, 1, 1, 1], np.zeros(5), np.ones(5)])
        beta2 = np.array([[1, 1, 0.31, 0, 0], np.zeros(5), np.ones(5)])
        merged = consolidate_and([beta1, beta2])
        np.testing.assert_allclose(merged[0], [0.19, 1, 0.31, 0, 0])

    def test_or_consolidation_caps_at_one(self, bins):
        a = condition_coverage(ComparisonOp.LT, 45.0, bins["v_minus"], bins["v_plus"],
                               bins["unique"], bins["counts"], 50, 0.001)
        b = condition_coverage(ComparisonOp.GT, 5.0, bins["v_minus"], bins["v_plus"],
                               bins["unique"], bins["counts"], 50, 0.001)
        merged = consolidate_or([a, b])
        assert (merged[0] <= 1.0).all()
        assert (merged[0] >= np.maximum(a[0], b[0])).all()

    def test_or_of_disjoint_ranges_adds(self, bins):
        a = condition_coverage(ComparisonOp.LT, 5.0, bins["v_minus"], bins["v_plus"],
                               bins["unique"], bins["counts"], 50, 0.001)
        b = condition_coverage(ComparisonOp.GT, 45.0, bins["v_minus"], bins["v_plus"],
                               bins["unique"], bins["counts"], 50, 0.001)
        merged = consolidate_or([a, b])
        assert merged[0][0] == pytest.approx(a[0][0])
        assert merged[0][4] == pytest.approx(b[0][4])
