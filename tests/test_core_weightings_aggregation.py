"""Tests for bin weightings (Eq. 24–29) and the Table 3 aggregation formulas."""

import numpy as np
import pytest

from repro.core.aggregation import AqpEstimate, aggregate
from repro.core.builder import build_pairwise_hist
from repro.core.params import PairwiseHistParams
from repro.core.weightings import PredicateEvaluator
from repro.sql.ast import AggregateFunction, ComparisonOp, Condition, LogicalOp, PredicateNode


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(42)
    rows = 8000
    # Skewed data (like the paper's sensor / trip datasets) so refinement
    # produces several bins per column.
    x = np.round(np.clip(rng.gamma(2.0, 150.0, rows), 0, 1000))
    y = np.round(np.clip(0.5 * x + rng.normal(0, 40, rows), 0, None))
    z = np.round(rng.uniform(0, 100, rows))
    return {"x": x, "y": y, "z": z}


@pytest.fixture(scope="module")
def synopsis(data):
    params = PairwiseHistParams(sample_size=None, min_points=100, alpha=0.001, seed=0)
    return build_pairwise_hist(data, params)


@pytest.fixture(scope="module")
def evaluator(synopsis):
    return PredicateEvaluator(synopsis, "x")


def true_count(data, mask) -> float:
    return float(mask.sum())


class TestWeightings:
    def test_no_predicate_returns_bin_counts(self, synopsis, evaluator):
        weights = evaluator.weightings(None)
        np.testing.assert_allclose(weights[0], synopsis.hist1d["x"].counts)
        assert weights[0].sum() == pytest.approx(len(next(iter(synopsis.hist1d.values())).counts) and 8000)

    def test_same_column_predicate(self, data, evaluator):
        condition = Condition("x", ComparisonOp.LT, 500.0)
        weights = evaluator.weightings(condition)
        assert weights[0].sum() == pytest.approx(true_count(data, data["x"] < 500), rel=0.05)

    def test_other_column_predicate_uses_pair_histogram(self, data, evaluator):
        condition = Condition("y", ComparisonOp.GT, 300.0)
        weights = evaluator.weightings(condition)
        assert weights[0].sum() == pytest.approx(true_count(data, data["y"] > 300), rel=0.05)

    def test_and_of_two_columns(self, data, evaluator):
        predicate = PredicateNode(
            LogicalOp.AND,
            [Condition("y", ComparisonOp.GT, 200.0), Condition("z", ComparisonOp.LT, 50.0)],
        )
        weights = evaluator.weightings(predicate)
        truth = true_count(data, (data["y"] > 200) & (data["z"] < 50))
        assert weights[0].sum() == pytest.approx(truth, rel=0.1)

    def test_or_of_two_columns(self, data, evaluator):
        predicate = PredicateNode(
            LogicalOp.OR,
            [Condition("x", ComparisonOp.LT, 100.0), Condition("z", ComparisonOp.GT, 90.0)],
        )
        weights = evaluator.weightings(predicate)
        truth = true_count(data, (data["x"] < 100) | (data["z"] > 90))
        assert weights[0].sum() == pytest.approx(truth, rel=0.1)

    def test_same_column_range_consolidation(self, data, evaluator):
        predicate = PredicateNode(
            LogicalOp.AND,
            [Condition("x", ComparisonOp.GT, 200.0), Condition("x", ComparisonOp.LT, 400.0)],
        )
        weights = evaluator.weightings(predicate)
        truth = true_count(data, (data["x"] > 200) & (data["x"] < 400))
        assert weights[0].sum() == pytest.approx(truth, rel=0.05)

    def test_bounds_bracket_estimate(self, evaluator):
        predicate = PredicateNode(
            LogicalOp.AND,
            [Condition("y", ComparisonOp.GT, 100.0), Condition("z", ComparisonOp.LT, 80.0)],
        )
        weights = evaluator.weightings(predicate)
        estimate, lower, upper = weights
        assert (lower <= estimate + 1e-9).all()
        assert (upper >= estimate - 1e-9).all()
        assert (lower >= 0).all()

    def test_impossible_predicate_gives_zero(self, evaluator):
        predicate = PredicateNode(
            LogicalOp.AND,
            [Condition("x", ComparisonOp.GT, 5000.0), Condition("x", ComparisonOp.LT, -10.0)],
        )
        weights = evaluator.weightings(predicate)
        assert weights[0].sum() == 0.0

    def test_empty_flag_false_for_matching_predicate(self, evaluator):
        weights = evaluator.weightings(Condition("x", ComparisonOp.GE, 0.0))
        assert weights[0].sum() > 0.0


class TestAggregationFormulas:
    @pytest.fixture(scope="class")
    def hist(self, synopsis):
        return synopsis.hist1d["x"]

    @pytest.fixture(scope="class")
    def full_weights(self, evaluator):
        return evaluator.weightings(None)

    def test_count_scales_by_sampling_ratio(self, hist, full_weights):
        result = aggregate(AggregateFunction.COUNT, hist, full_weights, sampling_ratio=0.5, min_points=100)
        assert result.value == pytest.approx(16_000)

    def test_count_of_everything(self, data, hist, full_weights):
        result = aggregate(AggregateFunction.COUNT, hist, full_weights, 1.0, 100)
        assert result.value == pytest.approx(len(data["x"]))
        assert result.lower <= result.value <= result.upper

    def test_sum_close_to_truth(self, data, hist, full_weights):
        result = aggregate(AggregateFunction.SUM, hist, full_weights, 1.0, 100)
        assert result.value == pytest.approx(data["x"].sum(), rel=0.02)

    def test_avg_close_to_truth_and_bounded(self, data, hist, full_weights):
        result = aggregate(AggregateFunction.AVG, hist, full_weights, 1.0, 100)
        assert result.value == pytest.approx(data["x"].mean(), rel=0.02)
        assert result.lower <= result.value <= result.upper

    def test_min_max_match_extrema(self, data, hist, full_weights):
        minimum = aggregate(AggregateFunction.MIN, hist, full_weights, 1.0, 100, single_column=True)
        maximum = aggregate(AggregateFunction.MAX, hist, full_weights, 1.0, 100, single_column=True)
        assert minimum.value == pytest.approx(data["x"].min(), abs=5)
        assert maximum.value == pytest.approx(data["x"].max(), abs=5)
        assert minimum.value <= maximum.value

    def test_median_close_to_truth(self, data, hist, full_weights):
        result = aggregate(AggregateFunction.MEDIAN, hist, full_weights, 1.0, 100)
        assert result.value == pytest.approx(np.median(data["x"]), rel=0.05)
        assert result.lower <= result.value <= result.upper

    def test_var_close_to_truth(self, data, hist, full_weights):
        result = aggregate(AggregateFunction.VAR, hist, full_weights, 1.0, 100)
        assert result.value == pytest.approx(data["x"].var(), rel=0.15)

    def test_empty_weights_count_zero_others_nan(self, hist, evaluator):
        empty = evaluator.weightings(Condition("x", ComparisonOp.GT, 1e9))
        count = aggregate(AggregateFunction.COUNT, hist, empty, 1.0, 100)
        assert count.value == 0.0
        for func in (AggregateFunction.AVG, AggregateFunction.SUM, AggregateFunction.MEDIAN,
                     AggregateFunction.MIN, AggregateFunction.MAX, AggregateFunction.VAR):
            assert np.isnan(aggregate(func, hist, empty, 1.0, 100).value)

    @pytest.mark.parametrize(
        "func",
        [AggregateFunction.COUNT, AggregateFunction.SUM, AggregateFunction.AVG,
         AggregateFunction.MEDIAN, AggregateFunction.VAR],
    )
    def test_bounds_are_ordered(self, hist, evaluator, func):
        weights = evaluator.weightings(Condition("y", ComparisonOp.GT, 150.0))
        result = aggregate(func, hist, weights, 1.0, 100)
        assert result.lower <= result.upper

    def test_predicate_restricted_avg(self, data, hist, evaluator):
        weights = evaluator.weightings(Condition("x", ComparisonOp.LT, 300.0))
        result = aggregate(AggregateFunction.AVG, hist, weights, 1.0, 100)
        truth = data["x"][data["x"] < 300].mean()
        assert result.value == pytest.approx(truth, rel=0.05)


class TestAqpEstimate:
    def test_bounds_are_swapped_if_reversed(self):
        estimate = AqpEstimate(value=1.0, lower=5.0, upper=0.0)
        assert estimate.lower <= estimate.upper

    def test_contains_and_width(self):
        estimate = AqpEstimate(value=10.0, lower=8.0, upper=12.0)
        assert estimate.contains(9.0)
        assert not estimate.contains(20.0)
        assert estimate.width == pytest.approx(4.0)
