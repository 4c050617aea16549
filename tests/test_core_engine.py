"""Tests for the end-to-end PairwiseHist engine (SQL in, bounded estimates out)."""

import numpy as np
import pytest

from repro import PairwiseHistEngine, PairwiseHistParams, parse_query
from repro.sql.ast import AggregateFunction


class TestEngineConstruction:
    def test_construction_records_time_and_store(self, simple_engine):
        assert simple_engine.construction_seconds > 0
        assert simple_engine.sampling_ratio <= 1.0

    def test_without_compression(self, simple_table):
        params = PairwiseHistParams.with_defaults(sample_size=1500, seed=0)
        engine = PairwiseHistEngine.from_table(simple_table, params=params, use_compression=False)
        result = engine.execute_scalar("SELECT COUNT(x) FROM simple WHERE x > 50")
        assert result.value > 0

    def test_synopsis_bytes_positive_and_serialisable(self, simple_engine):
        payload = simple_engine.serialize_synopsis()
        assert simple_engine.synopsis_bytes() == len(payload)


class TestQueryValidation:
    def test_unknown_column_rejected(self, simple_engine):
        with pytest.raises(KeyError):
            simple_engine.execute("SELECT AVG(missing) FROM simple")

    def test_non_count_on_categorical_rejected(self, simple_engine):
        with pytest.raises(ValueError):
            simple_engine.execute("SELECT AVG(category) FROM simple")

    def test_group_by_rejected_in_execute_scalar(self, simple_engine):
        with pytest.raises(ValueError):
            simple_engine.execute_scalar("SELECT COUNT(x) FROM simple GROUP BY category")

    def test_group_by_rejected_in_execute_scalar_before_any_work(self, simple_engine, monkeypatch):
        def no_evaluator(*args, **kwargs):
            raise AssertionError("execute_scalar evaluated a GROUP BY query before refusing it")

        monkeypatch.setattr("repro.core.engine.PredicateEvaluator", no_evaluator)
        with pytest.raises(ValueError, match="execute_scalar does not support GROUP BY queries"):
            simple_engine.execute_scalar("SELECT COUNT(x) FROM simple GROUP BY category")

    def test_accepts_query_objects(self, simple_engine):
        query = parse_query("SELECT COUNT(x) FROM simple WHERE x >= 0")
        results = simple_engine.execute(query)
        assert results[0].aggregation.func is AggregateFunction.COUNT


class TestAccuracyAgainstExact:
    @pytest.mark.parametrize(
        "sql,rel",
        [
            ("SELECT COUNT(x) FROM simple WHERE x > 30", 0.05),
            ("SELECT COUNT(x) FROM simple WHERE x > 30 AND y < 150", 0.08),
            ("SELECT AVG(y) FROM simple WHERE x > 20 AND x < 80", 0.05),
            ("SELECT SUM(z) FROM simple WHERE x < 70", 0.10),
            ("SELECT AVG(x) FROM simple WHERE category = 'alpha'", 0.05),
            ("SELECT MEDIAN(x) FROM simple WHERE z < 20", 0.10),
            ("SELECT AVG(y) FROM simple WHERE x < 20 OR x > 80", 0.08),
        ],
    )
    def test_estimates_close_to_truth(self, simple_engine, simple_exact, sql, rel):
        estimate = simple_engine.execute_scalar(sql)
        truth = simple_exact.execute_scalar(parse_query(sql))
        assert estimate.value == pytest.approx(truth, rel=rel)

    def test_min_max_reasonable(self, simple_engine, simple_exact):
        for func in ("MIN", "MAX"):
            sql = f"SELECT {func}(x) FROM simple WHERE z < 30"
            estimate = simple_engine.execute_scalar(sql)
            truth = simple_exact.execute_scalar(parse_query(sql))
            spread = 100.0  # x spans [0, 100]
            assert abs(estimate.value - truth) < 0.15 * spread

    def test_null_heavy_column_count(self, simple_engine, simple_exact):
        sql = "SELECT COUNT(with_nulls) FROM simple WHERE with_nulls > 10"
        estimate = simple_engine.execute_scalar(sql)
        truth = simple_exact.execute_scalar(parse_query(sql))
        assert estimate.value == pytest.approx(truth, rel=0.1)

    def test_inverse_transform_restores_original_domain(self, power_engine, power_exact):
        sql = "SELECT AVG(voltage) FROM power WHERE global_active_power > 1"
        estimate = power_engine.execute_scalar(sql)
        truth = power_exact.execute_scalar(parse_query(sql))
        # Voltage is around 240; a result in the compressed domain would be
        # off by orders of magnitude.
        assert estimate.value == pytest.approx(truth, rel=0.02)

    def test_sum_inverse_transform_with_offset(self, power_engine, power_exact):
        sql = "SELECT SUM(voltage) FROM power WHERE hour < 12"
        estimate = power_engine.execute_scalar(sql)
        truth = power_exact.execute_scalar(parse_query(sql))
        assert estimate.value == pytest.approx(truth, rel=0.1)


class TestBounds:
    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT COUNT(x) FROM simple WHERE x > 25 AND y < 120",
            "SELECT AVG(y) FROM simple WHERE x > 10",
            "SELECT SUM(x) FROM simple WHERE z < 15",
            "SELECT MEDIAN(x) FROM simple WHERE x > 10 AND x < 90",
        ],
    )
    def test_bounds_bracket_estimate(self, simple_engine, sql):
        result = simple_engine.execute_scalar(sql)
        assert result.lower <= result.value <= result.upper

    def test_bounds_usually_contain_truth(self, simple_engine, simple_exact):
        queries = [
            "SELECT COUNT(x) FROM simple WHERE x > 20",
            "SELECT COUNT(x) FROM simple WHERE y < 100",
            "SELECT AVG(x) FROM simple WHERE y > 50",
            "SELECT AVG(z) FROM simple WHERE x < 60",
            "SELECT SUM(x) FROM simple WHERE z > 5",
            "SELECT COUNT(x) FROM simple WHERE category = 'beta'",
        ]
        hits = 0
        for sql in queries:
            result = simple_engine.execute_scalar(sql)
            truth = simple_exact.execute_scalar(parse_query(sql))
            hits += int(result.lower <= truth <= result.upper)
        assert hits >= len(queries) * 0.6


class TestGroupBy:
    def test_group_by_count_sums_to_total(self, simple_engine, simple_table):
        results = simple_engine.execute("SELECT COUNT(x) FROM simple GROUP BY category")
        assert set(results) == {"alpha", "beta", "gamma", "delta"}
        total = sum(r[0].value for r in results.values())
        assert total == pytest.approx(simple_table.num_rows, rel=0.05)

    def test_group_by_avg_close_to_exact(self, simple_engine, simple_exact):
        sql = "SELECT AVG(x) FROM simple WHERE z < 30 GROUP BY category"
        approx = simple_engine.execute(sql)
        exact = simple_exact.execute(parse_query(sql))
        for label, exact_results in exact.items():
            if exact_results[0].rows_matched < 30:
                continue
            assert approx[label][0].value == pytest.approx(exact_results[0].value, rel=0.15)

    def test_group_by_requires_categorical(self, simple_engine):
        with pytest.raises(ValueError):
            simple_engine.execute("SELECT COUNT(x) FROM simple GROUP BY x")

    def test_group_results_carry_group_label(self, simple_engine):
        results = simple_engine.execute("SELECT COUNT(x) FROM simple GROUP BY category")
        for label, group_results in results.items():
            assert group_results[0].group == label


class TestEmptyGroupFilter:
    """Regression tests: GROUP BY must drop groups with zero estimated count."""

    @pytest.fixture(scope="class")
    def separated_engine(self):
        # Only category "rare" lives in the high-x range, so a predicate on
        # x can empty out the other groups entirely.  Skewed category counts
        # make the category histogram refine into per-category bins.
        import numpy as np

        rng = np.random.default_rng(0)
        x = np.concatenate(
            [rng.uniform(0, 10, 700), rng.uniform(0, 10, 400), rng.uniform(100, 110, 100)]
        )
        category = np.array(["common"] * 700 + ["medium"] * 400 + ["rare"] * 100, dtype=object)
        from repro import Table

        table = Table.from_dict({"x": np.round(x, 2), "category": category}, name="sep")
        # Fine-grained bins (min_points well below the group sizes) so the
        # synopsis can actually tell the categories apart.
        params = PairwiseHistParams(sample_size=None, min_points=30, seed=0)
        return PairwiseHistEngine.from_table(table, params=params)

    def test_empty_group_dropped_with_count(self, separated_engine):
        results = separated_engine.execute(
            "SELECT COUNT(x) FROM sep WHERE x > 50 GROUP BY category"
        )
        assert "rare" in results
        assert "common" not in results
        assert "medium" not in results

    def test_empty_group_dropped_without_count_aggregation(self, separated_engine):
        # No COUNT in the SELECT list: the engine estimates COUNT(*) over
        # the group's predicate to decide whether the group is empty.
        results = separated_engine.execute(
            "SELECT AVG(x) FROM sep WHERE x > 50 GROUP BY category"
        )
        assert "rare" in results
        assert "common" not in results
        assert "medium" not in results

    def test_non_empty_groups_survive(self, separated_engine):
        results = separated_engine.execute("SELECT COUNT(x) FROM sep GROUP BY category")
        assert set(results) == {"common", "medium", "rare"}


class TestCountStar:
    def test_count_star_no_predicate(self, simple_engine, simple_table):
        result = simple_engine.execute_scalar("SELECT COUNT(*) FROM simple")
        assert result.value == pytest.approx(simple_table.num_rows, rel=0.02)

    def test_count_star_with_predicate(self, simple_engine, simple_exact):
        sql = "SELECT COUNT(*) FROM simple WHERE x > 40"
        result = simple_engine.execute_scalar(sql)
        truth = simple_exact.execute_scalar(parse_query(sql))
        assert result.value == pytest.approx(truth, rel=0.05)

    def test_multiple_aggregations_in_one_query(self, simple_engine):
        results = simple_engine.execute("SELECT COUNT(x), AVG(x), SUM(x) FROM simple WHERE x > 50")
        assert len(results) == 3
        count, avg, total = (r.value for r in results)
        assert total == pytest.approx(count * avg, rel=0.05)
