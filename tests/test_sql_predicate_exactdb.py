"""Tests for vectorised predicate evaluation and the exact query engine."""

import numpy as np
import pytest

from repro.exactdb.executor import ExactQueryEngine
from repro.sql.parser import parse_predicate, parse_query
from repro.sql.predicate import condition_mask, predicate_mask, selectivity


@pytest.fixture(scope="module")
def columns():
    return {
        "x": np.array([1.0, 2.0, 3.0, 4.0, np.nan]),
        "y": np.array([10.0, 20.0, 30.0, 40.0, 50.0]),
        "label": np.array(["a", "b", "a", None, "c"], dtype=object),
    }


class TestConditionMask:
    def test_numeric_comparisons(self, columns):
        assert condition_mask(parse_predicate("x > 2"), columns).tolist() == [
            False, False, True, True, False]
        assert condition_mask(parse_predicate("x <= 2"), columns).tolist() == [
            True, True, False, False, False]

    def test_nan_never_matches(self, columns):
        for text in ["x > 0", "x < 100", "x != 3"]:
            assert not condition_mask(parse_predicate(text), columns)[4]

    def test_categorical_equality(self, columns):
        assert condition_mask(parse_predicate("label = 'a'"), columns).tolist() == [
            True, False, True, False, False]

    def test_categorical_inequality_excludes_null(self, columns):
        mask = condition_mask(parse_predicate("label != 'a'"), columns)
        assert mask.tolist() == [False, True, False, False, True]

    def test_unknown_column_raises(self, columns):
        with pytest.raises(KeyError):
            condition_mask(parse_predicate("missing > 1"), columns)


class TestPredicateMask:
    def test_and(self, columns):
        mask = predicate_mask(parse_predicate("x > 1 AND y < 40"), columns)
        assert mask.tolist() == [False, True, True, False, False]

    def test_or(self, columns):
        mask = predicate_mask(parse_predicate("x < 2 OR y >= 50"), columns)
        assert mask.tolist() == [True, False, False, False, True]

    def test_nested_precedence(self, columns):
        mask = predicate_mask(parse_predicate("x > 3 OR x < 2 AND y < 15"), columns)
        assert mask.tolist() == [True, False, False, True, False]

    def test_none_predicate_matches_all(self, columns):
        assert predicate_mask(None, columns).all()

    def test_selectivity(self, columns):
        assert selectivity(parse_predicate("x > 2"), columns) == pytest.approx(0.4)
        assert selectivity(None, columns) == 1.0


class TestExactEngine:
    @pytest.fixture(scope="class")
    def engine(self, simple_table):
        return ExactQueryEngine(simple_table)

    def test_count_matches_numpy(self, engine, simple_table):
        result = engine.execute_scalar(parse_query("SELECT COUNT(x) FROM simple WHERE x > 50"))
        expected = float((simple_table.column("x") > 50).sum())
        assert result == expected

    def test_count_star_includes_all_matching_rows(self, engine, simple_table):
        result = engine.execute_scalar(parse_query("SELECT COUNT(*) FROM simple WHERE x > 50"))
        assert result == float((simple_table.column("x") > 50).sum())

    def test_avg(self, engine, simple_table):
        result = engine.execute_scalar(parse_query("SELECT AVG(y) FROM simple WHERE x <= 25"))
        mask = simple_table.column("x") <= 25
        assert result == pytest.approx(simple_table.column("y")[mask].mean())

    def test_sum_ignores_nulls(self, engine, simple_table):
        result = engine.execute_scalar(parse_query("SELECT SUM(with_nulls) FROM simple WHERE x > 0"))
        expected = np.nansum(simple_table.column("with_nulls"))
        assert result == pytest.approx(expected)

    @pytest.mark.parametrize("func,npfunc", [
        ("MIN", np.min), ("MAX", np.max), ("MEDIAN", np.median), ("VAR", np.var),
    ])
    def test_order_statistics(self, engine, simple_table, func, npfunc):
        result = engine.execute_scalar(parse_query(f"SELECT {func}(z) FROM simple WHERE x > 10"))
        mask = simple_table.column("x") > 10
        assert result == pytest.approx(npfunc(simple_table.column("z")[mask]))

    def test_empty_predicate_returns_nan(self, engine):
        result = engine.execute_scalar(parse_query("SELECT AVG(x) FROM simple WHERE x > 1e9"))
        assert np.isnan(result)

    def test_empty_count_is_zero(self, engine):
        assert engine.execute_scalar(parse_query("SELECT COUNT(x) FROM simple WHERE x > 1e9")) == 0.0

    def test_group_by(self, engine, simple_table):
        results = engine.execute(parse_query("SELECT COUNT(x) FROM simple GROUP BY category"))
        assert isinstance(results, dict)
        total = sum(r[0].value for r in results.values())
        assert total == simple_table.num_rows
        assert set(results) == {"alpha", "beta", "gamma", "delta"}

    def test_group_by_rejected_by_execute_scalar(self, engine):
        with pytest.raises(ValueError):
            engine.execute_scalar(parse_query("SELECT COUNT(x) FROM simple GROUP BY category"))

    def test_categorical_aggregation_other_than_count_rejected(self, engine):
        with pytest.raises(ValueError):
            engine.execute(parse_query("SELECT AVG(category) FROM simple"))

    def test_count_on_categorical_allowed(self, engine, simple_table):
        result = engine.execute_scalar(parse_query("SELECT COUNT(category) FROM simple"))
        assert result == simple_table.num_rows

    def test_unknown_table_raises(self, simple_table, power_table):
        # With several tables registered there is no unambiguous fallback,
        # so an unknown table name must raise.
        engine = ExactQueryEngine({"simple": simple_table, "power": power_table})
        with pytest.raises(KeyError):
            engine.execute(parse_query("SELECT COUNT(x) FROM unknown_table"))

    def test_single_table_engine_is_lenient_about_table_name(self, simple_table):
        engine = ExactQueryEngine(simple_table)
        value = engine.execute_scalar(parse_query("SELECT COUNT(x) FROM any_name"))
        assert value == simple_table.num_rows

    def test_multiple_aggregations(self, engine):
        results = engine.execute(parse_query("SELECT COUNT(x), AVG(x) FROM simple WHERE x > 50"))
        assert len(results) == 2
        assert results[0].value > 0
        assert results[0].rows_matched == int(results[0].value)

    def test_register_additional_table(self, engine, power_table):
        engine.register(power_table)
        assert "power" in engine.table_names
        value = engine.execute_scalar(parse_query("SELECT COUNT(voltage) FROM power"))
        assert value == power_table.num_rows
