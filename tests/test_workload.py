"""Tests for workload generation, metrics and the runner."""

import numpy as np
import pytest

from repro.baselines import UnsupportedQueryError
from repro.bench import ServedSystem
from repro.sql.ast import AggregateFunction, predicate_conditions
from repro.sql.predicate import selectivity
from repro.workload import (
    QueryGenerator,
    QueryRecord,
    WorkloadSpec,
    WorkloadSummary,
    run,
    score,
    usable,
)

NAN, INF = float("nan"), float("inf")


class TestMetrics:
    def test_relative_error(self):
        assert score(110, 100, 120, 100)[0] == pytest.approx(0.1)
        # An exact 0 (the auditor meets them; the runner skips them) is
        # judged on the absolute error.
        assert score(100, 0, 200, 0)[0] == pytest.approx(100.0)
        assert not usable(0.0) and not usable(NAN) and usable(-3.0)

    def test_bounds_correct(self):
        assert score(100, 90, 110, 100)[1]
        assert not score(105, 101, 110, 100)[1]
        assert not score(100, NAN, 110, 100)[1]

    def test_no_answer_where_rows_exist_is_a_miss_everywhere(self):
        assert score(NAN, NAN, NAN, 100) == (INF, False)
        assert score(NAN, 0, 200, 100) == (INF, False)
        records = [
            QueryRecord("a", "COUNT", 100, 101, 95, 105),
            QueryRecord("b", "AVG", 50, NAN, NAN, NAN),
        ]
        summary = WorkloadSummary(records)
        # The NaN answer stays in the denominator of every reduction.
        assert summary.n == 2
        assert summary.bounds_correct_rate_percent() == pytest.approx(50.0)
        assert summary.fraction_below(0.05) == pytest.approx(0.5)
        assert summary.error_percentiles([99])[0] == INF
        # A system that reports no bounds at all (DBEst++) renders "-".
        unbounded = WorkloadSummary([QueryRecord("a", "COUNT", 100, 101)])
        assert np.isnan(unbounded.bounds_correct_rate_percent())
        assert np.isnan(unbounded.median_bound_width_percent())

    def test_bound_width_percent(self):
        record = QueryRecord("q", "COUNT", truth=100.0, estimate=100.0, lower=90.0, upper=110.0)
        assert record.bound_width_percent == pytest.approx(20.0)
        wrong = QueryRecord("q", "COUNT", truth=100.0, estimate=7.0, lower=7.0, upper=7.0)
        assert WorkloadSummary([record, wrong]).zero_width_and_wrong() == 1

    def test_query_record_properties(self):
        record = QueryRecord(
            sql="q", aggregation="COUNT", truth=100.0, estimate=105.0,
            lower=95.0, upper=110.0, latency_seconds=0.002,
        )
        assert record.relative_error == pytest.approx(0.05)
        assert record.bounds_correct
        assert record.bound_width_percent == pytest.approx(15.0)

    def test_summary_statistics(self):
        records = [
            QueryRecord("a", "COUNT", 100, 101, 95, 105, 0.001),
            QueryRecord("b", "AVG", 50, 60, 55, 65, 0.002),
            QueryRecord("c", "SUM", 10, float("nan"), supported=False),
        ]
        summary = WorkloadSummary(records)
        assert len(summary) == 3
        assert len(summary.supported_records) == 2
        assert summary.median_error_percent() == pytest.approx(10.5, abs=0.1)
        assert summary.median_latency_ms() == pytest.approx(1.5)
        assert summary.bounds_correct_rate_percent() == pytest.approx(50.0)
        assert summary.fraction_below(0.15) == pytest.approx(0.5)

    def test_summary_by_aggregation(self):
        records = [
            QueryRecord("a", "COUNT", 100, 101),
            QueryRecord("b", "COUNT", 100, 110),
            QueryRecord("c", "AVG", 50, 51),
        ]
        split = WorkloadSummary(records).by_aggregation()
        assert set(split) == {"COUNT", "AVG"}
        assert len(split["COUNT"]) == 2

    def test_error_percentiles_sorted(self):
        records = [QueryRecord(str(i), "COUNT", 100, 100 + i) for i in range(10)]
        summary = WorkloadSummary(records)
        percentiles = summary.error_percentiles([50, 90])
        assert percentiles[0] <= percentiles[1]

    def test_empty_summary_yields_nan(self):
        summary = WorkloadSummary()
        assert np.isnan(summary.median_error_percent())
        assert np.isnan(summary.median_latency_ms())


class TestQueryGenerator:
    def test_initial_spec_generates_single_predicate_queries(self, simple_table):
        spec = WorkloadSpec.initial_experiments(num_queries=25, seed=0)
        queries = QueryGenerator(simple_table, spec).generate()
        assert len(queries) == 25
        for query in queries:
            assert len(predicate_conditions(query.predicate)) == 1
            assert query.aggregation.func in {
                AggregateFunction.COUNT, AggregateFunction.SUM, AggregateFunction.AVG}

    def test_scaled_spec_generates_multi_predicate_queries(self, simple_table):
        spec = WorkloadSpec.scaled_experiments(num_queries=30, seed=1)
        queries = QueryGenerator(simple_table, spec).generate()
        assert len(queries) == 30
        counts = [len(predicate_conditions(q.predicate)) for q in queries]
        assert max(counts) > 1
        functions = {q.aggregation.func for q in queries}
        assert len(functions) >= 5

    def test_minimum_selectivity_enforced(self, simple_table):
        spec = WorkloadSpec(num_queries=20, min_selectivity=0.05, seed=2)
        queries = QueryGenerator(simple_table, spec).generate()
        assert len(queries) == 20
        for query in queries:
            assert selectivity(query.predicate, simple_table.columns) >= 0.05

    def test_short_workload_is_an_error(self, simple_table):
        # Single-predicate statements never select every row.
        spec = WorkloadSpec(num_queries=5, min_selectivity=1.0, seed=2)
        with pytest.raises(RuntimeError, match="came up short: 0 of 5"):
            QueryGenerator(simple_table, spec).generate()

    def test_generation_is_deterministic(self, simple_table):
        spec = WorkloadSpec.initial_experiments(num_queries=10, seed=3)
        a = [str(q) for q in QueryGenerator(simple_table, spec).generate()]
        b = [str(q) for q in QueryGenerator(simple_table, spec).generate()]
        assert a == b

    def test_aggregation_columns_are_numeric(self, simple_table):
        spec = WorkloadSpec.scaled_experiments(num_queries=20, seed=4)
        for query in QueryGenerator(simple_table, spec).generate():
            assert query.aggregation.column in simple_table.schema.numeric_names

    def test_requires_numeric_column(self):
        from repro.data.table import Table

        table = Table.from_dict({"only_cat": ["a", "b", "c"]})
        with pytest.raises(ValueError):
            QueryGenerator(table, WorkloadSpec())

    def test_queries_reference_existing_columns(self, power_table):
        spec = WorkloadSpec.scaled_experiments(num_queries=15, seed=5)
        for query in QueryGenerator(power_table, spec).generate():
            for column in query.columns:
                assert column in power_table.column_names


@pytest.fixture(scope="module")
def simple_system(simple_engine):
    return ServedSystem(backend=simple_engine, engine=simple_engine)


class TestWorkloadRunner:
    def test_run_produces_summary_with_latency(self, simple_table, simple_system):
        spec = WorkloadSpec.initial_experiments(num_queries=10, seed=6)
        queries = QueryGenerator(simple_table, spec).generate()
        summary = run(simple_system, simple_table, queries)
        assert len(summary) == summary.n == 10
        assert summary.median_latency_ms() > 0
        assert np.isfinite(summary.median_error_percent())
        assert [r.predicates for r in summary.records] == [1] * 10

    def test_unusable_truths_are_not_scored(self, simple_table, simple_system):
        from repro import parse_query

        queries = [
            parse_query("SELECT COUNT(x) FROM simple WHERE x > 50"),
            parse_query("SELECT COUNT(x) FROM simple WHERE x > 1000"),   # 0
            parse_query("SELECT AVG(x) FROM simple WHERE x > 1000"),     # empty
        ]
        summary = run(simple_system, simple_table, queries)
        assert [r.sql for r in summary.records] == [str(queries[0])]

    def test_unsupported_queries_are_recorded(self, simple_table):
        class RejectingSystem:
            name = "rejector"
            construction_seconds = 0.0

            def estimate(self, query):
                raise UnsupportedQueryError("nope")

            def synopsis_bytes(self):
                return 0

        spec = WorkloadSpec.initial_experiments(num_queries=5, seed=7)
        queries = QueryGenerator(simple_table, spec).generate()
        summary = run(RejectingSystem(), simple_table, queries)
        assert summary.n == 0
        assert len(summary) == 5

    def test_pairwisehist_beats_or_matches_nothing_baseline(self, simple_table, simple_system):
        # Sanity: the engine's median error on the generated workload is small.
        spec = WorkloadSpec.initial_experiments(num_queries=20, seed=9)
        queries = QueryGenerator(simple_table, spec).generate()
        summary = run(simple_system, simple_table, queries)
        assert summary.median_error_percent() < 10.0
