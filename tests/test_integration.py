"""Integration tests: the full pipeline on the paper's datasets.

These exercise the complete flow the paper describes in Fig. 2 — raw table
-> GreedyGD compression -> PairwiseHist construction -> SQL queries with
bounds -> results in the original data domain — and check aggregate error
levels in the same spirit as the evaluation (§6), at laptop scale.
"""

import numpy as np
import pytest

from repro import (
    ExactQueryEngine,
    PairwiseHistEngine,
    PairwiseHistParams,
    PartitionedStore,
    load_dataset,
    parse_query,
    scale_dataset,
)
from repro.baselines import DeepDBLike
from repro.bench import ServedSystem
from repro.workload import QueryGenerator, WorkloadSpec, run


class TestEndToEndAccuracy:
    @pytest.mark.parametrize("dataset", ["power", "gas", "light", "temp"])
    def test_median_error_below_five_percent(self, dataset):
        table = load_dataset(dataset, rows=6000, seed=11)
        params = PairwiseHistParams.with_defaults(sample_size=4000, seed=1)
        system = ServedSystem.serve(table, params=params)
        spec = WorkloadSpec.initial_experiments(num_queries=25, seed=11)
        queries = QueryGenerator(table, spec).generate()
        summary = run(system, table, queries)
        assert summary.median_error_percent() < 5.0

    def test_all_seven_aggregations_on_power(self, power_engine, power_exact):
        sqls = {
            "COUNT": "SELECT COUNT(voltage) FROM power WHERE voltage > 240",
            "SUM": "SELECT SUM(global_active_power) FROM power WHERE hour < 12",
            "AVG": "SELECT AVG(global_intensity) FROM power WHERE voltage < 242",
            "MIN": "SELECT MIN(voltage) FROM power WHERE global_active_power > 1",
            "MAX": "SELECT MAX(voltage) FROM power WHERE global_active_power > 1",
            "MEDIAN": "SELECT MEDIAN(global_active_power) FROM power WHERE hour > 6",
            "VAR": "SELECT VAR(global_active_power) FROM power WHERE hour > 6",
        }
        for name, sql in sqls.items():
            estimate = power_engine.execute_scalar(sql)
            truth = power_exact.execute_scalar(parse_query(sql))
            assert np.isfinite(estimate.value), name
            relative = abs(estimate.value - truth) / max(abs(truth), 1e-9)
            limit = 0.35 if name in ("VAR",) else 0.15
            assert relative < limit, f"{name}: {estimate.value} vs {truth}"

    def test_multi_predicate_and_or_mix(self, power_engine, power_exact):
        sql = (
            "SELECT AVG(global_active_power) FROM power "
            "WHERE voltage > 238 AND voltage < 243 AND hour >= 6 OR hour < 2"
        )
        estimate = power_engine.execute_scalar(sql)
        truth = power_exact.execute_scalar(parse_query(sql))
        assert estimate.value == pytest.approx(truth, rel=0.1)

    def test_flights_dataset_with_categoricals_and_nulls(self, flights_table):
        params = PairwiseHistParams.with_defaults(sample_size=2000, seed=2)
        engine = PairwiseHistEngine.from_table(flights_table, params=params)
        exact = ExactQueryEngine(flights_table)
        sqls = [
            "SELECT COUNT(distance) FROM flights WHERE distance > 500",
            "SELECT AVG(arrival_delay) FROM flights WHERE distance > 300 AND distance < 2000",
            "SELECT COUNT(air_time) FROM flights WHERE airline = 'AA'",
        ]
        for sql in sqls:
            estimate = engine.execute_scalar(sql)
            truth = exact.execute_scalar(parse_query(sql))
            assert estimate.value == pytest.approx(truth, rel=0.2), sql


class TestCompressionIntegration:
    def test_compressed_framework_total_storage_smaller_than_raw(self, power_table):
        params = PairwiseHistParams.with_defaults(sample_size=3000, seed=1)
        engine = PairwiseHistEngine.from_table(power_table, params=params, use_compression=True)
        raw = power_table.memory_bytes()
        store = PartitionedStore.compress(power_table, power_table.num_rows)
        total = store.compressed_bytes() + engine.synopsis_bytes()
        assert total < raw

    def test_with_and_without_compression_agree(self, power_table, power_exact):
        params = PairwiseHistParams.with_defaults(sample_size=3000, seed=1)
        compressed = PairwiseHistEngine.from_table(power_table, params=params, use_compression=True)
        standalone = PairwiseHistEngine.from_table(power_table, params=params, use_compression=False)
        sql = "SELECT AVG(voltage) FROM power WHERE global_active_power > 1"
        truth = power_exact.execute_scalar(parse_query(sql))
        for engine in (compressed, standalone):
            assert engine.execute_scalar(sql).value == pytest.approx(truth, rel=0.05)


class TestScaledWorkflow:
    def test_idebench_scaled_pipeline(self, power_table):
        scaled = scale_dataset(power_table, rows=12_000, seed=5, name="power_scaled")
        params = PairwiseHistParams.with_defaults(sample_size=4000, seed=5)
        system = ServedSystem.serve(scaled, params=params)
        spec = WorkloadSpec.scaled_experiments(num_queries=20, seed=5)
        queries = QueryGenerator(scaled, spec).generate()
        summary = run(system, scaled, queries)
        assert 0 < summary.n == len(summary) <= len(queries)
        assert summary.median_error_percent() < 10.0

    def test_pairwisehist_beats_deepdb_on_latency(self, power_table):
        params = PairwiseHistParams.with_defaults(sample_size=3000, seed=6)
        ph = ServedSystem.serve(power_table, params=params)
        dd = DeepDBLike.fit(power_table, sample_size=3000)
        spec = WorkloadSpec.initial_experiments(num_queries=15, seed=6)
        queries = QueryGenerator(power_table, spec).generate()
        ph_summary = run(ph, power_table, queries)
        dd_summary = run(dd, power_table, queries)
        assert ph_summary.median_latency_ms() < dd_summary.median_latency_ms()

    def test_group_by_pipeline_against_exact(self, flights_table):
        params = PairwiseHistParams.with_defaults(sample_size=2000, seed=7)
        engine = PairwiseHistEngine.from_table(flights_table, params=params)
        exact = ExactQueryEngine(flights_table)
        sql = "SELECT COUNT(distance) FROM flights WHERE distance > 200 GROUP BY airline"
        approx = engine.execute(sql)
        truth = exact.execute(parse_query(sql))
        common = set(approx) & set(truth)
        assert len(common) >= 5
        big_groups = [g for g in common if truth[g][0].value > 100]
        for group in big_groups:
            assert approx[group][0].value == pytest.approx(truth[group][0].value, rel=0.3)
