"""Smoke tests for the benchmark harness and experiment classes (tiny scale),
and the three checks that license running the paper's tables through
``QueryService``: a one-partition service *is* the monolithic engine, the
bench scores exactly as ``benchmarks/e2e`` does, and the accuracy sweep is
the same experiment at more settings."""

import hashlib
import sys
from concurrent.futures import Future
from pathlib import Path

import pytest
from conftest import make_simple_table

from repro import PairwiseHistEngine, PairwiseHistParams, PartitionedStore, QueryService
from repro.bench import (
    AblationGDSeeding,
    AblationStorageEncoding,
    SCALES,
    AccuracySweep,
    ExperimentScale,
    Fig9ParameterSensitivity,
    Fig10RealVsIdebench,
    ServedSystem,
    Table1Qualitative,
    experiments,
    format_table,
    workload_templates,
)
from repro.core.serialization import serialize
from repro.data.datasets import load_dataset
from repro.workload import QueryGenerator, WorkloadSpec, run

TINY_STATEMENTS = 8


@pytest.fixture(scope="module")
def tiny_scale():
    """Few rows and, for the length of this module, few statements."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiments, "STATEMENTS", TINY_STATEMENTS)
        patch.setattr(experiments, "FIG8_STATEMENTS", TINY_STATEMENTS)
        yield ExperimentScale(
            dataset_rows=2_500,
            scaled_rows=3_000,
            sample_large=1_200,
            sample_small=800,
            sample_tiny=400,
            seed=3,
        )


class TestHarness:
    def test_scales_available(self):
        assert SCALES["smoke"].dataset_rows < SCALES["default"].dataset_rows
        assert SCALES["paper"].dataset_rows > SCALES["default"].dataset_rows
        assert SCALES["default"] == ExperimentScale()

    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [["1", "2"], ["333", "4"]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        # Title + header + separator + two data rows.
        assert len(lines) == 5
        assert all(len(line) == len(lines[1]) for line in lines[2:])

    def test_workload_templates_extracted(self, power_table):
        spec = WorkloadSpec.initial_experiments(num_queries=10, seed=1)
        queries = QueryGenerator(power_table, spec).generate()
        templates = workload_templates(queries)
        assert len(templates) == len(set(templates))
        for agg, pred in templates:
            assert agg != pred
            assert agg in power_table.column_names
            assert pred in power_table.column_names

    def test_generate_workload_and_scaled_dataset(self, tiny_scale):
        scaled = experiments.scaled_run(tiny_scale, "power")
        assert scaled.table.num_rows == tiny_scale.scaled_rows
        assert list(scaled.systems) == ["PairwiseHist", "PairwiseHist (deployed)", "DeepDB", "DBEst++"]
        # One workload for every system, fitted and scored once per process.
        assert {len(s) for s in scaled.summaries.values()} == {len(scaled.summaries["DeepDB"])}
        assert 0 < scaled.summaries["PairwiseHist"].n <= TINY_STATEMENTS
        assert experiments.scaled_run(tiny_scale, "power") is scaled

    def test_served_system_configurations(self, simple_table):
        paper = ServedSystem.serve(simple_table, sample_size=800)
        deployed = ServedSystem.serve(simple_table, "deployed", partitions=4)
        assert paper.backend.table("simple").num_partitions == 1
        assert paper.backend.table("simple").params.sample_size == 800
        assert deployed.backend.table("simple").num_partitions == 4
        assert deployed.backend.table("simple").params.sample_size is None
        assert deployed.compressed_bytes() > 0
        with pytest.raises(ValueError, match="unknown configuration"):
            ServedSystem.serve(simple_table, "monolith")


class TestExperimentsSmoke:
    def test_table1_qualitative(self, tiny_scale):
        experiment = Table1Qualitative(scale=tiny_scale)
        text = experiment.render()
        assert "PairwiseHist (measured)" in text
        assert "DeepDB" in text
        assert f"n = {experiment.results['n']:.0f}" in text

    def test_ablation_storage_encoding(self, tiny_scale):
        experiment = AblationStorageEncoding(scale=tiny_scale, dataset="power")
        results = experiment.run()
        assert results["adaptive_mb"] <= results["dense_only_mb"]
        assert "savings" in experiment.render()

    def test_ablation_gd_seeding(self, tiny_scale):
        experiment = AblationGDSeeding(scale=tiny_scale, dataset="gas")
        results = experiment.run()
        assert set(results) == {"GD-seeded (with compression)", "Min/max seeded (stand-alone)"}
        for values in results.values():
            assert values["median_error_percent"] < 50.0

    def test_fig9_sensitivity_structure(self, tiny_scale):
        experiment = Fig9ParameterSensitivity(
            scale=tiny_scale,
            dataset="power",
            min_points_fractions=(0.02, 0.1),
            series=(("small, alpha=0.01", "small", 0.01),),
        )
        results = experiment.run()
        assert len(results) == 1
        points = next(iter(results.values()))
        assert len(points) == 2
        # Larger M must not produce a larger synopsis.
        assert points[1]["synopsis_mb"] <= points[0]["synopsis_mb"] + 1e-6

    def test_fig10_real_vs_idebench(self, tiny_scale):
        experiment = Fig10RealVsIdebench(scale=tiny_scale, datasets=("power",))
        results = experiment.run()
        row = results["power"]
        errors = {"PairwiseHist Real", "PairwiseHist IDEBench", "DeepDB Real", "DeepDB IDEBench"}
        assert set(row) == errors | {"n Real", "n IDEBench"}
        assert all(row[label] < 100 for label in errors)
        assert 0 < row["n Real"] <= TINY_STATEMENTS


# --------------------------------------------------------------------------- #
# What licenses deleting the monolith adapter and the second scorer


def _digest(engine: PairwiseHistEngine) -> str:
    return hashlib.sha256(serialize(engine.synopsis, exact=True)).hexdigest()


@pytest.mark.parametrize("sample_size", [250, None], ids=["sampled", "unsampled"])
@pytest.mark.parametrize("dataset", ["power", "flights", "simple"])
def test_one_partition_service_is_the_monolithic_engine(dataset, sample_size):
    """The ``paper`` configuration is ``PairwiseHistEngine.from_table`` bit
    for bit: serialized synopsis and every answer with its bounds."""
    # Few rows: the pure-Python exact serializer, not the build, is the cost.
    if dataset == "simple":
        table = make_simple_table(rows=1_000, seed=5)
    else:
        table = load_dataset(dataset, rows=1_000 if dataset == "power" else 400, seed=5)
    params = PairwiseHistParams.with_defaults(sample_size=sample_size, seed=2)
    engine = PairwiseHistEngine.from_table(table, params=params)
    served = ServedSystem.serve(table, params=params)
    assert isinstance(served.backend, QueryService)
    assert served.backend.table(table.name).num_partitions == 1
    assert _digest(served.engine) == _digest(engine)
    assert served.compressed_bytes() == PartitionedStore.compress(table, table.num_rows).compressed_bytes()
    spec = WorkloadSpec.scaled_experiments(num_queries=40, seed=5)
    for query in QueryGenerator(table, spec).generate():
        ours, theirs = served.estimate(query), engine.execute_scalar(query)
        for field in ("value", "lower", "upper"):
            assert getattr(ours, field).hex() == getattr(theirs, field).hex(), (str(query), field)


class _InProcessClient:
    """What ``benchmarks/e2e``'s rounds need of a wire client, answered by a
    service in this process."""

    timeout = 1.0

    def __init__(self, service: QueryService) -> None:
        self.service = service

    def submit_query(self, sql, _trace) -> Future:
        result = self.service.execute_scalar(sql)
        future: Future = Future()
        future.set_result(
            {"results": [{"value": result.value, "lower": result.lower, "upper": result.upper}]}
        )
        return future


def test_bench_scores_exactly_as_the_e2e_benchmark_does(power_table):
    """Same answers, same n, hit rate and median error: the bench's ``run`` +
    ``score`` against ``benchmarks/e2e``'s ``_accuracy`` filter + ``stats.score``."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks" / "e2e"))
    import lifecycle

    spec = WorkloadSpec.scaled_experiments(num_queries=150, seed=4)
    queries = QueryGenerator(power_table, spec).generate()
    served = ServedSystem.serve(power_table, "deployed", partitions=3)
    summary = run(served, power_table, queries)

    sqls = [str(q) for q in queries]
    inputs = lifecycle.Inputs(power_table, [], queries, sqls, sqls)
    theirs = lifecycle._accuracy(_InProcessClient(served.backend), inputs, power_table, lifecycle.Ops())

    assert 0 < summary.n < len(queries)  # some truths are unusable, on both sides
    assert summary.n == theirs["statements"]
    assert summary.bounds_correct_rate_percent() / 100.0 == pytest.approx(theirs["bound_hit_rate"], rel=1e-12)
    assert summary.median_error_percent() == pytest.approx(theirs["median_rel_error_pct"], rel=1e-12)
    assert summary.fraction_below(0.05) <= theirs["within_5pct"]  # e2e counts == 5% as within


def test_accuracy_sweep_is_the_same_experiment_at_more_settings(power_table):
    spec = WorkloadSpec.scaled_experiments(num_queries=60, seed=6)
    queries = QueryGenerator(power_table, spec).generate()
    sweep = AccuracySweep(power_table, queries, partition_counts=(1, 5))
    results = sweep.run()
    assert list(results) == [1, 5]
    assert results[1].n == results[5].n > 0
    # Its rows are ``run`` on the deployed configuration, nothing else.
    direct = run(ServedSystem.serve(power_table, "deployed", partitions=5), power_table, queries)
    assert [r.estimate.hex() for r in results[5].records] == [r.estimate.hex() for r in direct.records]
    assert results[5].bounds_correct_rate_percent() == direct.bounds_correct_rate_percent()
    by_predicates = results[1].by("predicates")
    assert set(by_predicates) <= {1, 2, 3, 4, 5}
    assert sum(s.n for s in by_predicates.values()) == results[1].n
    text = sweep.render()
    for heading in ("partitions", "By predicate count, 1 partition(s)", "By function, 1 partition(s)"):
        assert heading in text
    assert f"{results[1].n}" in text and "zero-width and wrong" in text
