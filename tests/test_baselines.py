"""Tests for the baseline AQP systems (DeepDB-like, DBEst++-like, adapter)."""

import numpy as np
import pytest

from repro import parse_query
from repro.baselines import (
    BaselineResult,
    BinnedRegression,
    DBEstPlusPlusLike,
    DeepDBLike,
    GaussianMixture1D,
    UnsupportedQueryError,
)
from repro.baselines.spn import HistogramLeaf, SumProductNetwork
from repro.bench import ServedSystem
from repro.exactdb.executor import ExactQueryEngine


# --------------------------------------------------------------------------- #
# Density building blocks


class TestGaussianMixture:
    def test_fits_bimodal_data(self):
        rng = np.random.default_rng(0)
        values = np.concatenate([rng.normal(-5, 1, 2000), rng.normal(5, 1, 2000)])
        gmm = GaussianMixture1D(num_components=2, seed=0).fit(values)
        assert sorted(np.round(gmm.means)) == pytest.approx([-5, 5], abs=1)

    def test_probability_of_full_range_is_one(self):
        rng = np.random.default_rng(1)
        gmm = GaussianMixture1D(num_components=3).fit(rng.normal(0, 1, 1000))
        assert gmm.probability(-100, 100) == pytest.approx(1.0, abs=1e-3)

    def test_probability_monotone_in_range(self):
        rng = np.random.default_rng(2)
        gmm = GaussianMixture1D(num_components=3).fit(rng.normal(0, 1, 1000))
        assert gmm.probability(-1, 1) <= gmm.probability(-2, 2)

    def test_empty_range_probability_zero(self):
        gmm = GaussianMixture1D().fit(np.arange(100.0))
        assert gmm.probability(10, 5) == 0.0

    def test_handles_constant_data(self):
        gmm = GaussianMixture1D(num_components=4).fit(np.full(100, 3.0))
        assert gmm.probability(2.9, 3.1) > 0.9

    def test_storage_bytes_scale_with_components(self):
        small = GaussianMixture1D(num_components=2).fit(np.arange(50.0))
        large = GaussianMixture1D(num_components=8).fit(np.arange(400.0))
        assert large.storage_bytes() > small.storage_bytes()


class TestBinnedRegression:
    def test_recovers_linear_relationship(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 10, 5000)
        y = 3 * x + rng.normal(0, 0.5, 5000)
        reg = BinnedRegression(num_bins=32).fit(x, y)
        assert reg.predict(2.0) == pytest.approx(6.0, abs=0.5)
        assert reg.predict(8.0) == pytest.approx(24.0, abs=0.5)

    def test_handles_empty_input(self):
        reg = BinnedRegression().fit(np.array([]), np.array([]))
        assert reg.predict(1.0) == 0.0

    def test_bin_centres_length(self):
        reg = BinnedRegression(num_bins=16).fit(np.arange(100.0), np.arange(100.0))
        assert len(reg.bin_centres()) == 16


# --------------------------------------------------------------------------- #
# SPN


class TestSpn:
    @pytest.fixture(scope="class")
    def spn(self, simple_table):
        columns = {name: simple_table.column(name) for name in simple_table.column_names}
        return SumProductNetwork.learn(
            columns, categorical={"category"}, population_rows=simple_table.num_rows
        )

    def test_probability_of_true_predicate_is_one(self, spn):
        assert spn.expectation({}, {}) == pytest.approx(1.0, abs=0.05)

    def test_probability_matches_marginal(self, spn, simple_table):
        from repro.sql.ast import ComparisonOp, Condition

        condition = Condition("x", ComparisonOp.LT, 50.0)
        probability = spn.expectation({}, {"x": [condition]})
        truth = float((simple_table.column("x") < 50).mean())
        assert probability == pytest.approx(truth, abs=0.05)

    def test_mean_expectation_close_to_truth(self, spn, simple_table):
        mean_mass = spn.expectation({"x": "mean"}, {})
        assert mean_mass == pytest.approx(simple_table.column("x").mean(), rel=0.1)

    def test_storage_accounting_positive(self, spn):
        assert spn.storage_bytes() > 0

    def test_leaf_categorical_probabilities(self, simple_table):
        leaf = HistogramLeaf.fit_categorical("category", simple_table.column("category"))
        from repro.sql.ast import ComparisonOp, Condition

        prob = leaf.expectation("prob", Condition("category", ComparisonOp.EQ, "alpha"))
        truth = float(np.mean([v == "alpha" for v in simple_table.column("category")]))
        assert prob == pytest.approx(truth, abs=0.02)


# --------------------------------------------------------------------------- #
# System-level behaviour


@pytest.fixture(scope="module")
def deepdb(simple_table):
    return DeepDBLike.fit(simple_table, sample_size=1500)


@pytest.fixture(scope="module")
def dbest(simple_table):
    return DBEstPlusPlusLike.fit(
        simple_table, sample_size=800, templates=[("y", "x"), ("x", "z")]
    )


@pytest.fixture(scope="module")
def adapter(simple_engine):
    return ServedSystem(backend=simple_engine, engine=simple_engine)


class TestDeepDBLike:
    def test_count_accuracy(self, deepdb, simple_table):
        query = parse_query("SELECT COUNT(x) FROM simple WHERE x > 40")
        result = deepdb.estimate(query)
        truth = float((simple_table.column("x") > 40).sum())
        assert result.value == pytest.approx(truth, rel=0.1)

    def test_avg_accuracy(self, deepdb, simple_table):
        query = parse_query("SELECT AVG(y) FROM simple WHERE x < 60")
        result = deepdb.estimate(query)
        mask = simple_table.column("x") < 60
        assert result.value == pytest.approx(simple_table.column("y")[mask].mean(), rel=0.15)

    def test_rejects_or_predicates(self, deepdb):
        with pytest.raises(UnsupportedQueryError):
            deepdb.estimate(parse_query("SELECT COUNT(x) FROM simple WHERE x < 10 OR x > 90"))

    @pytest.mark.parametrize("func", ["MIN", "MAX", "MEDIAN", "VAR"])
    def test_rejects_unsupported_aggregations(self, deepdb, func):
        with pytest.raises(UnsupportedQueryError):
            deepdb.estimate(parse_query(f"SELECT {func}(x) FROM simple WHERE x > 10"))

    def test_provides_bounds(self, deepdb):
        result = deepdb.estimate(parse_query("SELECT COUNT(x) FROM simple WHERE x > 40"))
        assert result.has_bounds
        assert result.lower <= result.value <= result.upper

    def test_reports_construction_and_size(self, deepdb):
        assert deepdb.construction_seconds > 0
        assert deepdb.synopsis_bytes() > 0


class TestDBEstPlusPlusLike:
    def test_count_accuracy(self, dbest, simple_table):
        query = parse_query("SELECT COUNT(y) FROM simple WHERE x > 30 AND x < 70")
        result = dbest.estimate(query)
        x = simple_table.column("x")
        truth = float(((x > 30) & (x < 70)).sum())
        assert result.value == pytest.approx(truth, rel=0.25)

    def test_avg_accuracy(self, dbest, simple_table):
        query = parse_query("SELECT AVG(y) FROM simple WHERE x > 30 AND x < 70")
        result = dbest.estimate(query)
        x = simple_table.column("x")
        mask = (x > 30) & (x < 70)
        assert result.value == pytest.approx(simple_table.column("y")[mask].mean(), rel=0.2)

    def test_rejects_multi_column_predicates(self, dbest):
        with pytest.raises(UnsupportedQueryError):
            dbest.estimate(parse_query("SELECT AVG(y) FROM simple WHERE x > 10 AND z < 5"))

    def test_rejects_missing_template(self, dbest):
        with pytest.raises(UnsupportedQueryError):
            dbest.estimate(parse_query("SELECT AVG(z) FROM simple WHERE y > 10"))

    def test_rejects_or_and_unsupported_functions(self, dbest):
        with pytest.raises(UnsupportedQueryError):
            dbest.estimate(parse_query("SELECT AVG(y) FROM simple WHERE x < 10 OR x > 90"))
        with pytest.raises(UnsupportedQueryError):
            dbest.estimate(parse_query("SELECT MEDIAN(y) FROM simple WHERE x > 10"))

    def test_no_bounds_provided(self, dbest):
        result = dbest.estimate(parse_query("SELECT COUNT(y) FROM simple WHERE x > 50"))
        assert not result.has_bounds

    def test_template_count_and_size(self, dbest):
        assert dbest.num_templates == 2
        assert dbest.synopsis_bytes() > 0

    def test_default_templates_cover_all_numeric_pairs(self, simple_table):
        system = DBEstPlusPlusLike.fit(simple_table.head(400), sample_size=300)
        numeric = len(simple_table.schema.numeric_names)
        assert system.num_templates == numeric * (numeric - 1)


class TestPairwiseHistAdapter:
    def test_estimate_matches_engine(self, adapter, simple_engine):
        query = parse_query("SELECT AVG(x) FROM simple WHERE y > 100")
        adapted = adapter.estimate(query)
        direct = simple_engine.execute_scalar(query)
        assert adapted.value == pytest.approx(direct.value)
        assert adapted.lower == pytest.approx(direct.lower)

    def test_reports_size_and_time(self, adapter):
        assert adapter.synopsis_bytes() > 0
        assert adapter.construction_seconds > 0

    def test_group_by_unsupported_through_adapter(self, adapter):
        with pytest.raises(UnsupportedQueryError):
            adapter.estimate(parse_query("SELECT COUNT(x) FROM simple GROUP BY category"))

    def test_fit_classmethod(self, simple_table):
        system = ServedSystem.serve(simple_table, sample_size=800)
        assert system.name == "PairwiseHist"
        assert system.construction_seconds > 0
        assert system.synopsis_bytes() > 0
        result = system.estimate(parse_query("SELECT COUNT(x) FROM simple WHERE x > 0"))
        assert result.value > 0


class TestBaselineResult:
    def test_has_bounds(self):
        assert BaselineResult(1.0, 0.0, 2.0).has_bounds
        assert not BaselineResult(1.0).has_bounds

    def test_baselines_vs_exact_on_shared_queries(self, deepdb, adapter, simple_table):
        exact = ExactQueryEngine(simple_table)
        queries = [
            "SELECT COUNT(x) FROM simple WHERE y > 80",
            "SELECT AVG(x) FROM simple WHERE y > 80",
        ]
        for sql in queries:
            query = parse_query(sql)
            truth = exact.execute_scalar(query)
            for system in (deepdb, adapter):
                estimate = system.estimate(query).value
                assert estimate == pytest.approx(truth, rel=0.25)
