"""Golden accuracy regression: frozen dataset, 20 queries, frozen error bars.

The paper's headline result (Fig. 8) is PairwiseHist's relative error at
a given synopsis size.  This test freezes a deterministic dataset and 20
representative queries through the partitioned service stack, with a
per-query relative-error ceiling ~2.5-3x the error measured when the
bound was frozen — so a future refactor of the builder, merge, or service
layers cannot silently degrade accuracy.  Exact truths are recomputed at
runtime (they are a property of the frozen dataset, not of the engine).

Known weakness, frozen as-is: merged categorical histograms smear counts
across small categories (see ROADMAP "per-category marginal sketch"), so
the two categorical-equality queries carry deliberately loose ceilings —
they still catch *further* degradation.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import make_simple_table

from repro import PairwiseHistParams, QueryService, parse_query
from repro.cluster import ClusterQueryService
from repro.exactdb.executor import ExactQueryEngine

ROWS = 4_000
SEED = 77
PARTITION_SIZE = 1_000

#: (sql, max relative error). Bounds frozen 2026-07 against the PR 2 stack.
GOLDEN_QUERIES = [
    ("SELECT COUNT(*) FROM golden", 0.005),
    ("SELECT COUNT(x) FROM golden WHERE x > 25", 0.010),
    ("SELECT COUNT(x) FROM golden WHERE x > 10 AND x < 90", 0.010),
    ("SELECT COUNT(*) FROM golden WHERE category = 'alpha'", 0.350),
    ("SELECT COUNT(*) FROM golden WHERE category = 'delta'", 1.500),
    ("SELECT COUNT(x) FROM golden WHERE x < 20 OR x > 80", 0.010),
    ("SELECT COUNT(w) FROM golden WHERE w >= 5", 0.005),
    ("SELECT AVG(x) FROM golden", 0.005),
    ("SELECT AVG(x) FROM golden WHERE y > 100", 0.005),
    ("SELECT AVG(y) FROM golden WHERE x > 20 AND x < 60", 0.010),
    ("SELECT AVG(z) FROM golden WHERE z < 30", 0.005),
    ("SELECT AVG(x) FROM golden WHERE category = 'beta'", 0.060),
    ("SELECT SUM(x) FROM golden", 0.005),
    ("SELECT SUM(z) FROM golden WHERE x < 70", 0.080),
    ("SELECT SUM(y) FROM golden WHERE w < 4", 0.010),
    ("SELECT MIN(x) FROM golden WHERE x > 30", 0.030),
    ("SELECT MAX(y) FROM golden WHERE x < 50", 0.150),
    ("SELECT MEDIAN(x) FROM golden WHERE y > 50", 0.005),
    ("SELECT VAR(x) FROM golden WHERE x > 10", 0.015),
    ("SELECT AVG(with_nulls) FROM golden WHERE x > 40", 0.005),
]

#: Whole-workload regression bars (Fig. 8 reports the median).
MEDIAN_ERROR_CEILING = 0.010
BOUNDS_CORRECT_FLOOR = 0.60

#: 2-shard per-query ceilings, frozen 2026-07 against the PR 5 gather
#: (~2.5x measured); everything absent here must meet the single-node
#: ceiling unchanged.  ``AVG(z) WHERE z < 30`` was frozen at 0.005 for one
#: 4000-row synopsis; two independent 2000-row synopses have intrinsically
#: higher estimator variance.
SHARDED_CEILING_OVERRIDES = {
    "SELECT AVG(z) FROM golden WHERE z < 30": 0.020,
}


@pytest.fixture(scope="module")
def golden_setup():
    table = make_simple_table(rows=ROWS, seed=SEED, name="golden")
    service = QueryService(partition_size=PARTITION_SIZE)
    service.register_table(
        table, params=PairwiseHistParams.with_defaults(sample_size=None, seed=1)
    )
    return service, ExactQueryEngine(table)


def relative_error(estimate: float, truth: float) -> float:
    denominator = abs(truth) if truth != 0 else 1.0
    return abs(estimate - truth) / denominator


@pytest.mark.parametrize("sql,ceiling", GOLDEN_QUERIES)
def test_golden_query_within_frozen_error_bound(golden_setup, sql, ceiling):
    service, exact = golden_setup
    estimate = service.execute_scalar(sql)
    truth = exact.execute_scalar(parse_query(sql))
    error = relative_error(estimate.value, truth)
    assert error <= ceiling, (
        f"{sql}: relative error {error:.4f} exceeds frozen ceiling {ceiling}"
        f" (truth={truth:.4f}, estimate={estimate.value:.4f})"
    )
    assert estimate.lower <= estimate.value <= estimate.upper


def test_golden_workload_median_error(golden_setup):
    service, exact = golden_setup
    errors = []
    in_bounds = []
    for sql, _ in GOLDEN_QUERIES:
        estimate = service.execute_scalar(sql)
        truth = exact.execute_scalar(parse_query(sql))
        errors.append(relative_error(estimate.value, truth))
        in_bounds.append(estimate.lower <= truth <= estimate.upper)
    median = float(np.median(errors))
    assert median <= MEDIAN_ERROR_CEILING, f"median error {median:.4f} regressed"
    rate = float(np.mean(in_bounds))
    assert rate >= BOUNDS_CORRECT_FLOOR, f"bounds-correct rate {rate:.2f} regressed"


def test_two_shard_gather_within_frozen_ceilings(golden_setup):
    """The scatter-gather answers stay inside the golden bars.  In-process
    shards suffice: ``tests/test_cluster.py`` pins subprocess shards to
    answer bit-identically to them."""
    _, exact = golden_setup
    cluster = ClusterQueryService(
        num_shards=2, mode="local", partition_size=PARTITION_SIZE
    )
    try:
        cluster.register_table(
            make_simple_table(rows=ROWS, seed=SEED, name="golden"),
            params=PairwiseHistParams.with_defaults(sample_size=None, seed=1),
        )
        errors = []
        for sql, ceiling in GOLDEN_QUERIES:
            estimate = cluster.execute_scalar(sql)
            truth = exact.execute_scalar(parse_query(sql))
            error = relative_error(estimate.value, truth)
            errors.append(error)
            allowed = max(ceiling, SHARDED_CEILING_OVERRIDES.get(sql, 0.0))
            assert error <= allowed, (
                f"{sql}: sharded relative error {error:.4f} exceeds ceiling "
                f"{allowed} (truth={truth:.4f}, estimate={estimate.value:.4f})"
            )
            assert estimate.lower <= estimate.value <= estimate.upper
        median = float(np.median(errors))
        assert median <= MEDIAN_ERROR_CEILING, f"sharded median error {median:.4f} regressed"
    finally:
        cluster.close()


def test_golden_accuracy_survives_ingest(golden_setup):
    """The frozen bars hold after the service refreshes its synopsis."""
    table = make_simple_table(rows=ROWS, seed=SEED, name="golden_stream")
    extra = make_simple_table(rows=500, seed=SEED + 1, name="golden_stream")
    service = QueryService(partition_size=PARTITION_SIZE)
    service.register_table(
        table, params=PairwiseHistParams.with_defaults(sample_size=None, seed=1)
    )
    service.ingest("golden_stream", extra)
    exact = ExactQueryEngine(table.concat(extra))
    for sql in (
        "SELECT COUNT(*) FROM golden_stream",
        "SELECT AVG(x) FROM golden_stream WHERE y > 100",
        "SELECT SUM(y) FROM golden_stream WHERE w < 4",
    ):
        estimate = service.execute_scalar(sql)
        truth = exact.execute_scalar(parse_query(sql))
        assert relative_error(estimate.value, truth) <= 0.02
