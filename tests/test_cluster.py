"""Cluster subsystem tests: routing, gather math, edge cases, crash recovery.

The invariants pinned here:

* routing is a pure, deterministic function of row content;
* a 1-shard cluster answers *bit-identically* to a single-node service;
* gather math matches the algebra (COUNT/SUM add, AVG weighted, VAR exact
  decomposition, MIN/MAX envelopes, GROUP BY union, conservative bounds);
* empty shards — never-registered or group-absent — gather cleanly;
* a crashed worker is revived with recovery on the next touch (ingest or
  query), and ``kill -9`` of a worker loses nothing durable;
* a whole-cluster restart from the ``CLUSTER`` manifest recovers every
  shard and the routing catalog.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from conftest import make_simple_table
from hypothesis import given, settings, strategies as st

from repro import (
    ClusterQueryService,
    PairwiseHistParams,
    QueryService,
    parse_query,
)
from repro.cluster.gather import (
    GatherPlan,
    gather_groups,
    gather_scalar,
    plan_query,
    predicate_range,
)
from repro.cluster.router import ShardRouter
from repro.cluster.service import shard_params
from repro.core.aggregation import AqpEstimate
from repro.data.table import Table
from repro.sql.ast import AggregateFunction

PARAMS = PairwiseHistParams.with_defaults(sample_size=None, seed=1)
PARTITION_SIZE = 500


def sensors(rows=1200, seed=3, name="sensors"):
    return make_simple_table(rows=rows, seed=seed, name=name)


QUERIES = [
    "SELECT COUNT(*) FROM sensors",
    "SELECT COUNT(x) FROM sensors WHERE x > 25",
    "SELECT SUM(z) FROM sensors WHERE x < 50",
    "SELECT AVG(x) FROM sensors WHERE y > 45",
    "SELECT MIN(x) FROM sensors WHERE x > 30",
    "SELECT MAX(y) FROM sensors WHERE x < 50",
    "SELECT MEDIAN(x) FROM sensors WHERE y > 50",
    "SELECT VAR(x) FROM sensors WHERE x > 10",
    "SELECT AVG(with_nulls) FROM sensors WHERE x > 40",
]


# --------------------------------------------------------------------------- #
# Router


class TestShardRouter:
    def test_routing_is_deterministic_across_instances(self):
        table = sensors()
        a = ShardRouter(4).shard_of_rows(table)
        b = ShardRouter(4).shard_of_rows(table)
        np.testing.assert_array_equal(a, b)

    def test_routing_depends_on_content_not_position(self):
        table = sensors()
        owners = ShardRouter(4).shard_of_rows(table)
        perm = np.random.default_rng(0).permutation(table.num_rows)
        shuffled_owners = ShardRouter(4).shard_of_rows(table.select_rows(perm))
        np.testing.assert_array_equal(shuffled_owners, owners[perm])

    def test_split_partitions_all_rows(self):
        table = sensors()
        parts = ShardRouter(3).split(table)
        assert sum(p.num_rows for p in parts if p is not None) == table.num_rows

    def test_split_is_roughly_balanced(self):
        table = sensors(rows=4000)
        parts = ShardRouter(2).split(table)
        sizes = [p.num_rows for p in parts]
        assert min(sizes) > 0.4 * table.num_rows

    def test_single_shard_routes_everything_to_shard_zero(self):
        table = sensors(rows=50)
        parts = ShardRouter(1).split(table)
        assert len(parts) == 1 and parts[0].num_rows == 50

    def test_nan_and_null_rows_route_deterministically(self):
        table = Table.from_dict(
            {"v": [float("nan"), 1.0, float("nan")], "c": [None, "a", None]},
            name="edge",
        )
        a = ShardRouter(5).shard_of_rows(table)
        b = ShardRouter(5).shard_of_rows(table)
        np.testing.assert_array_equal(a, b)
        assert a[0] == a[2]  # identical content -> identical placement

    def test_negative_zero_routes_like_zero(self):
        plus = Table.from_dict({"v": [0.0]}, name="edge")
        minus = Table.from_dict({"v": [-0.0]}, name="edge")
        router = ShardRouter(7)
        assert router.shard_of_rows(plus)[0] == router.shard_of_rows(minus)[0]

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError, match="at least one shard"):
            ShardRouter(0)


# --------------------------------------------------------------------------- #
# Gather planning + recombination algebra


def answer(value, lower=None, upper=None):
    return AqpEstimate(
        value=value,
        lower=value if lower is None else lower,
        upper=value if upper is None else upper,
    )


class TestGatherPlan:
    def test_avg_gets_count_companion_in_same_query(self):
        plan = plan_query(parse_query("SELECT AVG(x) FROM t WHERE y > 3"))
        aggs = plan.scattered.aggregations
        assert [a.func for a in aggs] == [AggregateFunction.AVG, AggregateFunction.COUNT]
        assert aggs[1].column == "x"
        assert plan.count_index == (1,)

    def test_var_gets_count_and_avg_companions(self):
        plan = plan_query(parse_query("SELECT VAR(x) FROM t"))
        funcs = [a.func for a in plan.scattered.aggregations]
        assert funcs == [
            AggregateFunction.VAR,
            AggregateFunction.COUNT,
            AggregateFunction.AVG,
        ]
        assert plan.mean_index == (2,)

    def test_existing_count_is_reused_not_duplicated(self):
        plan = plan_query(parse_query("SELECT AVG(x), COUNT(x) FROM t"))
        assert len(plan.scattered.aggregations) == 2
        assert plan.count_index == (1, None)

    def test_count_and_sum_need_no_companions(self):
        plan = plan_query(parse_query("SELECT COUNT(*), SUM(x) FROM t WHERE x > 1"))
        assert plan.scattered.aggregations == plan.original.aggregations

    def test_scattered_query_round_trips_through_sql(self):
        plan = plan_query(parse_query("SELECT AVG(x) FROM t WHERE y > 3 GROUP BY c"))
        reparsed = parse_query(str(plan.scattered))
        assert reparsed.aggregations == plan.scattered.aggregations
        assert reparsed.group_by == "c"


class TestPredicateRange:
    def test_conjunctive_bounds(self):
        query = parse_query("SELECT MIN(x) FROM t WHERE x > 30 AND x < 70 AND y > 2")
        assert predicate_range(query, "x") == (30.0, 70.0)
        assert predicate_range(query, "y") == (2.0, math.inf)

    def test_disjunction_disables_clamping(self):
        query = parse_query("SELECT MIN(x) FROM t WHERE x < 20 OR x > 80")
        assert predicate_range(query, "x") == (-math.inf, math.inf)

    def test_no_predicate(self):
        query = parse_query("SELECT MIN(x) FROM t")
        assert predicate_range(query, "x") == (-math.inf, math.inf)


def _scalar(plan_sql: str, shard_rows):
    plan = plan_query(parse_query(plan_sql))
    return plan, gather_scalar(plan, shard_rows)


class TestGatherAlgebra:
    def test_count_and_sum_add_values_and_bounds(self):
        plan, [count, total] = _scalar(
            "SELECT COUNT(*), SUM(x) FROM t",
            [
                [answer(10, 9, 11), answer(100, 90, 110)],
                [answer(20, 19, 21), answer(50, 45, 55)],
            ],
        )
        assert (count.value, count.lower, count.upper) == (30, 28, 32)
        assert (total.value, total.lower, total.upper) == (150, 135, 165)

    def test_avg_recombines_count_weighted(self):
        plan, [avg] = _scalar(
            "SELECT AVG(x) FROM t",
            [
                [answer(10.0, 9.0, 11.0), answer(100)],  # avg, count companion
                [answer(40.0, 38.0, 42.0), answer(300)],
            ],
        )
        assert avg.value == pytest.approx((100 * 10.0 + 300 * 40.0) / 400)
        assert (avg.lower, avg.upper) == (9.0, 42.0)  # conservative envelope

    def test_var_uses_exact_decomposition(self):
        rng = np.random.default_rng(5)
        a, b = rng.normal(0, 1, 400), rng.normal(3, 2, 600)
        plan, [var] = _scalar(
            "SELECT VAR(x) FROM t",
            [
                [answer(a.var()), answer(len(a)), answer(a.mean())],
                [answer(b.var()), answer(len(b)), answer(b.mean())],
            ],
        )
        pooled = np.concatenate([a, b]).var()
        assert var.value == pytest.approx(pooled, rel=1e-12)

    def test_min_max_take_envelopes(self):
        plan, [low, high] = _scalar(
            "SELECT MIN(x), MAX(x) FROM t",
            [
                [answer(5, 4, 6), answer(90, 88, 92)],
                [answer(7, 6, 8), answer(95, 93, 97)],
            ],
        )
        assert (low.value, low.lower, low.upper) == (5, 4, 6)
        assert (high.value, high.lower, high.upper) == (95, 93, 97)

    def test_min_clamps_into_predicate_range(self):
        plan, [low] = _scalar(
            "SELECT MIN(x) FROM t WHERE x > 30",
            [[answer(28.9, 28.0, 29.5)], [answer(30.4, 30.1, 30.9)]],
        )
        # An estimate below the predicate floor is impossible; the gather
        # pulls it back to what the query guarantees.
        assert low.value == 30.0 and low.lower == 30.0

    def test_no_clamp_under_disjunction(self):
        plan, [low] = _scalar(
            "SELECT MIN(x) FROM t WHERE x < 20 OR x > 80",
            [[answer(5.0)], [answer(7.0)]],
        )
        assert low.value == 5.0

    def test_single_contributing_shard_is_identity(self):
        original = [answer(12.5, 11.0, 13.0), answer(77, 70, 84)]
        plan, [avg] = _scalar("SELECT AVG(x) FROM t WHERE x > 30", [original, None])
        assert (avg.value, avg.lower, avg.upper) == (12.5, 11.0, 13.0)

    def test_zero_counts_fall_back_to_unweighted_mean(self):
        plan, [avg] = _scalar(
            "SELECT AVG(x) FROM t",
            [[answer(10.0, 8.0, 12.0), answer(0)], [answer(20.0, 18.0, 22.0), answer(0)]],
        )
        assert avg.value == pytest.approx(15.0)
        assert (avg.lower, avg.upper) == (8.0, 22.0)

    def test_all_shards_empty_raises(self):
        plan = plan_query(parse_query("SELECT COUNT(*) FROM t"))
        with pytest.raises(ValueError, match="no shard"):
            gather_scalar(plan, [None, None])

    def test_group_union_with_absent_groups(self):
        plan = plan_query(parse_query("SELECT COUNT(*) FROM t GROUP BY c"))
        groups = gather_groups(
            plan,
            [
                {"a": [answer(10, 9, 11)], "b": [answer(5, 4, 6)]},
                {"a": [answer(20, 19, 21)], "c": [answer(7, 6, 8)]},
                None,  # shard without the table at all
            ],
        )
        assert sorted(groups) == ["a", "b", "c"]
        assert groups["a"][0].value == 30
        assert groups["b"][0].value == 5  # single-shard passthrough
        assert groups["c"][0].value == 7
        assert all(r[0].group == label for label, r in groups.items())


_FINITE = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
#: Ordered answers ``lower <= value <= upper``, zero-width ones included.
_ORDERED = st.one_of(
    _FINITE.map(answer),
    st.lists(_FINITE, min_size=3, max_size=3).map(sorted).map(
        lambda t: answer(t[1], t[0], t[2])
    ),
)
_WEIGHT = st.one_of(
    st.integers(min_value=0, max_value=5_000).map(float),
    st.floats(min_value=0.0, max_value=5_000.0, allow_nan=False),
)


class TestGatheredValueInsideItsInterval:
    @given(st.sampled_from(list(AggregateFunction)), st.data())
    @settings(max_examples=300, deadline=None)
    def test_value_between_bounds(self, func, data):
        plan = plan_query(parse_query(f"SELECT {func.value}(x) FROM t"))
        shards = data.draw(st.integers(min_value=2, max_value=4))
        # Shards often send the same answer (hash routing makes them samples
        # of one distribution); a weighted mean of equal values still rounds.
        shared = [data.draw(_ORDERED) for _ in plan.scattered.aggregations]
        rows = []
        for _ in range(shards):
            row = [data.draw(st.just(same) | _ORDERED) for same in shared]
            if plan.count_index[0] is not None:
                row[plan.count_index[0]] = answer(data.draw(_WEIGHT))
            rows.append(row)
        [gathered] = gather_scalar(plan, rows)
        assert gathered.lower <= gathered.value <= gathered.upper


class TestShardParams:
    def test_scales_sample_and_min_points(self):
        scaled = shard_params(PairwiseHistParams(sample_size=9000, min_points=900), 4)
        assert scaled.sample_size == 2250
        assert scaled.min_points == 225

    def test_single_shard_and_none_pass_through(self):
        params = PairwiseHistParams(sample_size=None, min_points=1000)
        assert shard_params(params, 1) is params
        assert shard_params(None, 3) is None


# --------------------------------------------------------------------------- #
# Local (in-process) cluster semantics


@pytest.fixture(scope="module")
def single_node():
    service = QueryService(partition_size=PARTITION_SIZE)
    service.register_table(sensors(), params=PARAMS)
    return service


@pytest.fixture(scope="module")
def one_shard_cluster():
    cluster = ClusterQueryService(
        num_shards=1, mode="local", partition_size=PARTITION_SIZE
    )
    cluster.register_table(sensors(), params=PARAMS)
    return cluster


class TestSingleShardEqualsSingleNode:
    def test_scalar_answers_bit_identical(self, single_node, one_shard_cluster):
        for sql in QUERIES:
            a = single_node.execute_scalar(sql)
            b = one_shard_cluster.execute_scalar(sql)
            assert (a.value, a.lower, a.upper) == (b.value, b.lower, b.upper), sql

    def test_group_by_bit_identical(self, single_node, one_shard_cluster):
        sql = "SELECT AVG(x), COUNT(*) FROM sensors GROUP BY category"
        a = single_node.execute(sql)
        b = one_shard_cluster.execute(sql)
        assert sorted(a) == sorted(b)
        for label in a:
            for left, right in zip(a[label], b[label]):
                assert (left.value, left.lower, left.upper) == (
                    right.value,
                    right.lower,
                    right.upper,
                )

    def test_identity_survives_ingest(self, single_node, one_shard_cluster):
        batch = sensors(rows=300, seed=9)
        single_node.ingest("sensors", batch)
        one_shard_cluster.ingest("sensors", batch)
        for sql in QUERIES[:4]:
            a = single_node.execute_scalar(sql)
            b = one_shard_cluster.execute_scalar(sql)
            assert (a.value, a.lower, a.upper) == (b.value, b.lower, b.upper), sql


class TestLocalCluster:
    @pytest.fixture()
    def cluster(self):
        cluster = ClusterQueryService(
            num_shards=2, mode="local", partition_size=PARTITION_SIZE
        )
        cluster.register_table(sensors(), params=PARAMS)
        return cluster

    def test_rows_fan_out_and_queries_gather(self, cluster):
        entry = cluster.table("sensors")
        assert entry.registered == {0, 1}
        per_shard = [shard.service.table("sensors").num_rows for shard in cluster.shards]
        assert sum(per_shard) == 1200 and all(n > 0 for n in per_shard)
        count = cluster.execute_scalar("SELECT COUNT(*) FROM sensors")
        assert count.value == pytest.approx(1200, rel=0.01)

    def test_ingest_routes_by_hash(self, cluster):
        batch = sensors(rows=400, seed=11)
        result = cluster.ingest("sensors", batch)
        assert result.appended_rows == 400
        assert sum(result.shard_rows.values()) == 400
        assert cluster.table("sensors").rows == 1600

    def test_lazy_shard_registration_on_first_routed_rows(self):
        cluster = ClusterQueryService(
            num_shards=2, mode="local", partition_size=PARTITION_SIZE
        )
        table = sensors(rows=600, seed=21)
        owners = cluster.router.shard_of_rows(table)
        skewed = table.select_rows(np.flatnonzero(owners == 0))
        assert skewed.num_rows > 0
        cluster.register_table(skewed, params=PARAMS)
        assert cluster.table("sensors").registered == {0}
        # Queries gather over the single populated shard.
        count = cluster.execute_scalar("SELECT COUNT(*) FROM sensors")
        assert count.value == pytest.approx(skewed.num_rows, rel=0.01)
        # The first ingest whose rows hash to shard 1 registers it lazily.
        cluster.ingest("sensors", sensors(rows=400, seed=22))
        assert cluster.table("sensors").registered == {0, 1}
        total = skewed.num_rows + 400
        count = cluster.execute_scalar("SELECT COUNT(*) FROM sensors")
        assert count.value == pytest.approx(total, rel=0.01)

    def test_empty_shard_group_by_gather(self):
        """GROUP BY over a table living on a strict subset of the shards."""
        cluster = ClusterQueryService(
            num_shards=3, mode="local", partition_size=PARTITION_SIZE
        )
        table = sensors(rows=900, seed=23)
        owners = cluster.router.shard_of_rows(table)
        partial = table.select_rows(np.flatnonzero(owners != 2))
        cluster.register_table(partial, params=PARAMS)
        assert cluster.table("sensors").registered == {0, 1}
        groups = cluster.execute("SELECT COUNT(*) FROM sensors GROUP BY category")
        assert set(groups) <= {"alpha", "beta", "gamma", "delta"}
        assert "alpha" in groups
        total = sum(r[0].value for r in groups.values())
        assert total == pytest.approx(partial.num_rows, rel=0.05)

    def test_execute_scalar_refuses_group_by_before_scattering(self, cluster):
        def scatters() -> int:
            return cluster.metrics()["aqp_scatter_fanout"]["series"][0]["count"]

        before = scatters()
        with pytest.raises(ValueError, match="execute_scalar does not support GROUP BY queries"):
            cluster.execute_scalar("SELECT COUNT(*) FROM sensors GROUP BY category")
        assert scatters() == before

    def test_error_semantics_match_single_node(self, cluster):
        with pytest.raises(KeyError, match="no table named"):
            cluster.execute_scalar("SELECT COUNT(*) FROM nope")
        with pytest.raises(TypeError, match="needs a Table"):
            cluster.ingest("sensors", [1, 2, 3])
        with pytest.raises(ValueError, match="do not match its schema"):
            cluster.ingest(
                "sensors", Table.from_dict({"wrong": [1.0]}, name="sensors")
            )
        with pytest.raises(ValueError, match="already registered"):
            cluster.register_table(sensors())

    def test_drop_table(self, cluster):
        cluster.drop_table("sensors")
        assert "sensors" not in cluster
        for shard in cluster.shards:
            assert shard.call("tables") == []

    def test_accuracy_tracks_single_node(self, cluster, single_node):
        from repro.exactdb.executor import ExactQueryEngine

        exact = ExactQueryEngine(sensors())
        for sql in QUERIES:
            truth = exact.execute_scalar(parse_query(sql))
            estimate = cluster.execute_scalar(sql)
            denominator = abs(truth) if truth != 0 else 1.0
            assert abs(estimate.value - truth) / denominator < 0.15, sql
            assert estimate.lower <= estimate.value <= estimate.upper


class TestDurableLocalCluster:
    def test_restart_recovers_catalog_and_answers(self, tmp_path):
        root = tmp_path / "cluster"
        cluster = ClusterQueryService(
            num_shards=2, mode="local", path=root, partition_size=PARTITION_SIZE
        )
        cluster.register_table(sensors(), params=PARAMS)
        cluster.ingest("sensors", sensors(rows=300, seed=31))
        expected = [
            (r.value, r.lower, r.upper)
            for r in (cluster.execute_scalar(sql) for sql in QUERIES)
        ]
        cluster.checkpoint()
        cluster.close()

        reopened = ClusterQueryService.open(root, mode="local")
        assert reopened.table_names == ["sensors"]
        assert reopened.table("sensors").registered == {0, 1}
        got = [
            (r.value, r.lower, r.upper)
            for r in (reopened.execute_scalar(sql) for sql in QUERIES)
        ]
        assert got == expected
        # The recovered cluster keeps ingesting + routing correctly.
        reopened.ingest("sensors", sensors(rows=200, seed=32))
        assert reopened.execute_scalar("SELECT COUNT(*) FROM sensors").value > 0
        reopened.close()

    def test_fresh_directory_requires_constructor(self, tmp_path):
        with pytest.raises(ValueError, match="no cluster manifest"):
            ClusterQueryService.open(tmp_path / "void", mode="local")

    def test_populated_directory_requires_open(self, tmp_path):
        root = tmp_path / "cluster"
        ClusterQueryService(num_shards=2, mode="local", path=root).close()
        with pytest.raises(ValueError, match="ClusterQueryService.open"):
            ClusterQueryService(num_shards=2, mode="local", path=root)

    def test_shard_count_is_pinned_by_the_manifest(self, tmp_path):
        root = tmp_path / "cluster"
        ClusterQueryService(num_shards=2, mode="local", path=root).close()
        with pytest.raises(ValueError, match="shard count is part of the routing"):
            ClusterQueryService.open(root, mode="local", expected_shards=3)


# --------------------------------------------------------------------------- #
# Subprocess cluster: full-process smoke + kill -9 recovery (the CI smoke job)


@pytest.mark.slow
class TestProcessClusterSmoke:
    def test_boot_ingest_query_kill_recover(self, tmp_path):
        """The 2-shard cluster smoke drill: boot, ingest, query, kill -9 a
        worker, verify the revived worker recovered everything durable."""
        root = tmp_path / "cluster"
        cluster = ClusterQueryService(
            num_shards=2,
            path=root,
            mode="process",
            partition_size=PARTITION_SIZE,
        )
        try:
            cluster.register_table(sensors(), params=PARAMS)
            cluster.ingest("sensors", sensors(rows=300, seed=41))
            cluster.checkpoint()
            cluster.ingest("sensors", sensors(rows=200, seed=42))  # WAL-only tail
            for lsn in cluster.persist():
                assert lsn >= 1
            before = [
                (r.value, r.lower, r.upper)
                for r in (cluster.execute_scalar(sql) for sql in QUERIES)
            ]

            # kill -9 one worker mid-fleet; the next query revives it and
            # the replacement recovers snapshot + WAL tail before serving.
            cluster.supervisor.kill(0)
            assert not cluster.supervisor.is_alive(0)
            after = [
                (r.value, r.lower, r.upper)
                for r in (cluster.execute_scalar(sql) for sql in QUERIES)
            ]
            assert after == before
            assert cluster.supervisor.ping(0)

            # Ingest routed to a crashed-and-restarting shard: kill again,
            # then ingest — the fan-out revives the worker and appends.
            cluster.supervisor.kill(1)
            result = cluster.ingest("sensors", sensors(rows=200, seed=43))
            assert result.appended_rows == 200
            assert cluster.supervisor.ping(1)
            count = cluster.execute_scalar("SELECT COUNT(*) FROM sensors")
            assert count.value == pytest.approx(1900, rel=0.02)
        finally:
            cluster.close()

        # Whole-cluster restart from the manifest: every shard recovers.
        reopened = ClusterQueryService.open(root, mode="process")
        try:
            assert reopened.table_names == ["sensors"]
            assert reopened.table("sensors").registered == {0, 1}
            count = reopened.execute_scalar("SELECT COUNT(*) FROM sensors")
            assert count.value == pytest.approx(1900, rel=0.02)
        finally:
            reopened.close()

    def test_commit_without_ack_is_not_double_applied(self, tmp_path):
        """The nastiest ingest window: every worker WAL-commits its slice
        and dies *before* acknowledging.  The front end must not blindly
        re-send (that would double-apply); it checks the revived worker's
        actual row count and synthesizes the acknowledgement instead."""
        root = tmp_path / "cluster"
        cluster = ClusterQueryService(
            num_shards=2,
            path=root,
            mode="process",
            partition_size=PARTITION_SIZE,
            crash_point="server.ingest.before_ack",
        )
        try:
            cluster.register_table(sensors(), params=PARAMS)
            # Replacement workers must come up unarmed or they die again.
            cluster.supervisor.crash_point = None
            result = cluster.ingest("sensors", sensors(rows=300, seed=51))
            assert result.appended_rows == 300
            assert sum(result.shard_rows.values()) == 300
            count = cluster.execute_scalar("SELECT COUNT(*) FROM sensors")
            assert count.value == pytest.approx(1500, rel=0.02)  # exactly once
            # Front-end bookkeeping agrees with each worker's durable truth.
            entry = cluster.table("sensors")
            for index, shard in enumerate(cluster.shards):
                assert shard.call("stat", "sensors")["rows"] == entry.shard_rows[index]
        finally:
            cluster.close()

    def test_process_cluster_matches_local_cluster_exactly(self, tmp_path):
        """The wire changes nothing: subprocess shards answer identically
        to in-process shards built from the same rows and params."""
        local = ClusterQueryService(
            num_shards=2, mode="local", partition_size=PARTITION_SIZE
        )
        local.register_table(sensors(), params=PARAMS)
        process = ClusterQueryService(
            num_shards=2, mode="process", partition_size=PARTITION_SIZE
        )
        try:
            process.register_table(sensors(), params=PARAMS)
            for sql in QUERIES:
                a = local.execute_scalar(sql)
                b = process.execute_scalar(sql)
                assert (a.value, a.lower, a.upper) == (b.value, b.lower, b.upper), sql
        finally:
            process.close()
