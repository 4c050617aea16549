"""Answer-quality observability tests: EXPLAIN, auditor, workload log.

What is pinned here:

* ``split_explain`` and the workload log's template normalization (the
  literal → ``?`` rendering dashboards and the auditor key on);
* the structured EXPLAIN plan, single node and cluster, in *both* frame
  forms and through the ``EXPLAIN <sql>`` SQL-prefix form — and the
  agreement guarantee: a single-node EXPLAIN's ``gather`` section equals
  the cluster front end's actual fan-out plan, and the scattered SQL the
  shards really receive is the one the plan printed;
* the accuracy auditor against the frozen golden dataset: its observed
  per-query relative errors equal the golden harness's reference errors
  **bit-for-bit** (same cached estimate, lossless GD reconstruction for
  the truth);
* the bound-violation alarm: a deliberately corrupted synopsis raises
  the violation counter and emits a structured ``bound_violation`` JSON
  alert, on a single node and in a 2-shard cluster drill where the
  daemon detects the seeded corruption within its audit interval while a
  healthy pre-filtered workload audits clean (zero violations);
* the satellites: ``/healthz`` / ``/readyz`` + build-info gauges on the
  metrics endpoint, and the size-rotated slow-query log.
"""

from __future__ import annotations

import asyncio
import io
import json
import time
import urllib.error
import urllib.request
from dataclasses import replace

import pytest
from conftest import make_simple_table
from test_golden_accuracy import (
    GOLDEN_QUERIES,
    PARTITION_SIZE,
    ROWS,
    SEED,
    relative_error,
)

from repro import (
    AccuracyAuditor,
    AsyncQueryService,
    ClusterQueryService,
    PairwiseHistParams,
    QueryServer,
    QueryService,
    WorkloadLog,
    __version__,
    parse_query,
)
from repro.audit.explain import gather_section, split_explain
from repro.audit.workload import normalize_sql
from repro.cluster.gather import plan_query
from repro.exactdb.executor import ExactQueryEngine
from repro.obs import log as obs_log
from repro.obs import metrics as obs_metrics
from repro.obs import tracing
from repro.obs.exposition import MetricsHTTPServer
from repro.service.config import ServeConfig
from repro.service.wire import PipelinedClient

PARAMS = PairwiseHistParams.with_defaults(sample_size=None, seed=1)


def counter_value(name: str, **labels) -> float:
    """Current value of one series in the global registry (0 if absent)."""
    snapshot = obs_metrics.REGISTRY.snapshot()
    for series in snapshot.get(name, {}).get("series", []):
        if series["labels"] == labels:
            return series["value"]
    return 0.0


def alert_events(stream: io.StringIO) -> list[dict]:
    return [
        json.loads(line)
        for line in stream.getvalue().splitlines()
        if line.startswith("{")
    ]


def corrupt_synopsis(service, table_name: str, column: str = "x") -> None:
    """Triple one histogram's counts and commit the sabotage.

    The GD store (the auditor's ground truth) is untouched, so estimates
    drift while exact recomputation stays correct — exactly the failure
    the auditor exists to catch.  Committing it the way an ingest does (a
    new table value with a new engine and a new version) makes the result
    cache and the auditor's truth cache both see a new synopsis generation.
    """
    managed = service.table(table_name)
    synopsis = managed.engine.synopsis
    synopsis.hist1d[column].counts *= 3.0
    service.database._commit(managed, engine=replace(managed.engine, synopsis=synopsis))


# --------------------------------------------------------------------------- #
# split_explain / normalization


class TestSplitExplain:
    def test_prefix_forms(self):
        assert split_explain("SELECT 1 FROM t") is None
        assert split_explain("EXPLAIN SELECT AVG(x) FROM t") == (
            False,
            "SELECT AVG(x) FROM t",
        )
        assert split_explain("  explain analyze\n SELECT COUNT(*) FROM t ") == (
            True,
            "SELECT COUNT(*) FROM t",
        )

    def test_normalize_sql_strips_literals(self):
        assert (
            normalize_sql("SELECT AVG(x) FROM t WHERE x > 10 AND y < 5.5")
            == "SELECT AVG(x) FROM t WHERE x > ? AND y < ?;"
        )
        # Same template regardless of the literal values.
        assert normalize_sql("SELECT AVG(x) FROM t WHERE x > 99 AND y < 1") == (
            normalize_sql("SELECT AVG(x) FROM t WHERE x > 10 AND y < 5.5")
        )


# --------------------------------------------------------------------------- #
# Workload log


class TestWorkloadLog:
    def test_observe_groups_by_template_and_keeps_last_sql(self):
        log = WorkloadLog(capacity=8)
        log.observe("SELECT AVG(x) FROM t WHERE x > 10", 0.010)
        log.observe("SELECT AVG(x) FROM t WHERE x > 20", 0.030)
        log.observe("SELECT COUNT(*) FROM t", 0.001)
        snapshot = log.snapshot()
        assert snapshot["capacity"] == 8 and snapshot["evicted"] == 0
        assert [t["template"] for t in snapshot["templates"]] == [
            "SELECT AVG(x) FROM t WHERE x > ?;",  # busiest first
            "SELECT COUNT(*) FROM t;",
        ]
        avg = snapshot["templates"][0]
        assert avg["count"] == 2
        assert avg["last_sql"] == "SELECT AVG(x) FROM t WHERE x > 20"
        assert avg["latency"]["total_seconds"] == pytest.approx(0.040)
        assert avg["latency"]["max_seconds"] == pytest.approx(0.030)

    def test_capacity_evicts_least_recently_used(self):
        log = WorkloadLog(capacity=2)
        log.observe("SELECT AVG(x) FROM t", 0.0)
        log.observe("SELECT AVG(y) FROM t", 0.0)
        log.observe("SELECT AVG(z) FROM t", 0.0)  # evicts AVG(x)
        snapshot = log.snapshot()
        templates = {t["template"] for t in snapshot["templates"]}
        assert templates == {"SELECT AVG(y) FROM t;", "SELECT AVG(z) FROM t;"}
        assert snapshot["evicted"] == 1

    def test_unparseable_sql_is_ignored(self):
        log = WorkloadLog()
        log.observe("this is not sql", 0.0)
        assert log.snapshot()["templates"] == []

    def test_replay_rotates_across_templates(self):
        log = WorkloadLog()
        for column in ("x", "y", "z"):
            log.observe(f"SELECT AVG({column}) FROM t", 0.0)
        first = log.replay_samples(2)
        second = log.replay_samples(2)
        assert len(first) == 2 and len(second) == 2
        # Round-robin: two passes of 2 cover all 3 templates.
        assert set(first) | set(second) == {
            "SELECT AVG(x) FROM t",
            "SELECT AVG(y) FROM t",
            "SELECT AVG(z) FROM t",
        }

    def test_record_audit_feeds_the_template_rollup(self):
        log = WorkloadLog()
        log.observe("SELECT AVG(x) FROM t WHERE x > 10", 0.0)
        log.record_audit("SELECT AVG(x) FROM t WHERE x > 99", 0.25, True)
        log.record_audit("SELECT AVG(x) FROM t WHERE x > 10", 0.05, False)
        audit = log.snapshot()["templates"][0]["audit"]
        assert audit == {
            "audited": 2,
            "violations": 1,
            "error_sum": pytest.approx(0.30),
            "error_max": 0.25,
        }

    def test_merge_snapshots_sums_counts_and_maxes_maxes(self):
        def shard_log(count, latency):
            log = WorkloadLog(capacity=4)
            for _ in range(count):
                log.observe("SELECT COUNT(*) FROM t", latency)
            return log.snapshot()

        merged = WorkloadLog.merge_snapshots([shard_log(2, 0.010), shard_log(3, 0.002)])
        assert merged["capacity"] == 4
        entry = merged["templates"][0]
        assert entry["count"] == 5
        assert entry["latency"]["total_seconds"] == pytest.approx(0.026)
        assert entry["latency"]["max_seconds"] == pytest.approx(0.010)


# --------------------------------------------------------------------------- #
# EXPLAIN: single node


@pytest.fixture(scope="module")
def golden():
    table = make_simple_table(rows=ROWS, seed=SEED, name="golden")
    service = QueryService(partition_size=PARTITION_SIZE)
    service.register_table(table, params=PARAMS)
    return service, table


class TestExplainSingleNode:
    def test_plan_structure_is_pinned(self, golden):
        service, _ = golden
        sql = "SELECT AVG(x) FROM golden WHERE x > 25"
        service.execute_scalar(sql)  # warm parse + result caches
        plan = service.explain(sql)
        assert plan["sql"] == sql
        assert plan["node"] == "single"
        assert plan["query"] == {
            "table": "golden",
            "aggregations": ["AVG(x)"],
            "predicate": "x > 25",
            "group_by": None,
            "template": "SELECT AVG(x) FROM golden WHERE x > ?;",
        }
        assert plan["parse_cache"] == {"cached": True}
        assert plan["result_cache"]["cached"] is True
        assert plan["route"]["table"] == "golden"
        assert plan["route"]["rows"] == ROWS
        assert plan["route"]["partitions"] == ROWS // PARTITION_SIZE
        assert plan["route"]["partition_synopses"] == ROWS // PARTITION_SIZE
        assert plan["route"]["synopsis_version"] == plan["result_cache"]["synopsis_version"]
        (synopsis,) = plan["synopsis"]
        assert synopsis["aggregation"] == "AVG(x)"
        assert synopsis["weightings_column"] == "x"
        assert synopsis["single_column"] is True
        assert synopsis["histogram_bins"] > 0
        assert synopsis["bounds"]["method"] == "affine_inverse"
        gather = plan["gather"]
        assert gather["scattered_sql"] == str(plan_query(parse_query(sql)).scattered)
        assert gather["scattered_aggregations"] == ["AVG(x)", "COUNT(x)"]
        (avg_entry,) = gather["aggregations"]
        assert avg_entry["aggregation"] == "AVG(x)"
        assert avg_entry["companion_count_index"] == 1
        # AVG clamps into the predicate's range on the aggregated column.
        assert avg_entry["clamp"] == {"lower": 25.0, "upper": None}

    def test_count_bounds_are_passthrough_and_unclamped(self, golden):
        service, _ = golden
        plan = service.explain("SELECT COUNT(x) FROM golden WHERE x > 25")
        (synopsis,) = plan["synopsis"]
        assert synopsis["bounds"] == {"method": "count_passthrough"}
        (entry,) = plan["gather"]["aggregations"]
        assert entry["clamp"] is None

    def test_explain_does_not_execute_or_perturb_caches(self, golden):
        service, _ = golden
        sql = "SELECT SUM(z) FROM golden WHERE z < 17.5"
        first = service.explain(sql)
        assert first["result_cache"]["cached"] is False
        second = service.explain(sql)
        # Still uncached: EXPLAIN peeked, it never executed ...
        assert second["result_cache"]["cached"] is False
        # ... though it did warm the parse cache.
        assert second["parse_cache"]["cached"] is True

    def test_explain_analyze_attaches_result_and_span_tree(self, golden):
        service, _ = golden
        sql = "SELECT AVG(y) FROM golden WHERE x > 20 AND x < 60"
        plan = service.explain(sql, analyze=True)
        analysis = plan["analyze"]
        assert analysis["wall_seconds"] > 0.0
        (result,) = analysis["result"]["results"]
        assert result["lower"] <= result["value"] <= result["upper"]
        spans = analysis["spans"]
        assert all(s["trace_id"] == analysis["trace_id"] for s in spans)
        names = {s["name"] for s in spans}
        assert "explain_analyze" in names
        root = next(s for s in spans if s["name"] == "explain_analyze")
        children = [s for s in spans if s["parent_id"] == root["span_id"]]
        assert children  # per-stage timings hang off the analyze root
        assert all(s["duration"] is not None for s in spans)


# --------------------------------------------------------------------------- #
# EXPLAIN: cluster agreement


class TestExplainClusterAgreement:
    def test_single_node_gather_equals_cluster_fanout_plan(self):
        sql = "SELECT AVG(x) FROM sensors WHERE x > 10 AND x < 90"
        single = QueryService()
        single.register_table(
            make_simple_table(rows=400, seed=5, name="sensors"), params=PARAMS
        )
        cluster = ClusterQueryService(num_shards=2, mode="local")
        try:
            cluster.register_table(
                make_simple_table(rows=1200, seed=21, name="sensors"), params=PARAMS
            )
            # Shard-side workload logs record what the shards *actually*
            # receive during a scattered execution.
            for shard in cluster.shards:
                shard.service.workload_log = WorkloadLog()
            cluster.execute(sql)

            single_plan = single.explain(sql)
            cluster_plan = cluster.explain(sql)
            assert cluster_plan["node"] == "cluster"
            assert cluster_plan["route"]["fanout"] == 2
            assert cluster_plan["route"]["shards"] == [0, 1]
            assert cluster_plan["route"]["rows"] == 1200
            assert sum(cluster_plan["route"]["shard_rows"].values()) == 1200
            # The agreement guarantee: same recombination plan both ways.
            assert single_plan["gather"] == cluster_plan["gather"]
            assert single_plan["query"]["template"] == cluster_plan["query"]["template"]
            # And the scattered SQL the workers really executed is the
            # one the plan printed (via each shard's workload log).
            scattered_template = normalize_sql(cluster_plan["gather"]["scattered_sql"])
            for shard in cluster.shards:
                templates = {
                    t["template"]
                    for t in shard.service.workload()["templates"]
                }
                assert templates == {scattered_template}
        finally:
            cluster.close()

    def test_gather_section_matches_planner_for_every_golden_query(self, golden):
        service, _ = golden
        for sql, _ceiling in GOLDEN_QUERIES:
            section = gather_section(parse_query(sql))
            assert section["scattered_sql"] == str(plan_query(parse_query(sql)).scattered)
            assert section == service.explain(sql)["gather"]


# --------------------------------------------------------------------------- #
# Accuracy auditor: golden bit-for-bit


class TestAuditorGolden:
    def test_auditor_errors_match_golden_reference_bit_for_bit(self):
        """On the frozen golden dataset the auditor's observed relative
        errors are the *same floats* the golden harness computes: the
        estimate comes from the shared result cache and the ground truth
        from lossless GD reconstruction of the same rows."""
        table = make_simple_table(rows=ROWS, seed=SEED, name="golden")
        service = QueryService(partition_size=PARTITION_SIZE)
        service.register_table(table, params=PARAMS)
        exact = ExactQueryEngine(table)
        alerts = io.StringIO()
        workload = WorkloadLog()
        service.workload_log = workload
        auditor = AccuracyAuditor(
            service,
            sample_rate=1.0,
            workload=workload,
            alert_stream=alerts,
            replay_limit=0,  # queue only: exactly one audit per query
        )
        service.auditor = auditor

        reference: dict[str, tuple[float, bool]] = {}
        for sql, _ceiling in GOLDEN_QUERIES:
            estimate = service.execute_scalar(sql)
            truth = exact.execute_scalar(parse_query(sql))
            reference[sql] = (
                relative_error(estimate.value, truth),
                not (estimate.lower <= truth <= estimate.upper),
            )

        audited = auditor.audit_now()
        assert audited == len(GOLDEN_QUERIES)
        observed = {record.sql: record for record in auditor.records}
        assert set(observed) == {sql for sql, _ in GOLDEN_QUERIES}
        for sql, (error, violated) in reference.items():
            record = observed[sql]
            assert record.error == error, f"{sql}: {record.error!r} != {error!r}"
            assert record.violated == violated
            assert record.table == "golden"
        # Counters agree with the harness's own bound bookkeeping.
        expected_violations = sum(1 for _, v in reference.values() if v)
        assert auditor.violations == expected_violations
        assert len(alert_events(alerts)) == expected_violations
        stats = auditor.stats()
        assert stats["error_max"] == max(e for e, _ in reference.values())

    def test_stats_merge_across_shards(self):
        healthy = {
            "enabled": True,
            "audited": 3,
            "violations": 0,
            "error_mean": 0.01,
            "error_max": 0.02,
        }
        sick = {
            "enabled": True,
            "audited": 1,
            "violations": 1,
            "error_mean": 0.5,
            "error_max": 0.5,
            "recent_violations": [{"sql": "SELECT COUNT(x) FROM t"}],
        }
        merged = AccuracyAuditor.merge_stats([healthy, sick])
        assert merged["enabled"] is True
        assert merged["shards"] == 2
        assert merged["audited"] == 4 and merged["violations"] == 1
        assert merged["error_max"] == 0.5
        assert merged["error_mean"] == pytest.approx((3 * 0.01 + 1 * 0.5) / 4)
        assert merged["recent_violations"] == [{"sql": "SELECT COUNT(x) FROM t"}]
        assert AccuracyAuditor.merge_stats([{"enabled": False}])["enabled"] is False


# --------------------------------------------------------------------------- #
# Accuracy auditor: corruption alarm


class TestAuditorAlarm:
    def test_corrupted_synopsis_raises_violation_counter_and_alerts(self):
        table = make_simple_table(rows=2000, seed=11, name="suspect")
        service = QueryService(partition_size=500)
        service.register_table(table, params=PARAMS)
        alerts = io.StringIO()
        auditor = AccuracyAuditor(service, sample_rate=1.0, alert_stream=alerts)
        service.auditor = auditor
        sql = "SELECT COUNT(x) FROM suspect WHERE x > 25"
        violations_before = counter_value(
            "aqp_audit_bound_violations_total", table="suspect"
        )
        audited_before = counter_value("aqp_audited_queries_total", table="suspect")

        # Healthy baseline: this query's bounds hold, the audit is clean.
        truth = ExactQueryEngine(table).execute_scalar(parse_query(sql))
        estimate = service.execute_scalar(sql)
        assert estimate.lower <= truth <= estimate.upper
        assert auditor.audit_now() == 1
        assert auditor.violations == 0
        assert alerts.getvalue() == ""

        corrupt_synopsis(service, "suspect")
        corrupted = service.execute_scalar(sql)
        assert corrupted.value > 2 * truth  # the sabotage took
        assert auditor.audit_now() == 1
        assert auditor.violations == 1
        record = auditor.records[-1]
        assert record.violated and record.truth == truth
        assert record.error > 0.5

        # The registry counters moved ...
        assert (
            counter_value("aqp_audit_bound_violations_total", table="suspect")
            - violations_before
        ) == 1
        assert (
            counter_value("aqp_audited_queries_total", table="suspect")
            - audited_before
        ) == 2
        # ... and the structured alert carries the full audit record.
        (alert,) = alert_events(alerts)
        assert alert["event"] == "bound_violation"
        assert alert["component"] == "audit"
        assert alert["level"] == "warning"
        assert alert["sql"] == sql and alert["table"] == "suspect"
        assert alert["truth"] == truth and alert["violated"] is True
        assert not (alert["lower"] <= alert["truth"] <= alert["upper"])

    def test_skips_are_counted_by_reason(self):
        service = QueryService()
        service.register_table(
            make_simple_table(rows=300, seed=2, name="tiny"), params=PARAMS
        )
        auditor = AccuracyAuditor(service, sample_rate=1.0)
        service.auditor = auditor
        auditor._queue.append("not sql at all")
        auditor._queue.append("SELECT AVG(x) FROM missing_table")
        auditor._queue.append("SELECT AVG(x) FROM tiny GROUP BY category")
        assert auditor.audit_now() == 0
        assert auditor.skipped == 3
        assert auditor.audited == 0

    def test_auditor_traffic_bypasses_the_hooks(self):
        """The auditor's own re-executions must not re-enter the workload
        log or the sample queue (no feedback loop)."""
        service = QueryService()
        service.register_table(
            make_simple_table(rows=300, seed=2, name="tiny"), params=PARAMS
        )
        workload = WorkloadLog()
        service.workload_log = workload
        auditor = AccuracyAuditor(service, sample_rate=1.0, workload=workload)
        service.auditor = auditor
        service.execute_scalar("SELECT AVG(x) FROM tiny")
        assert auditor.audit_now() >= 1
        # One live observation; the audit re-execution added nothing.
        (entry,) = workload.snapshot()["templates"]
        assert entry["count"] == 1
        assert entry["audit"]["audited"] >= 1
        assert len(auditor._queue) == 0


# --------------------------------------------------------------------------- #
# Cluster drill: healthy workload audits clean, seeded corruption alarms


class TestClusterAuditDrill:
    CANDIDATES = [
        "SELECT COUNT(x) FROM sensors WHERE x > 25",
        "SELECT COUNT(*) FROM sensors",
        "SELECT AVG(x) FROM sensors WHERE x > 10 AND x < 90",
        "SELECT SUM(y) FROM sensors WHERE w < 4",
        "SELECT AVG(z) FROM sensors WHERE z < 30",
    ]

    @staticmethod
    def _attach_auditors(cluster, alerts, interval=3600.0):
        auditors = []
        for shard in cluster.shards:
            workload = WorkloadLog()
            shard.service.workload_log = workload
            auditor = AccuracyAuditor(
                shard.service,
                sample_rate=1.0,
                interval_seconds=interval,
                workload=workload,
                alert_stream=alerts,
            )
            shard.service.auditor = auditor
            auditors.append(auditor)
        return auditors

    def test_two_shard_drill(self):
        cluster = ClusterQueryService(num_shards=2, mode="local")
        try:
            cluster.register_table(
                make_simple_table(rows=1200, seed=21, name="sensors"), params=PARAMS
            )

            # Phase A — dry run to pre-filter: the paper's bounds are not
            # guaranteed on every query (the golden harness floors the
            # bounds-correct rate at 0.60, not 1.0), so the "healthy ⇒
            # zero violations" drill runs on queries whose bounds hold.
            dry_alerts = io.StringIO()
            dry = self._attach_auditors(cluster, dry_alerts)
            for sql in self.CANDIDATES:
                cluster.execute(sql)
            for auditor in dry:
                auditor.audit_now()
            dirty_sqls = {
                record.sql
                for auditor in dry
                for record in auditor.records
                if record.violated
            }
            clean = [
                sql
                for sql in self.CANDIDATES
                if str(plan_query(parse_query(sql)).scattered) not in dirty_sqls
            ]
            count_sql = next(s for s in clean if s.startswith("SELECT COUNT(x)"))

            # Phase B — healthy workload, fresh auditors: zero violations.
            alerts = io.StringIO()
            auditors = self._attach_auditors(cluster, alerts)
            for sql in clean:
                cluster.execute(sql)
            for auditor in auditors:
                assert auditor.audit_now() >= len(clean)
                assert auditor.violations == 0
            assert alerts.getvalue() == ""
            stats = cluster.audit()
            assert stats["enabled"] is True and stats["shards"] == 2
            assert stats["audited"] >= 2 * len(clean)
            assert stats["violations"] == 0
            # The merged workload log sums both shards' template counts.
            merged = cluster.workload()
            by_template = {t["template"]: t for t in merged["templates"]}
            count_template = normalize_sql(
                str(plan_query(parse_query(count_sql)).scattered)
            )
            assert by_template[count_template]["count"] >= 2  # one per shard

            # Phase C — seed a bound-violating synopsis on shard 0 and
            # let the *daemon* catch it within one audit interval.
            for auditor in auditors:
                auditor.interval_seconds = 0.1
                auditor.start()
            try:
                corrupt_synopsis(cluster.shards[0].service, "sensors")
                violations_before = sum(a.violations for a in auditors)
                cluster.execute(count_sql)
                deadline = time.perf_counter() + 10.0
                while time.perf_counter() < deadline:
                    if sum(a.violations for a in auditors) > violations_before:
                        break
                    time.sleep(0.05)
                assert sum(a.violations for a in auditors) > violations_before
                assert auditors[0].violations >= 1  # the corrupted shard
            finally:
                for auditor in auditors:
                    auditor.stop()
            events = alert_events(alerts)
            assert any(e["event"] == "bound_violation" for e in events)
            stats = cluster.audit()
            assert stats["violations"] >= 1
            assert stats["recent_violations"]
        finally:
            cluster.close()


# --------------------------------------------------------------------------- #
# Wire ops


def run_async(coroutine):
    return asyncio.run(coroutine)


async def serve(scenario, **server_kwargs):
    async with AsyncQueryService(partition_size=600, max_workers=2) as svc:
        await svc.register_table(
            make_simple_table(rows=1200, seed=50, name="stream"), params=PARAMS
        )
        svc.service.workload_log = WorkloadLog()
        svc.service.auditor = AccuracyAuditor(
            svc.service,
            sample_rate=1.0,
            interval_seconds=3600.0,
            workload=svc.service.workload_log,
        )
        async with QueryServer(svc, **server_kwargs) as server:
            return await asyncio.to_thread(scenario, server.address, server)


class TestWireOps:
    def test_explain_analyze_over_the_wire(self):
        def scenario(address, server):
            with PipelinedClient(*address) as client:
                plan = client.query("EXPLAIN ANALYZE SELECT COUNT(*) FROM stream")[
                    "explain"
                ]
                analysis = plan["analyze"]
                assert analysis["wall_seconds"] > 0
                (result,) = analysis["result"]["results"]
                assert result["value"] == pytest.approx(1200, rel=0.01)
                assert {s["name"] for s in analysis["spans"]} >= {"explain_analyze"}

        run_async(serve(scenario))


# --------------------------------------------------------------------------- #
# CLI wiring


class TestServerWiring:
    def test_attach_answer_quality_wires_and_starts(self):
        from repro.service.cli import _attach_answer_quality

        service = QueryService()
        service.register_table(
            make_simple_table(rows=300, seed=1, name="t"), params=PARAMS
        )
        config = ServeConfig(
            workload_capacity=8, audit_sample=0.5, audit_interval=3600.0
        )
        auditor = _attach_answer_quality(service, config)
        try:
            assert service.workload_log is not None
            assert service.workload_log.capacity == 8
            assert auditor is service.auditor
            assert auditor.sample_rate == 0.5
            assert auditor._thread is not None and auditor._thread.is_alive()
            service.execute_scalar("SELECT COUNT(*) FROM t")
            service.execute_scalar("SELECT AVG(x) FROM t")
            assert auditor.audit_now() >= 1
        finally:
            auditor.stop()

    def test_attach_answer_quality_defaults_off(self):
        from repro.service.cli import _attach_answer_quality

        service = QueryService()
        config = ServeConfig(workload_capacity=0)
        assert _attach_answer_quality(service, config) is None
        assert service.workload_log is None and service.auditor is None

    def test_supervisor_propagates_audit_flags_to_worker_argv(self):
        from repro.cluster.shard import ProcessShard
        from repro.cluster.supervisor import ShardSupervisor

        supervisor = ShardSupervisor(
            worker=ServeConfig(
                audit_sample=0.25, audit_interval=1.5, workload_capacity=64
            ),
        )
        argv = ProcessShard(0, supervisor).argv()
        assert argv[argv.index("--audit-sample") + 1] == "0.25"
        assert argv[argv.index("--audit-interval") + 1] == "1.5"
        assert argv[argv.index("--workload-capacity") + 1] == "64"
        # Off by default: no audit daemon burning worker CPU unasked.
        quiet = ProcessShard(0, ShardSupervisor()).argv()
        assert "--audit-sample" not in quiet


# --------------------------------------------------------------------------- #
# Health endpoints + build info


class TestHealthEndpoints:
    def test_healthz_readyz_and_build_info(self):
        flag = {"ready": False, "boom": False}

        def ready_fn():
            if flag["boom"]:
                raise RuntimeError("probe exploded")
            return flag["ready"]

        endpoint = MetricsHTTPServer(
            obs_metrics.REGISTRY.snapshot, host="127.0.0.1", port=0, ready_fn=ready_fn
        ).start()
        try:
            base = f"http://127.0.0.1:{endpoint.port}"
            with urllib.request.urlopen(f"{base}/healthz", timeout=10) as response:
                assert response.status == 200
                assert response.read() == b"ok\n"
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(f"{base}/readyz", timeout=10)
            assert err.value.code == 503
            flag["ready"] = True
            with urllib.request.urlopen(f"{base}/readyz", timeout=10) as response:
                assert response.status == 200
                assert response.read() == b"ready\n"
            # A crashing probe reads as not-ready, never a 500.
            flag["boom"] = True
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(f"{base}/readyz", timeout=10)
            assert err.value.code == 503
            flag["boom"] = False
            with urllib.request.urlopen(f"{base}/metrics", timeout=10) as response:
                body = response.read().decode("utf-8")
            assert f'repro_build_info{{python="' in body
            assert f'version="{__version__}"' in body
            assert "repro_process_start_time_seconds" in body
        finally:
            endpoint.stop()

    def test_readyz_defaults_ready_without_a_probe(self):
        endpoint = MetricsHTTPServer(
            obs_metrics.REGISTRY.snapshot, host="127.0.0.1", port=0
        ).start()
        try:
            url = f"http://127.0.0.1:{endpoint.port}/readyz"
            with urllib.request.urlopen(url, timeout=10) as response:
                assert response.status == 200
        finally:
            endpoint.stop()


# --------------------------------------------------------------------------- #
# Slow-query log rotation


class TestSlowLogRotation:
    def test_rotating_file_stream_bounds_disk(self, tmp_path):
        path = tmp_path / "slow.log"
        stream = obs_log.RotatingFileStream(path, max_bytes=200, keep=2)
        line = json.dumps({"event": "slow_query", "pad": "x" * 40}) + "\n"
        for _ in range(100):
            stream.write(line)
        stream.close()
        files = sorted(tmp_path.glob("slow.log*"))
        assert path in files
        assert (tmp_path / "slow.log.1") in files
        assert len(files) <= 3  # live file + keep=2 rotated generations
        assert sum(f.stat().st_size for f in files) <= 3 * 200 + len(line)
        # Every surviving line is intact JSON (rotation never splits).
        for f in files:
            for text in f.read_text().splitlines():
                assert json.loads(text)["event"] == "slow_query"

    def test_tracer_routes_slow_queries_to_the_rotated_file(self, tmp_path):
        tracer = tracing.TRACER
        previous_threshold = tracer.slow_threshold_seconds
        previous_logger = tracer._slow_logger
        path = tmp_path / "slow.json"
        try:
            tracer.configure_slow_log(str(path), max_mb=1.0)
            tracer.slow_threshold_seconds = 0.0
            with tracing.root_span("query", attrs={"sql": "SELECT 1"}) as root:
                pass
        finally:
            tracer.slow_threshold_seconds = previous_threshold
            tracer._slow_logger = previous_logger
        entry = json.loads(path.read_text().strip().splitlines()[-1])
        assert entry["event"] == "slow_query"
        assert entry["component"] == "slow_query"
        assert entry["trace_id"] == root.trace_id
        assert entry["attrs"] == {"sql": "SELECT 1"}


# --------------------------------------------------------------------------- #
# Process-mode end to end (subprocess workers; slow)


@pytest.mark.slow
class TestProcessClusterAuditEndToEnd:
    def test_worker_auditors_feed_the_cluster_fanout(self, tmp_path):
        cluster = ClusterQueryService(
            num_shards=2,
            path=tmp_path / "cluster",
            mode="process",
            partition_size=200,
            worker=ServeConfig(
                checkpoint_interval=3600.0,
                audit_sample=1.0,
                audit_interval=0.2,
                workload_capacity=64,
            ),
        )
        try:
            cluster.register_table(
                make_simple_table(rows=600, seed=3, name="sensors"), params=PARAMS
            )
            for _ in range(3):
                cluster.execute("SELECT AVG(x) FROM sensors WHERE x > 10")
            deadline = time.perf_counter() + 30.0
            stats = cluster.audit()
            while time.perf_counter() < deadline and stats["audited"] == 0:
                time.sleep(0.2)
                stats = cluster.audit()
            assert stats["enabled"] is True
            assert stats["shards"] == 2
            assert stats["audited"] > 0
            merged = cluster.workload()
            by_template = {t["template"]: t for t in merged["templates"]}
            scattered = normalize_sql(
                str(plan_query(parse_query("SELECT AVG(x) FROM sensors WHERE x > 10")).scattered)
            )
            assert by_template[scattered]["count"] >= 6  # 3 queries x 2 shards
        finally:
            cluster.close()
