"""Observability layer tests: registry, tracing, exposition, wire ops.

What is pinned here:

* the metrics registry — counter/gauge/histogram semantics, label
  matching, the ``REPRO_OBS`` kill switch, snapshot shape, and
  ``merge_snapshot``'s sum-counters / last-write-gauges contract (the
  cluster fan-out depends on it);
* tracing — span nesting through ``contextvars``, the ``propagate``
  marking of client-supplied traces, the ring buffer, and the
  threshold-gated slow-query log;
* the Prometheus text exposition (``/metrics`` over stdlib
  ``http.server``) and its content type;
* the ``metrics`` and ``trace`` wire ops, a trace carried by the frame
  trailer of a fast-path and of an ``OP_JSON`` frame alike, and the
  byte-compat regression pin for the pre-observability ``status`` payload
  (shed counts and cache stats keep their exact shapes);
* cluster-wide behaviour: the merged metrics fan-out with
  ``shard``/``role`` labels, the cross-process span tree of a traced
  scatter query, the cluster ``status`` now carrying merged worker cache
  stats (the bug this PR fixes), and the kill-one-replica drill in which
  the primary's ack-lag gauge grows while the replica is dead and
  recovers after a respawn.
"""

from __future__ import annotations

import asyncio
import json
import time
import urllib.request

import pytest
from conftest import make_simple_table, tunnel

from repro import (
    AsyncQueryService,
    ClusterQueryService,
    PairwiseHistParams,
    QueryServer,
)
from repro.cluster.shard import ReplicatedShard
from repro.obs import log as obs_log
from repro.obs import metrics as obs_metrics
from repro.obs import tracing
from repro.obs.exposition import CONTENT_TYPE, MetricsHTTPServer, render_prometheus
from repro.obs.metrics import MetricsRegistry, merge_snapshot
from repro.service.config import ServeConfig
from repro.service.wire import PipelinedClient

PARAMS = PairwiseHistParams.with_defaults(sample_size=None, seed=1)


# --------------------------------------------------------------------------- #
# Registry


class TestRegistry:
    def test_counter_gauge_histogram_basics(self):
        reg = MetricsRegistry(enabled=True)
        c = reg.counter("c_total", "help text", labelnames=("kind",))
        c.inc(kind="query")
        c.inc(2.0, kind="query")
        c.inc(kind="ingest")
        assert c.value(kind="query") == 3.0
        assert c.value(kind="ingest") == 1.0
        with pytest.raises(ValueError):
            c.inc(-1.0, kind="query")

        g = reg.gauge("g")
        g.set(5.0)
        g.add(-2.0)
        assert g.value() == 3.0

        h = reg.histogram("h_seconds", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 2.0):
            h.observe(v)
        snap = reg.snapshot()
        series = snap["h_seconds"]["series"][0]
        assert series["buckets"] == [0.1, 1.0]
        assert series["counts"] == [1, 1, 1]  # one per bucket + overflow
        assert series["count"] == 3
        assert series["sum"] == pytest.approx(2.55)

    def test_labels_must_match_declaration(self):
        reg = MetricsRegistry(enabled=True)
        c = reg.counter("c_total", labelnames=("kind",))
        with pytest.raises(ValueError):
            c.inc()  # missing label
        with pytest.raises(ValueError):
            c.inc(kind="x", extra="y")

    def test_registration_is_idempotent_but_kind_conflicts_raise(self):
        reg = MetricsRegistry(enabled=True)
        assert reg.counter("m") is reg.counter("m")
        with pytest.raises(TypeError):
            reg.gauge("m")

    def test_disabled_registry_drops_writes_but_stays_queryable(self):
        reg = MetricsRegistry(enabled=False)
        c = reg.counter("c_total")
        c.inc()
        assert c.value() == 0.0
        assert reg.snapshot()["c_total"]["series"] == [{"labels": {}, "value": 0.0}]

    def test_global_kill_switch_gates_metrics_and_spans(self):
        assert obs_metrics.obs_enabled()  # tests run with obs on
        c = obs_metrics.counter("test_kill_switch_total")
        try:
            obs_metrics.set_enabled(False)
            c.inc()
            assert c.value() == 0.0
            with tracing.root_span("query") as span:
                assert span is None  # spans vanish entirely when off
        finally:
            obs_metrics.set_enabled(True)
        c.inc()
        assert c.value() == 1.0

    def test_collectors_run_before_snapshot_and_die_with_their_owner(self):
        reg = MetricsRegistry(enabled=True)
        g = reg.gauge("lag")

        class Owner:
            def collect(self):
                g.set(42.0)

        owner = Owner()
        reg.add_collector(owner.collect)
        snap = reg.snapshot()
        assert snap["lag"]["series"][0]["value"] == 42.0
        g.set(0.0)
        del owner  # WeakMethod: the dead collector must be pruned silently
        assert reg.snapshot()["lag"]["series"][0]["value"] == 0.0

    def test_merge_snapshot_sums_counters_and_overwrites_gauges(self):
        def worker_snapshot(n):
            reg = MetricsRegistry(enabled=True)
            reg.counter("ops_total", labelnames=("kind",)).inc(n, kind="q")
            reg.gauge("level").set(n)
            h = reg.histogram("lat", buckets=(1.0,))
            h.observe(0.5)
            return reg.snapshot()

        merged: dict = {}
        merge_snapshot(merged, worker_snapshot(1), {"shard": "00000"})
        merge_snapshot(merged, worker_snapshot(2), {"shard": "00001"})
        series = merged["ops_total"]["series"]
        assert {s["labels"]["shard"]: s["value"] for s in series} == {
            "00000": 1.0,
            "00001": 2.0,
        }
        # Same labels twice: counters sum, gauges last-write, hist cells add.
        merge_snapshot(merged, worker_snapshot(5), {"shard": "00001"})
        by_shard = {s["labels"]["shard"]: s for s in merged["ops_total"]["series"]}
        assert by_shard["00001"]["value"] == 7.0
        gauges = {s["labels"]["shard"]: s["value"] for s in merged["level"]["series"]}
        assert gauges["00001"] == 5.0
        hist = {
            s["labels"]["shard"]: s for s in merged["lat"]["series"]
        }["00001"]
        assert hist["count"] == 2 and hist["counts"] == [2, 0]


# --------------------------------------------------------------------------- #
# Tracing


class TestTracing:
    def test_child_spans_nest_and_land_in_the_ring_buffer(self):
        with tracing.root_span("query", attrs={"sql": "SELECT 1"}) as root:
            assert tracing.current_span() is root
            assert root.root and not root.propagate  # server-allocated ids
            with tracing.child_span("parse") as parse:
                assert parse.trace_id == root.trace_id
                assert parse.parent_id == root.span_id
            with tracing.child_span("execute"):
                pass
        assert tracing.current_span() is None
        spans = tracing.spans_for(root.trace_id)
        assert [s["name"] for s in spans] == ["parse", "execute", "query"]
        assert all(s["duration"] is not None for s in spans)
        by_name = {s["name"]: s for s in spans}
        assert by_name["query"]["parent_id"] is None
        assert by_name["parse"]["parent_id"] == root.span_id

    def test_client_supplied_trace_is_marked_for_wire_propagation(self):
        tid, sid = tracing.new_trace_id(), tracing.new_span_id()
        with tracing.root_span("query", trace_id=tid, parent_id=sid) as root:
            assert root.trace_id == tid and root.parent_id == sid
            assert root.propagate
            with tracing.child_span("scatter") as child:
                assert child.propagate  # inherited by the whole subtree
        assert len(tid) == 2 * tracing.TRACE_ID_BYTES
        assert len(root.span_id) == 2 * tracing.SPAN_ID_BYTES

    def test_child_span_without_a_parent_is_a_noop(self):
        with tracing.child_span("orphan") as span:
            assert span is None

    def test_slow_watch_synthesises_a_root_span_only_when_slow(self, capsys):
        tracer = tracing.TRACER
        previous = tracer.slow_threshold_seconds
        try:
            # No threshold: the watch is the shared no-op context.
            tracer.slow_threshold_seconds = None
            with tracing.slow_watch("query") as span:
                assert span is None
            # Generous threshold: a fast request records nothing.
            tracer.slow_threshold_seconds = 10.0
            before = len(tracer._finished)
            with tracing.slow_watch("query", lambda: {"sql": "fast"}):
                pass
            assert len(tracer._finished) == before
            # Zero threshold: a completed root span is synthesised
            # post-hoc, lands in the ring, and hits the slow-query log.
            tracer.slow_threshold_seconds = 0.0
            with tracing.slow_watch("query", lambda: {"sql": "slow"}):
                time.sleep(0.001)
        finally:
            tracer.slow_threshold_seconds = previous
        lines = [
            json.loads(line)
            for line in capsys.readouterr().err.splitlines()
            if line.startswith("{")
        ]
        slow = [l for l in lines if l.get("event") == "slow_query"]
        assert slow and slow[-1]["attrs"] == {"sql": "slow"}
        spans = tracing.spans_for(slow[-1]["trace_id"])
        assert len(spans) == 1
        assert spans[0]["name"] == "query"
        assert spans[0]["parent_id"] is None
        assert spans[0]["duration"] >= 0.001

    def test_slow_query_log_fires_on_threshold(self, capsys):
        tracer = tracing.TRACER
        previous = tracer.slow_threshold_seconds
        tracer.slow_threshold_seconds = 0.0  # everything is "slow"
        try:
            with tracing.root_span("query", attrs={"sql": "SELECT 1"}) as root:
                pass
        finally:
            tracer.slow_threshold_seconds = previous
        lines = [
            json.loads(line)
            for line in capsys.readouterr().err.splitlines()
            if line.startswith("{")
        ]
        slow = [l for l in lines if l.get("event") == "slow_query"]
        assert slow and slow[-1]["trace_id"] == root.trace_id
        assert slow[-1]["component"] == "slow_query"
        assert slow[-1]["duration_seconds"] >= 0.0


# --------------------------------------------------------------------------- #
# Structured logging


class TestJsonLog:
    def test_log_lines_are_json_with_component_and_level(self, capsys):
        logger = obs_log.get_logger("test_component")
        logger.warning("something_happened", detail=7)
        line = capsys.readouterr().err.strip().splitlines()[-1]
        entry = json.loads(line)
        assert entry["component"] == "test_component"
        assert entry["level"] == "warning"
        assert entry["event"] == "something_happened"
        assert entry["detail"] == 7
        assert "ts" in entry

    def test_level_threshold_filters(self, capsys):
        logger = obs_log.get_logger("test_component")
        previous = obs_log.set_level("error")
        try:
            logger.info("dropped")
        finally:
            obs_log.set_level(previous)
        assert "dropped" not in capsys.readouterr().err

    def test_active_span_stamps_trace_id(self, capsys):
        logger = obs_log.get_logger("test_component")
        with tracing.root_span("query") as root:
            logger.info("inside")
        entry = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert entry["trace_id"] == root.trace_id


# --------------------------------------------------------------------------- #
# Exposition


class TestExposition:
    def test_prometheus_text_rendering(self):
        reg = MetricsRegistry(enabled=True)
        reg.counter("aqp_ops_total", "Operations.", labelnames=("kind",)).inc(
            3, kind='we"ird\\'
        )
        reg.gauge("aqp_level", "Level.").set(1.5)
        h = reg.histogram("aqp_lat_seconds", "Latency.", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(5.0)
        text = render_prometheus(reg.snapshot())
        assert "# HELP aqp_ops_total Operations.\n# TYPE aqp_ops_total counter" in text
        assert 'aqp_ops_total{kind="we\\"ird\\\\"} 3' in text
        assert "aqp_level 1.5" in text
        # Cumulative buckets with the +Inf terminal, plus _sum/_count.
        assert 'aqp_lat_seconds_bucket{le="0.1"} 1' in text
        assert 'aqp_lat_seconds_bucket{le="1"} 1' in text
        assert 'aqp_lat_seconds_bucket{le="+Inf"} 2' in text
        assert "aqp_lat_seconds_count 2" in text

    def test_http_endpoint_serves_the_live_registry(self):
        reg = MetricsRegistry(enabled=True)
        reg.counter("aqp_scrapes_total").inc(9)
        endpoint = MetricsHTTPServer(reg.snapshot, host="127.0.0.1", port=0)
        endpoint.start()
        try:
            url = f"http://127.0.0.1:{endpoint.port}/metrics"
            with urllib.request.urlopen(url, timeout=10) as response:
                assert response.status == 200
                assert response.headers["Content-Type"] == CONTENT_TYPE
                body = response.read().decode("utf-8")
            assert "aqp_scrapes_total 9" in body
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(
                    f"http://127.0.0.1:{endpoint.port}/nope", timeout=10
                )
            assert err.value.code == 404
        finally:
            endpoint.stop()


# --------------------------------------------------------------------------- #
# Wire ops, single node


def run_async(coroutine):
    return asyncio.run(coroutine)


async def serve(scenario, **server_kwargs):
    async with AsyncQueryService(partition_size=600, max_workers=2) as svc:
        await svc.register_table(
            make_simple_table(rows=1200, seed=50, name="stream"), params=PARAMS
        )
        async with QueryServer(svc, **server_kwargs) as server:
            return await asyncio.to_thread(scenario, server.address, server)


class TestWireOps:
    def test_traced_query_span_tree_in_both_dialects(self):
        """The two frame forms: an ``OP_JSON`` frame and the fast-path
        ``QUERY`` frame, each carrying its trace in the trailer."""

        def scenario(address, server):
            with PipelinedClient(*address) as client:
                # An OP_JSON frame: the trailer carries the trace here too.
                tid = tracing.new_trace_id()
                sid = tracing.new_span_id()
                request = {"op": "query", "sql": "SELECT AVG(x) FROM stream"}
                trace = (bytes.fromhex(tid), bytes.fromhex(sid))
                assert tunnel(client, request, trace)["results"]
                spans = client.trace(tid)
                names = {s["name"] for s in spans}
                assert "query" in names and "parse" in names and "execute" in names
                root = next(s for s in spans if s["name"] == "query")
                assert root["trace_id"] == tid
                assert root["parent_id"] == sid  # the client's span is the parent
                children = [s for s in spans if s["parent_id"] == root["span_id"]]
                assert children and all(c["trace_id"] == tid for c in children)
                # Child work happens within the root's wall time.
                assert sum(c["duration"] for c in children) <= root["duration"] * 1.5

                # The fast-path QUERY frame.
                tid2 = tracing.new_trace_id()
                sid2 = tracing.new_span_id()
                client.query(
                    "SELECT SUM(y) FROM stream",
                    trace=(bytes.fromhex(tid2), bytes.fromhex(sid2)),
                )
                spans2 = client.trace(tid2)
            root2 = next(s for s in spans2 if s["name"] == "query")
            assert root2["parent_id"] == sid2
            assert {s["name"] for s in spans2} >= {"query", "parse"}

        run_async(serve(scenario))

    def test_a_traced_request_in_an_op_json_frame_keeps_its_trace(self):
        """``EXPLAIN SELECT ...`` cannot ride the fast-path QUERY frame, so
        the client tunnels it in an ``OP_JSON`` frame with the trace in
        the trailer: it is recorded like the plain statement's."""

        def scenario(address, server):
            recorded = {}
            with PipelinedClient(*address) as client:
                for sql in ("SELECT AVG(x) FROM stream", "EXPLAIN SELECT AVG(x) FROM stream"):
                    tid, sid = tracing.new_trace_id(), tracing.new_span_id()
                    client.query(sql, trace=(bytes.fromhex(tid), bytes.fromhex(sid)))
                    spans = client.trace(tid)
                    assert spans, sql
                    (root,) = [s for s in spans if s["parent_id"] == sid]
                    assert all(s["trace_id"] == tid for s in spans)
                    recorded[sql] = root["name"]
            assert recorded == {
                "SELECT AVG(x) FROM stream": "query",
                "EXPLAIN SELECT AVG(x) FROM stream": "explain",
            }

        run_async(serve(scenario))

    def test_a_traced_first_ingest_does_not_trace_later_ingests(self, monkeypatch):
        """A table's first ingest starts its coalescing drain task, which
        outlives that request: the request's root span must not become
        the context every later ingest runs in."""
        seen = []

        def scenario(address, server):
            service = server.service.service
            ingest = service.ingest

            def recording(*args):
                seen.append(tracing.current_span())
                return ingest(*args)

            monkeypatch.setattr(service, "ingest", recording)
            trace = (bytes.fromhex(tracing.new_trace_id()), bytes.fromhex(tracing.new_span_id()))
            with PipelinedClient(*address) as client:
                for seed, traced in ((3, trace), (4, None)):
                    batch = make_simple_table(rows=10, seed=seed, name="stream")
                    assert client.ingest("stream", batch, trace=traced)["appended_rows"] == 10
                root = client.trace(trace[0].hex())
            assert [span["name"] for span in root] == ["ingest"]

        run_async(serve(scenario))
        assert seen == [None, None]

    def test_untraced_queries_do_not_leak_into_foreign_traces(self):
        def scenario(address, server):
            with PipelinedClient(*address) as client:
                client.query("SELECT COUNT(*) FROM stream")
                assert client.trace(tracing.new_trace_id()) == []

        run_async(serve(scenario))

    def test_status_payload_shape_is_byte_compatible(self):
        """Regression pin: migrating shed/cache counters onto the registry
        must not change the ``status`` op payload one old clients parse."""

        def scenario(address, server):
            with PipelinedClient(*address) as client:
                client.query("SELECT COUNT(*) FROM stream")
                client.query("SELECT COUNT(*) FROM stream")  # cache hit
                status = client.status()
            assert status["role"] == "standalone"
            assert status["epoch"] == 0
            # The exact pre-observability shapes: plain int dicts.
            assert status["shed_counts"] == {"query": 0, "ingest": 0}
            assert status["cache_stats"] == {"stream": {"hits": 1, "misses": 1}}
            # Per-instance attributes remain the source of truth.
            assert server.shed_counts == {"query": 0, "ingest": 0}

        run_async(serve(scenario))


# --------------------------------------------------------------------------- #
# Cluster (local mode: fast)


class TestClusterObservabilityLocal:
    def test_local_cluster_metrics_and_scatter_spans(self):
        cluster = ClusterQueryService(num_shards=2, mode="local")
        try:
            cluster.register_table(
                make_simple_table(rows=800, seed=7, name="sensors"), params=PARAMS
            )
            tid = tracing.new_trace_id()
            with tracing.root_span(
                "query", trace_id=tid, attrs={"sql": "count"}
            ) as root:
                cluster.execute("SELECT COUNT(*) FROM sensors")
            spans = cluster.trace(tid)
            names = [s["name"] for s in spans]
            assert "scatter" in names and "gather" in names
            executes = [s for s in spans if s["name"] == "shard_execute"]
            assert len(executes) == 2  # one per shard
            scatter = next(s for s in spans if s["name"] == "scatter")
            assert scatter["attrs"]["fanout"] == 2
            assert all(s["parent_id"] == scatter["span_id"] for s in executes)
            # Children complete inside the root span's wall time.
            root_span = next(s for s in spans if s["span_id"] == root.span_id)
            assert all(s["duration"] <= root_span["duration"] for s in executes)

            snapshot = cluster.metrics()
            fanout = snapshot["aqp_scatter_fanout"]["series"][0]
            assert fanout["count"] >= 1
            assert "aqp_shard_roundtrip_seconds" in snapshot
        finally:
            cluster.close()

    def test_local_cluster_status_extra_merges_worker_cache_stats(self):
        cluster = ClusterQueryService(num_shards=2, mode="local")
        try:
            cluster.register_table(
                make_simple_table(rows=800, seed=7, name="sensors"), params=PARAMS
            )
            cluster.execute("SELECT COUNT(*) FROM sensors")
            cluster.execute("SELECT COUNT(*) FROM sensors")
            extra = cluster.status_extra()
            stats = extra["cache_stats"]["sensors"]
            # 2 shards x (1 miss + 1 hit) summed across the fleet.
            assert stats["misses"] == 2
            assert stats["hits"] == 2
        finally:
            cluster.close()


# --------------------------------------------------------------------------- #
# Cluster end-to-end (subprocess workers; slow)


def _await_lag(shard, predicate, timeout=30.0, message=""):
    """Poll the primary's registry until the ack-lag gauge satisfies
    ``predicate``; returns the last observed per-follower lag mapping."""
    deadline = time.perf_counter() + timeout
    lags: dict[str, float] = {}
    while time.perf_counter() < deadline:
        snapshot = shard.primary.call("metrics")
        series = snapshot.get("aqp_replication_ack_lag_records", {}).get(
            "series", []
        )
        lags = {s["labels"]["follower"]: s["value"] for s in series}
        if lags and predicate(lags):
            return lags
        time.sleep(0.2)
    raise TimeoutError(f"lag gauge never satisfied: {message} (last: {lags})")


@pytest.mark.slow
class TestClusterObservabilityEndToEnd:
    def test_metrics_fanout_carries_every_workers_series(self, tmp_path):
        cluster = ClusterQueryService(
            num_shards=2,
            path=tmp_path / "cluster",
            mode="process",
            partition_size=200,
            worker=ServeConfig(checkpoint_interval=3600.0),
        )
        try:
            cluster.register_table(
                make_simple_table(rows=600, seed=3, name="sensors"), params=PARAMS
            )
            cluster.ingest(
                "sensors", make_simple_table(rows=200, seed=4, name="sensors")
            )
            cluster.execute("SELECT COUNT(*) FROM sensors")
            cluster.execute("SELECT COUNT(*) FROM sensors")
            for i in range(cluster.num_shards):
                cluster.shards[i].call("checkpoint")
            snapshot = cluster.metrics()

            def shards_with(name):
                return {
                    s["labels"].get("shard")
                    for s in snapshot.get(name, {}).get("series", [])
                    if s["labels"].get("role") == "primary"
                }

            every = {"00000", "00001"}
            # WAL, checkpoint, cache series from every worker...
            assert shards_with("aqp_wal_appends_total") == every
            assert shards_with("aqp_checkpoints_total") >= every
            assert shards_with("aqp_result_cache_lookups_total") == every
            assert shards_with("aqp_request_latency_seconds") == every
            assert shards_with("aqp_requests_shed_total") == every
            # ... and the scatters land in the front end's own series
            # (workers export the pre-bound cell at zero, nothing more).
            by_role: dict = {}
            for s in snapshot["aqp_scatter_fanout"]["series"]:
                by_role[s["labels"].get("role")] = s["count"]
            assert by_role["frontend"] >= 2
            assert all(count == 0 for role, count in by_role.items() if role != "frontend")
            blobs = snapshot.get("aqp_checkpoint_blobs_total", {}).get("series", [])
            assert {s["labels"]["disposition"] for s in blobs} <= {
                "linked",
                "rewritten",
            }
            assert sum(s["value"] for s in blobs) > 0
        finally:
            cluster.close()

    def test_traced_scatter_query_joins_worker_spans(self, tmp_path):
        cluster = ClusterQueryService(
            num_shards=2,
            path=tmp_path / "cluster",
            mode="process",
            partition_size=200,
            worker=ServeConfig(checkpoint_interval=3600.0),
        )
        try:
            cluster.register_table(
                make_simple_table(rows=600, seed=3, name="sensors"), params=PARAMS
            )
            tid = tracing.new_trace_id()
            with tracing.root_span("query", trace_id=tid) as root:
                cluster.execute("SELECT AVG(x) FROM sensors")
            spans = cluster.trace(tid)
            assert all(s["trace_id"] == tid for s in spans)
            executes = [s for s in spans if s["name"] == "shard_execute"]
            assert len(executes) == 2
            # Each worker's own root joins the tree under its shard_execute
            # span — propagated over the binary frame trailer.
            worker_roots = [
                s
                for s in spans
                if s["name"] == "query"
                and s["parent_id"] in {e["span_id"] for e in executes}
            ]
            assert len(worker_roots) == 2
            # Consistency: every worker execute fits inside its parent's
            # round trip, which fits inside the client root span.
            root_entry = next(s for s in spans if s["span_id"] == root.span_id)
            for worker_root in worker_roots:
                parent = next(
                    e for e in executes if e["span_id"] == worker_root["parent_id"]
                )
                assert worker_root["duration"] <= parent["duration"]
                assert parent["duration"] <= root_entry["duration"]
            assert sum(e["duration"] for e in executes) <= (
                2 * root_entry["duration"]
            )
        finally:
            cluster.close()

    def test_kill_one_replica_lag_grows_then_recovers(self, tmp_path):
        cluster = ClusterQueryService(
            num_shards=1,
            path=tmp_path / "cluster",
            mode="process",
            partition_size=200,
            replicas=1,
            # Async replication: ingest acks must not block on the
            # dead replica during the drill.
            worker=ServeConfig(checkpoint_interval=3600.0, ack_replicas=0),
        )
        try:
            cluster.register_table(
                make_simple_table(rows=400, seed=3, name="sensors"), params=PARAMS
            )
            shard = cluster.shards[0]
            assert isinstance(shard, ReplicatedShard)
            _await_lag(
                shard, lambda lags: all(v == 0 for v in lags.values()),
                message="initial catch-up",
            )

            shard.replicas[0].kill()
            for seed in (4, 5):
                cluster.ingest(
                    "sensors",
                    make_simple_table(rows=100, seed=seed, name="sensors"),
                )
            # The dead replica stops acking: its lag gauge must grow even
            # though no ack ever arrives (computed at snapshot time).
            grown = _await_lag(
                shard, lambda lags: any(v > 0 for v in lags.values()),
                message="lag growth after replica kill",
            )
            follower_id = max(grown, key=grown.get)
            assert grown[follower_id] >= 2  # two un-acked ingest records

            shard.replicas[0].restart()
            recovered = _await_lag(
                shard,
                lambda lags: lags.get(follower_id) == 0,
                message="lag recovery after respawn",
            )
            assert recovered[follower_id] == 0
            # The respawned replica reports its own applied position too.
            merged = cluster.metrics()
            applied = merged.get("aqp_replication_applied_lsn", {}).get(
                "series", []
            )
            assert any(s["labels"].get("role") == "replica" for s in applied)
        finally:
            cluster.close()
