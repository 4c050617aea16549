"""What the benchmark runs and what it reports: scale, workloads, metrics.

``BENCHMARK.json`` at the repo root declares the same workloads and metrics;
``test_e2e_smoke.py`` keeps the two in agreement.
"""

from __future__ import annotations

from dataclasses import dataclass

TABLE = "power"


@dataclass(frozen=True)
class Scale:
    """Input sizes.  Every measured run uses :data:`FULL`; the smoke test
    shrinks them so one lifecycle fits in a few seconds."""

    base_rows: int = 100_000
    partition_size: int = 10_000
    #: Distinct statements: more than the parse cache (512), which is more
    #: than the result cache (256), so a cyclic scan misses both every time.
    statements: int = 1_000
    #: Templates of the dashboard stream: fits both caches.
    templates: int = 40
    stream_length: int = 10_000
    batch_rows: int = 1_000
    quiesced_batches: int = 10
    #: ``ingest_mixed`` writes this many batches per requested second, a
    #: count and not a duration: the table's final contents, and with them
    #: accuracy and stored bytes, must follow from the seed alone.
    mixed_batches_per_second: int = 2
    #: Batches ``ingest_mixed`` acks between the background checkpoint it
    #: waits for and the kill: exactly what the restart replays from the WAL.
    replay_batches: int = 3
    #: Batches the layer probe ingests: 5 appended, 1 framed, 10 replayed.
    probe_batches: int = 16
    restart_statements: int = 50
    #: A read-only timed loop takes each position of its round at the
    #: fastest of this many sends or more.
    min_rounds: int = 3
    #: Runs of positions a round is cut into for ``query_qps``.
    rate_segments: int = 20
    #: Reader "rounds" while the writer runs, short enough that the median
    #: over rounds has tens of samples.
    mixed_round: int = 100
    traced_rounds: int = 3
    trace_every: int = 20
    pings: int = 2_000


FULL = Scale()


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    shards: int = 1
    templated: bool = False
    window: int = 1
    mixed: bool = False
    #: Seconds between background checkpoints.  An hour on the read-only
    #: workloads, so that their one explicit checkpoint is the only one and
    #: stored bytes repeat exactly.
    checkpoint_interval: float = 3600.0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "dash_uncached",
            "1,000 distinct statements cycled by one serial client miss both "
            "caches every time: sql parse and core.engine do most of the "
            "work, the wire a fixed third",
        ),
        Workload(
            "dash_templated",
            "40 Zipf-drawn statements, 8 in flight, hit the result cache "
            "~100%: framing, dispatch, asyncio hop, obs and audit logging "
            "are the whole cost; engine changes predict no move",
            templated=True,
            window=8,
        ),
        Workload(
            "ingest_mixed",
            "a writer streams 1,000-row batches beside a reader: gd tail "
            "re-encode, builder rebuild, wal, RW lock, background "
            "checkpoints, cache invalidation, then WAL replay on restart",
            mixed=True,
            checkpoint_interval=5.0,
        ),
        Workload(
            "cluster_uncached",
            "dash_uncached through --shards 2: router, batcher, scatter "
            "round trip, gather and companion queries; its p50 over "
            "dash_uncached's is the cluster-to-single ratio",
            shards=2,
        ),
    )
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which the metric may get worse;
    #: ``None`` for per-layer metrics, which are not gated.
    bound: float | None = None


END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("query_p50_ms", "ms", "lower", 0.25),
    Metric("query_p90_ms", "ms", "lower", 0.25),
    Metric("query_qps", "1/s", "higher", 0.25),
    Metric("ingest_rows_per_s", "rows/s", "higher", 0.25),
    Metric("rel_error_within_5pct", "share", "higher", 0.20),
    Metric("bound_hit_rate", "share", "higher", 0.25),
    Metric("disk_bytes_per_raw_byte", "ratio", "lower", 0.10),
    Metric("server_rss_mib", "MiB", "lower", 0.10),
)

#: Measured by the lifecycle itself (untraced numbers come from the same
#: timed loop as the end-to-end metrics).
LIFECYCLE_LAYER = (
    Metric("accuracy.median_rel_error_pct", "%", "lower"),
    Metric("accuracy.value_outside_bounds", "count", "lower"),
    Metric("client.failed_ops_share", "share", "lower"),
    Metric("client.query_p50_ms_pooled", "ms", "lower"),
    Metric("client.query_p90_ms_pooled", "ms", "lower"),
    Metric("client.query_p99_ms", "ms", "lower"),
    Metric("client.cpu_ms_per_query", "ms", "lower"),
    Metric("client.ingest_batch_ms_p90", "ms", "lower"),
    Metric("server.cpu_ms_per_query", "ms", "lower"),
    Metric("server.cpu_s_per_1k_rows", "s", "lower"),
    Metric("server.restart_s", "s", "lower"),
)

#: Measured only by a traced run: spans pulled with the ``trace`` op and
#: counter deltas scraped with the ``metrics`` op.
TRACED_LAYER = (
    Metric("wire.ping_rtt_us_p50", "us", "lower"),
    Metric("wire.query_overhead_ms_p50", "ms", "lower"),
    Metric("server.dispatch_self_ms_p50", "ms", "lower"),
    Metric("server.parse_us_p50", "us", "lower"),
    Metric("server.execute_ms_p50", "ms", "lower"),
    Metric("cluster.shard_execute_ms_p50", "ms", "lower"),
    Metric("cluster.gather_ms_p50", "ms", "lower"),
    Metric("cluster.shard_roundtrip_ms_mean", "ms", "lower"),
    Metric("server.result_cache_hit_ratio", "ratio", "higher"),
    Metric("server.parse_cache_hit_ratio", "ratio", "higher"),
    Metric("server.requests_shed", "count", "lower"),
    Metric("server.wal_appended_bytes", "bytes", "lower"),
    Metric("server.wal_appends", "count", "lower"),
    Metric("server.synopsis_builds", "count", "lower"),
    Metric("server.checkpoints", "count", "lower"),
    Metric("trace.overhead_ratio", "ratio", "lower"),
)

#: Measured by ``layers.py`` in the generator process.
PROBE_LAYER = (
    Metric("sql.parse_us_p50", "us", "lower"),
    Metric("sql.parse_cached_us_p50", "us", "lower"),
    Metric("engine.execute_ms_p50", "ms", "lower"),
    Metric("engine.execute_ms_p90", "ms", "lower"),
    Metric("engine.rel_error_pct", "%", "lower"),
    Metric("engine.bound_hit_rate", "share", "higher"),
    Metric("exactdb.execute_ms_p50", "ms", "lower"),
    Metric("engine.speedup_vs_exact", "ratio", "higher"),
    Metric("gd.compress_s", "s", "lower"),
    Metric("gd.compress_rows_per_s", "rows/s", "higher"),
    Metric("gd.bit_search_s", "s", "lower"),
    Metric("gd.append_ms_p50", "ms", "lower"),
    Metric("gd.compression_ratio", "ratio", "higher"),
    Metric("builder.build_s", "s", "lower"),
    Metric("builder.rows_per_s", "rows/s", "higher"),
    Metric("builder.tail_rebuild_ms_p50", "ms", "lower"),
    Metric("serialization.synopsis_kib", "KiB", "lower"),
    Metric("serialization.serialize_ms", "ms", "lower"),
    Metric("serialization.deserialize_ms", "ms", "lower"),
    Metric("database.execute_ms_p50", "ms", "lower"),
    Metric("database.cache_hit_us_p50", "us", "lower"),
    Metric("database.ingest_ms_p50", "ms", "lower"),
    Metric("concurrency.execute_ms_p50", "ms", "lower"),
    Metric("concurrency.rwlock_ns", "ns", "lower"),
    Metric("server.async_hop_us_p50", "us", "lower"),
    Metric("framing.encode_query_us", "us", "lower"),
    Metric("framing.encode_result_us", "us", "lower"),
    Metric("framing.decode_result_us", "us", "lower"),
    Metric("framing.encode_ingest_ms", "ms", "lower"),
    Metric("framing.decode_ingest_ms", "ms", "lower"),
    Metric("codec.table_mb_per_s", "MB/s", "higher"),
    Metric("cluster.local_query_ms_p50", "ms", "lower"),
    Metric("router.split_us_per_1k_rows", "us", "lower"),
    Metric("gather.plan_us_p50", "us", "lower"),
    Metric("gather.combine_us_p50", "us", "lower"),
    Metric("wal.append_us_p50", "us", "lower"),
    Metric("wal.bytes_per_row", "bytes", "lower"),
    Metric("durable.checkpoint_full_ms", "ms", "lower"),
    Metric("durable.checkpoint_incr_ms", "ms", "lower"),
    Metric("durable.checkpoint_bytes", "bytes", "lower"),
    Metric("durable.open_clean_ms", "ms", "lower"),
    Metric("durable.open_replay_ms", "ms", "lower"),
    Metric("obs.counter_inc_kwargs_ns", "ns", "lower"),
    Metric("obs.counter_inc_bound_ns", "ns", "lower"),
    Metric("obs.histogram_observe_ns", "ns", "lower"),
    Metric("obs.span_us", "us", "lower"),
    Metric("audit.workload_observe_us", "us", "lower"),
)

PER_LAYER = LIFECYCLE_LAYER + TRACED_LAYER + PROBE_LAYER
