"""The per-layer probe: time each layer's public call from outside, in the
generator process, on the same generated table, statements and batches the
lifecycle workloads use.  Layer names are this repo's modules.

Each probe makes at least ``MIN_CALLS`` calls and stops after ``MAX_CALLS``
or ``BUDGET_S`` seconds; calls that take a second or more (compress, build,
checkpoint, open) are made once.  The whole probe has to fit beside a traced
lifecycle in one run of the driver.
"""

from __future__ import annotations

import asyncio
import shutil
import time
from pathlib import Path

import numpy as np

import stats
from lifecycle import make_inputs
from servers import directory_bytes
from spec import TABLE, Scale

from repro import (
    ConcurrentQueryService,
    ExactQueryEngine,
    PairwiseHist,
    PairwiseHistParams,
    PartitionedStore,
    QueryService,
    ReadWriteLock,
    deserialize_partitioned,
    parse_query,
    serialize_partitioned,
)
from repro.audit import WorkloadLog
from repro.cluster import ClusterQueryService, ShardRouter
from repro.cluster.gather import ShardAnswer, gather_scalar, plan_query
from repro.core.builder import (
    build_partition_synopses,
    build_partitioned_hist,
    snapshot_partition_input,
)
from repro.gd.greedygd import select_deviation_bits
from repro.obs import tracing
from repro.obs.metrics import MetricsRegistry
from repro.service import framing
from repro.service.database import Database
from repro.service.server import AsyncQueryService, encode_result
from repro.sql.parser import parse_query_cached
from repro.storage.codec import decode_table, encode_ingest_payload, encode_table
from repro.storage.durable import WAL_INGEST
from repro.storage.wal import WriteAheadLog

MIN_CALLS, MAX_CALLS, BUDGET_S = 3, 200, 0.25
#: Statements per per-statement probe.
STATEMENTS_PER_PROBE = 300
clock = time.perf_counter


def once(fn):
    """(seconds, result) of one call."""
    start = clock()
    result = fn()
    return clock() - start, result


def repeat(fn) -> list[float]:
    """Seconds per call of ``fn()``, within the probe's call and time budget."""
    samples: list[float] = []
    deadline = clock() + BUDGET_S
    while len(samples) < MIN_CALLS or (len(samples) < MAX_CALLS and clock() < deadline):
        samples.append(once(fn)[0])
    return samples


def each(fn, items) -> list[float]:
    """Seconds per call of ``fn(item)``, one call per item."""
    return [once(lambda item=item: fn(item))[0] for item in items]


def per_call_ns(fn) -> float:
    """Median over 5 loops of 5,000 calls, for work too short to time singly."""
    loops = []
    for _ in range(5):
        start = clock()
        for _ in range(5_000):
            fn()
        loops.append((clock() - start) / 5_000 * 1e9)
    return stats.median(loops)


def probe_layers(seed: int, seconds: int, scale: Scale, out_dir: Path) -> dict[str, float]:
    out_dir.mkdir(parents=True, exist_ok=True)
    scratch = out_dir / f"probe-seed{seed}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir()
    try:
        return _probe(make_inputs(seed, seconds, scale), scale, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _probe(inputs, scale: Scale, scratch: Path) -> dict[str, float]:
    v: dict[str, float] = {}
    base, batches = inputs.base, inputs.batches
    params = PairwiseHistParams.with_defaults(sample_size=None, seed=1)
    templates = inputs.sqls[: scale.templates]
    # Three disjoint slices of never-seen statements, so that each service's
    # first pass misses the parse cache and its own result cache.
    pool = inputs.sqls[scale.templates :]
    per_probe = min(STATEMENTS_PER_PROBE, len(pool) // 3)
    slice_a, slice_b, slice_c = (pool[i * per_probe : (i + 1) * per_probe] for i in range(3))
    queries = inputs.queries[:per_probe]
    raw_bytes = len(encode_table(base))

    # ---- sql
    v["sql.parse_us_p50"] = stats.median(each(parse_query, inputs.sqls)) * 1e6
    for sql in templates:
        parse_query_cached(sql)
    v["sql.parse_cached_us_p50"] = stats.median(each(parse_query_cached, templates * 5)) * 1e6

    # ---- gd
    seconds, store = once(lambda: PartitionedStore.compress(base, scale.partition_size))
    v["gd.compress_s"] = seconds
    v["gd.compress_rows_per_s"] = base.num_rows / seconds
    v["gd.compression_ratio"] = store.compression_ratio(raw_bytes)
    chunk = base.select_rows(np.arange(min(scale.partition_size, base.num_rows)))
    codes, _ = store.preprocessor.transform_table(chunk)
    bits = store.preprocessor.bits_per_column()
    matrix = np.column_stack([codes[name] for name in store.column_order])
    total_bits = np.array([bits[name] for name in store.column_order], dtype=np.int64)
    v["gd.bit_search_s"] = once(lambda: select_deviation_bits(matrix, total_bits))[0]

    # ---- builder
    part_inputs = [snapshot_partition_input(store, part) for part in store.partitions]
    seconds, _ = once(lambda: build_partitioned_hist(part_inputs, params, columns=store.column_order))
    v["builder.build_s"] = seconds
    v["builder.rows_per_s"] = base.num_rows / seconds
    v["gd.append_ms_p50"] = stats.median(each(store.append, batches[:5])) * 1e3

    # ---- durable database under the three in-process service layers
    db = Database.open(scratch / "db", partition_size=scale.partition_size)
    plain = QueryService(database=db)
    concurrent = ConcurrentQueryService(database=db)
    concurrent.register_table(base, params=params, partition_size=scale.partition_size)
    managed = db.table(TABLE)
    seconds, _ = once(db.checkpoint)
    v["durable.checkpoint_full_ms"] = seconds * 1e3
    v["durable.checkpoint_bytes"] = directory_bytes(scratch / "db")

    synopses = list(managed.partition_synopses)
    tail = snapshot_partition_input(managed.store, managed.store.partitions[-1])

    def rebuild_tail():
        rebuilt = build_partition_synopses(
            [tail], params, columns=managed.store.column_order, total_rows=managed.store.num_rows
        )
        PairwiseHist.merge(synopses[:-1] + rebuilt, params=params)

    v["builder.tail_rebuild_ms_p50"] = stats.median(repeat(rebuild_tail)) * 1e3
    payload = serialize_partitioned(synopses)
    v["serialization.synopsis_kib"] = len(payload) / 1024
    v["serialization.serialize_ms"] = stats.median(repeat(lambda: serialize_partitioned(synopses))) * 1e3
    v["serialization.deserialize_ms"] = stats.median(repeat(lambda: deserialize_partitioned(payload))) * 1e3

    # ---- engine against exactdb
    engine = db.engine(TABLE)
    answers = []
    engine_s = each(lambda q: answers.append(engine.execute(q)[0]), queries)
    exact = ExactQueryEngine(base)
    truths = []
    exact_s = each(lambda q: truths.append(exact.execute(q)[0]), queries)
    v["engine.execute_ms_p50"] = stats.percentile(engine_s, 50) * 1e3
    v["engine.execute_ms_p90"] = stats.percentile(engine_s, 90) * 1e3
    v["exactdb.execute_ms_p50"] = stats.median(exact_s) * 1e3
    v["engine.speedup_vs_exact"] = stats.median(exact_s) / stats.median(engine_s)
    scored = [
        stats.score(a.value, a.lower, a.upper, t.value)
        for a, t in zip(answers, truths)
        if not t.is_empty and t.value != 0 and np.isfinite(t.value)
    ]
    v["engine.rel_error_pct"] = stats.median([error for error, _ in scored])
    v["engine.bound_hit_rate"] = float(np.mean([hit for _, hit in scored]))

    # ---- database / concurrency / asyncio hop
    v["database.execute_ms_p50"] = stats.median(each(plain.execute_scalar, slice_a)) * 1e3
    for sql in templates:
        plain.execute_scalar(sql)
    v["database.cache_hit_us_p50"] = stats.median(each(plain.execute_scalar, templates * 5)) * 1e6
    v["concurrency.execute_ms_p50"] = stats.median(each(concurrent.execute_scalar, slice_b)) * 1e3
    lock = ReadWriteLock()

    def read_lock_cycle():
        lock.acquire_read()
        lock.release_read()

    v["concurrency.rwlock_ns"] = per_call_ns(read_lock_cycle)

    async def hop() -> list[float]:
        async with AsyncQueryService(service=concurrent) as service:
            samples = []
            for sql in slice_c:
                start = clock()
                await service.query_scalar(sql)
                samples.append(clock() - start)
            return samples

    v["server.async_hop_us_p50"] = stats.median(asyncio.run(hop())) * 1e6 - v["concurrency.execute_ms_p50"] * 1e3

    # ---- framing and codec
    batch = batches[5]
    result = concurrent.execute(slice_a[0])
    wire_result = framing.encode_result(encode_result(result))
    ingest_frame = framing.encode_ingest(TABLE, batch)
    table_bytes = encode_table(batch)
    v["framing.encode_query_us"] = per_call_ns(
        lambda: framing.encode_frame(framing.OP_QUERY, 1, framing.encode_query(slice_a[0]))
    ) / 1e3
    v["framing.encode_result_us"] = per_call_ns(lambda: framing.encode_result(encode_result(result))) / 1e3
    v["framing.decode_result_us"] = per_call_ns(lambda: framing.decode_result(wire_result)) / 1e3
    v["framing.encode_ingest_ms"] = stats.median(repeat(lambda: framing.encode_ingest(TABLE, batch))) * 1e3
    v["framing.decode_ingest_ms"] = stats.median(repeat(lambda: framing.decode_ingest(ingest_frame))) * 1e3
    round_trip_s = stats.median(repeat(lambda: encode_table(batch))) + stats.median(
        repeat(lambda: decode_table(memoryview(table_bytes)))
    )
    v["codec.table_mb_per_s"] = len(table_bytes) / 1e6 / round_trip_s

    # ---- ingest, incremental checkpoint, recovery
    v["database.ingest_ms_p50"] = stats.median(each(lambda b: plain.ingest(TABLE, b), batches[:5])) * 1e3
    v["durable.checkpoint_incr_ms"] = once(db.checkpoint)[0] * 1e3
    db.close()

    def open_and_answer():
        opened = Database.open(scratch / "db", partition_size=scale.partition_size)
        QueryService(database=opened).execute_scalar(templates[0])
        return opened

    seconds, db = once(open_and_answer)
    v["durable.open_clean_ms"] = seconds * 1e3
    writer = QueryService(database=db)
    for extra in batches[6:16]:  # recovery replays these ten from the WAL
        writer.ingest(TABLE, extra)
    db.close()
    seconds, db = once(open_and_answer)
    v["durable.open_replay_ms"] = seconds * 1e3
    db.close()

    # ---- wal
    wal_payload = encode_ingest_payload(TABLE, batch)
    with WriteAheadLog(scratch / "wal") as wal:
        appends = repeat(lambda: wal.append(WAL_INGEST, wal_payload))
    v["wal.append_us_p50"] = stats.median(appends) * 1e6
    v["wal.bytes_per_row"] = directory_bytes(scratch / "wal") / len(appends) / batch.num_rows

    # ---- cluster, without processes: gather and companion queries only
    cluster = ClusterQueryService(num_shards=2, mode="local", partition_size=scale.partition_size)
    try:
        cluster.register_table(base, params=params)
        v["cluster.local_query_ms_p50"] = stats.median(each(cluster.query, slice_a)) * 1e3
    finally:
        cluster.close()
    router = ShardRouter(2)
    v["router.split_us_per_1k_rows"] = stats.median(repeat(lambda: router.split(batch))) * 1e6 / (batch.num_rows / 1000)
    plans = [plan_query(query) for query in queries]
    v["gather.plan_us_p50"] = stats.median(each(plan_query, queries)) * 1e6
    shard_answer = ShardAnswer(value=10.0, lower=5.0, upper=15.0)

    def combine(plan):
        row = [shard_answer] * len(plan.scattered.aggregations)
        gather_scalar(plan, [row, row])

    v["gather.combine_us_p50"] = stats.median(each(combine, plans)) * 1e6

    # ---- obs and audit
    registry = MetricsRegistry(enabled=True)
    counter = registry.counter("probe_total", "", ("kind",))
    bound_counter = counter.labels(kind="query")
    bound_histogram = registry.histogram("probe_seconds", "", ()).labels()
    v["obs.counter_inc_kwargs_ns"] = per_call_ns(lambda: counter.inc(kind="query"))
    v["obs.counter_inc_bound_ns"] = per_call_ns(bound_counter.inc)
    v["obs.histogram_observe_ns"] = per_call_ns(lambda: bound_histogram.observe(0.001))

    def open_close_span():
        with tracing.root_span("probe"):
            pass

    v["obs.span_us"] = per_call_ns(open_close_span) / 1e3
    log = WorkloadLog()
    for sql in templates:
        log.observe(sql, 0.001)
    v["audit.workload_observe_us"] = stats.median(each(lambda sql: log.observe(sql, 0.001), templates * 5)) * 1e6
    return v
