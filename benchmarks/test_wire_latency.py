"""Fast-wire-path latency benchmarks: pipelining, cluster p50, result cache.

Three claims from the binary-protocol PR, each recorded as a rendered
table (``benchmarks/results/*.txt``) plus a machine-readable JSON payload
(``*.json``) with latency percentiles and throughput:

* **Pipelining** — a :class:`PipelinedClient` issuing many in-flight
  binary frames over one loopback connection completes a repeated-query
  workload at >= 2x the throughput of a serialized JSON-lines client
  (the raw-socket helper the tests use: one request-response turnaround
  at a time), against the identical single-process server.
* **Cluster latency** — the small-query p50 through a 2-shard subprocess
  cluster (scatter over the multiplexed binary channels + gather) stays
  within 2x of querying one single-process server directly.  On a 1-CPU
  host the two worker processes and the driver share one core, so the
  bar degrades to a documented floor — the same policy as the sharded
  throughput benchmark.
* **Result cache** — a repeated query is served from the
  synopsis-version-keyed cache in well under 0.1 ms, returns the
  bit-identical result an uncached execution produces, and an ingest
  (version bump) invalidates it: the re-query matches a cache-bypassing
  execution exactly.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from pathlib import Path

import pytest
from bench_utils import record, record_json

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from conftest import JsonLinesClient, make_simple_table  # noqa: E402  (tests/ dir, see above)

from repro import PairwiseHistParams, QueryService  # noqa: E402
from repro.bench.harness import fmt, format_table, latency_percentiles  # noqa: E402
from repro.cluster import ClusterQueryService  # noqa: E402
from repro.cluster.supervisor import ShardSupervisor  # noqa: E402
from repro.service.wire import PipelinedClient  # noqa: E402

ROWS = 20_000
PARTITION_SIZE = 1_000
NUM_SHARDS = 2

#: Pipelined-vs-serialized workload: a dashboard cycling a small set of
#: query strings (cache hits after the first round — the wire dominates).
PIPELINE_SQLS = [
    f"SELECT AVG(x) FROM stream WHERE y > {threshold}"
    for threshold in (10, 20, 30, 40, 50, 60, 70, 80)
]
PIPELINE_TOTAL = 200
#: Measurement rounds per client; the best round is scored (the standard
#: guard against scheduler jitter on a ~20 ms window).
PIPELINE_ROUNDS = 3
#: Throughput bar with >= 2 usable CPUs: client-side encode and the
#: server's frame handling overlap, which is what pipelining buys.
REQUIRED_PIPELINE_SPEEDUP = 2.0
#: One CPU: client and server time-slice a single core, so the win
#: reduces to the saved turnarounds + JSON codec (measured ~1.9-2.0x
#: when frozen); bound it rather than assert overlap that cannot exist.
SINGLE_CORE_PIPELINE_FLOOR = 1.4

#: Cluster-p50 workload: distinct thresholds so every query pays real
#: synopsis work, not just a cache lookup.
CLUSTER_QUERY_COUNT = 60
CLUSTER_WARMUP = 10
#: p50 bar with >= 2 usable CPUs (the worker processes get their own core).
REQUIRED_CLUSTER_P50_RATIO = 2.0
#: One CPU: both workers and the driver time-slice a single core, so the
#: scatter adds scheduling latency no protocol can hide; bounded overhead
#: is all that can be asserted (measured ~2.2x when frozen).
SINGLE_CORE_CLUSTER_P50_FLOOR = 4.0

CACHE_HIT_BUDGET_MS = 0.1


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-linux
        return os.cpu_count() or 1


def _params() -> PairwiseHistParams:
    return PairwiseHistParams.with_defaults(sample_size=None, seed=1)


@pytest.mark.slow
def test_pipelined_binary_client_beats_serialized_json_client(tmp_path):
    supervisor = ShardSupervisor(
        data_dirs=[tmp_path / "single"],
        partition_size=PARTITION_SIZE,
        checkpoint_interval=3600.0,
        workers_per_shard=4,
    )
    try:
        handle = supervisor.spawn(0)
        address = (supervisor.host, handle.port)
        table = make_simple_table(rows=ROWS, seed=50, name="stream")
        with PipelinedClient(*address) as admin:
            admin.register(table, params=_params(), partition_size=PARTITION_SIZE)

        # Warm every query once (parse + result caches on the server), so
        # both measurements see the identical steady-state wire path.
        with PipelinedClient(*address) as warm:
            expected = {sql: warm.query(sql) for sql in PIPELINE_SQLS}

        workload = [
            PIPELINE_SQLS[i % len(PIPELINE_SQLS)] for i in range(PIPELINE_TOTAL)
        ]

        serial_walls, pipelined_walls = [], []
        serial_latencies: list[float] = []
        with JsonLinesClient(*address) as serialized:
            for _ in range(PIPELINE_ROUNDS):
                round_latencies = []
                start = time.perf_counter()
                for sql in workload:
                    began = time.perf_counter()
                    assert serialized.query(sql) == expected[sql]
                    round_latencies.append(time.perf_counter() - began)
                serial_walls.append(time.perf_counter() - start)
                serial_latencies = round_latencies

        with PipelinedClient(*address) as pipelined:
            for _ in range(PIPELINE_ROUNDS):
                start = time.perf_counter()
                futures = [(sql, pipelined.submit_query(sql)) for sql in workload]
                for sql, future in futures:
                    assert future.result(timeout=30.0) == expected[sql]
                pipelined_walls.append(time.perf_counter() - start)
    finally:
        supervisor.stop(graceful=True)

    serial_wall = min(serial_walls)
    pipelined_wall = min(pipelined_walls)
    serial_qps = PIPELINE_TOTAL / serial_wall
    pipelined_qps = PIPELINE_TOTAL / pipelined_wall
    speedup = pipelined_qps / serial_qps
    serial_pcts = latency_percentiles(serial_latencies)
    cpus = _usable_cpus()
    required = (
        REQUIRED_PIPELINE_SPEEDUP if cpus >= 2 else SINGLE_CORE_PIPELINE_FLOOR
    )
    note = (
        f"bar >= {required}x at {cpus} usable CPU(s)"
        if cpus >= 2
        else f"{cpus} usable CPU: floor >= {required}x here; the "
        f"{REQUIRED_PIPELINE_SPEEDUP}x overlap bar is enforced on the "
        "multi-core CI latency job"
    )

    record(
        "wire_latency_pipelining",
        format_table(
            ["client", "queries", "wall s", "queries/s", "p50 ms"],
            [
                [
                    "serialized JSON-lines",
                    str(PIPELINE_TOTAL),
                    fmt(serial_wall, 3),
                    fmt(serial_qps, 0),
                    fmt(serial_pcts["p50_ms"], 3),
                ],
                [
                    "pipelined binary",
                    str(PIPELINE_TOTAL),
                    fmt(pipelined_wall, 3),
                    fmt(pipelined_qps, 0),
                    "-",
                ],
                ["speedup", "-", "-", f"{speedup:.2f}x", "-"],
            ],
            title=(
                f"Pipelined binary vs serialized JSON client, one loopback "
                f"connection, {PIPELINE_TOTAL} warm queries over "
                f"{len(PIPELINE_SQLS)} distinct SQL strings, best of "
                f"{PIPELINE_ROUNDS} rounds ({note})"
            ),
        ),
    )
    record_json(
        "wire_latency_pipelining",
        {
            "total_queries": PIPELINE_TOTAL,
            "distinct_sqls": len(PIPELINE_SQLS),
            "serialized": {
                "wall_seconds": serial_wall,
                "queries_per_second": serial_qps,
                "latency": serial_pcts,
            },
            "pipelined": {
                "wall_seconds": pipelined_wall,
                "queries_per_second": pipelined_qps,
            },
            "speedup": speedup,
            "usable_cpus": cpus,
            "required_speedup": required,
        },
    )
    assert speedup >= required, (
        f"pipelined binary client reached only {speedup:.2f}x the serialized "
        f"JSON client ({pipelined_qps:.0f} vs {serial_qps:.0f} queries/s) on "
        f"{cpus} usable CPU(s); required >= {required}x"
    )


@pytest.mark.slow
def test_cluster_small_query_p50_within_bar_of_single_node(tmp_path):
    table = make_simple_table(rows=ROWS, seed=50, name="stream")
    sqls = [
        f"SELECT AVG(x) FROM stream WHERE y > {90 * i / CLUSTER_QUERY_COUNT:.3f}"
        for i in range(CLUSTER_QUERY_COUNT)
    ]

    # ---- single-node: one subprocess server, direct binary client ------- #
    supervisor = ShardSupervisor(
        data_dirs=[tmp_path / "single"],
        partition_size=PARTITION_SIZE,
        checkpoint_interval=3600.0,
        workers_per_shard=4,
    )
    try:
        handle = supervisor.spawn(0)
        with PipelinedClient(supervisor.host, handle.port) as admin:
            admin.register(table, params=_params(), partition_size=PARTITION_SIZE)
        with PipelinedClient(supervisor.host, handle.port) as client:
            for sql in sqls[:CLUSTER_WARMUP]:
                client.query(sql)
            single_latencies = []
            for sql in sqls:
                began = time.perf_counter()
                client.query(sql)
                single_latencies.append(time.perf_counter() - began)
    finally:
        supervisor.stop(graceful=True)

    # ---- 2-shard cluster: scatter-gather over multiplexed channels ------ #
    cluster = ClusterQueryService(
        num_shards=NUM_SHARDS,
        path=tmp_path / "cluster",
        mode="process",
        partition_size=PARTITION_SIZE,
        worker_options={"checkpoint_interval": 3600.0, "workers_per_shard": 4},
    )
    try:
        cluster.register_table(table, params=_params())
        for sql in sqls[:CLUSTER_WARMUP]:
            cluster.execute(sql)
        cluster_latencies = []
        for sql in sqls:
            began = time.perf_counter()
            cluster.execute(sql)
            cluster_latencies.append(time.perf_counter() - began)
    finally:
        cluster.close()

    single = latency_percentiles(single_latencies)
    clustered = latency_percentiles(cluster_latencies)
    ratio = clustered["p50_ms"] / single["p50_ms"]
    cpus = _usable_cpus()
    required = (
        REQUIRED_CLUSTER_P50_RATIO if cpus >= 2 else SINGLE_CORE_CLUSTER_P50_FLOOR
    )
    note = (
        f"bar <= {required}x at {cpus} usable CPU(s)"
        if cpus >= 2
        else f"{cpus} usable CPU: floor <= {required}x here; the "
        f"{REQUIRED_CLUSTER_P50_RATIO}x bar is enforced on the multi-core "
        "CI latency job"
    )

    record(
        "wire_latency_cluster_p50",
        format_table(
            ["deployment", "p50 ms", "p90 ms", "p99 ms"],
            [
                ["single-process"]
                + [fmt(single[k], 3) for k in ("p50_ms", "p90_ms", "p99_ms")],
                [f"{NUM_SHARDS}-shard cluster"]
                + [fmt(clustered[k], 3) for k in ("p50_ms", "p90_ms", "p99_ms")],
                ["p50 ratio", f"{ratio:.2f}x", "-", "-"],
            ],
            title=(
                f"Small-query latency, {NUM_SHARDS}-shard subprocess cluster vs "
                f"one single-process server ({ROWS} rows, "
                f"{CLUSTER_QUERY_COUNT} distinct queries; {note})"
            ),
        ),
    )
    record_json(
        "wire_latency_cluster_p50",
        {
            "num_shards": NUM_SHARDS,
            "usable_cpus": cpus,
            "queries": CLUSTER_QUERY_COUNT,
            "single_node": single,
            "cluster": clustered,
            "p50_ratio": ratio,
            "required_ratio": required,
        },
    )
    assert ratio <= required, (
        f"{NUM_SHARDS}-shard cluster p50 is {ratio:.2f}x the single-node p50 "
        f"({clustered['p50_ms']:.3f} vs {single['p50_ms']:.3f} ms) on {cpus} "
        f"usable CPU(s); required <= {required}x"
    )


@pytest.mark.slow
def test_result_cache_hit_is_fast_identical_and_invalidated_by_ingest():
    service = QueryService(partition_size=PARTITION_SIZE)
    service.register_table(
        make_simple_table(rows=4_000, seed=50, name="stream"), params=_params()
    )
    uncached = QueryService(database=service.database, result_cache_size=0)
    sql = "SELECT AVG(x) FROM stream WHERE y > 50"

    first = service.execute_scalar(sql)  # the miss that populates the cache
    hit_timings = []
    for _ in range(50):
        began = time.perf_counter()
        hit = service.execute_scalar(sql)
        hit_timings.append(time.perf_counter() - began)
        assert hit is first  # the exact object — bit-identical by construction
    hit_ms = statistics.median(hit_timings) * 1e3
    assert service.cache_stats["stream"] == {"hits": 50, "misses": 1}

    # A hit equals what a cache-bypassing service answers over the same
    # database, field for field.
    bypass = uncached.execute_scalar(sql)
    assert (first.value, first.lower, first.upper) == (
        bypass.value,
        bypass.lower,
        bypass.upper,
    )

    # Ingest bumps the synopsis version: the next lookup misses and the
    # fresh answer again matches the cache-bypassing execution exactly.
    service.ingest("stream", make_simple_table(rows=400, seed=9, name="stream"))
    requeried = service.execute_scalar(sql)
    assert requeried is not first
    assert service.cache_stats["stream"]["misses"] == 2
    bypass_after = uncached.execute_scalar(sql)
    assert (requeried.value, requeried.lower, requeried.upper) == (
        bypass_after.value,
        bypass_after.lower,
        bypass_after.upper,
    )

    record(
        "wire_latency_result_cache",
        format_table(
            ["metric", "value"],
            [
                ["median hit latency (ms)", fmt(hit_ms, 4)],
                ["budget (ms)", fmt(CACHE_HIT_BUDGET_MS, 1)],
                ["hits", "50"],
                ["misses (initial + post-ingest)", "2"],
            ],
            title="Synopsis-version result cache: hit latency and invalidation",
        ),
    )
    record_json(
        "wire_latency_result_cache",
        {
            "median_hit_ms": hit_ms,
            "budget_ms": CACHE_HIT_BUDGET_MS,
            "hits": 50,
            "misses": 2,
        },
    )
    assert hit_ms < CACHE_HIT_BUDGET_MS, (
        f"median cache-hit latency {hit_ms:.4f} ms exceeds the "
        f"{CACHE_HIT_BUDGET_MS} ms budget"
    )
