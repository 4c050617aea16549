"""Replica read-scaling benchmark: one shard, N WAL-shipping replicas.

The claim: read-only query throughput of a replicated shard scales with
the replica count, because the staleness-bounded router scatters the
closed-loop clients across the primary *and* every caught-up follower —
three worker processes evaluating synopses instead of one.

The acceptance bar is tiered by usable CPUs:

* >= 4 CPUs (the CI failover-drill job): 1 primary + 2 replicas must
  deliver >= 1.8x the queries/s of the primary alone — the router keeps
  all three processes busy and loses at most ~10% per process to the
  front end and driver sharing cores.
* 2-3 CPUs: the replicas parallelize but contend with the driver; the
  replicated deployment must at least break even (>= 1.05x).
* 1 CPU: three processes time-slice one core, so there is nothing to
  harvest and every query still pays the two extra wire hops; the
  deployment must merely stay within a bounded overhead of the lone
  primary (measured 0.45x when frozen — context-switch churn across
  three interpreters dominates at ~1ms/query) and the measured ratio
  is recorded with an explicit note.

Both deployments run with the result cache off and checkpoints pushed
out of the window, so the ratio measures multi-process synopsis
evaluation, not cache hits (``benchmarks/e2e`` reports those as
``database.cache_hit_us_p50`` and ``dash_templated``).

This file stays only until ``benchmarks/e2e`` has a ``replica_reads``
workload; it is the last machine-dependent timing test outside it.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest
from bench_utils import bench_scale, record, record_json

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from repro import load_dataset  # noqa: E402
from repro.bench.harness import fmt, format_table, run_replication_benchmark  # noqa: E402
from repro.core.params import PairwiseHistParams  # noqa: E402
from repro.workload.generator import QueryGenerator, WorkloadSpec  # noqa: E402

ROWS = 30_000
PARTITION_SIZE = 2_000
WINDOW_SECONDS = 8.0
NUM_CLIENTS = 4
REPLICAS = 2
#: >= 4 usable CPUs: primary + 2 replicas + driver each get a core.
REQUIRED_MULTICORE_SPEEDUP = 1.8
#: 2-3 CPUs: partial parallelism; must at least break even.
REQUIRED_DUAL_CORE_FLOOR = 1.05
#: 1 CPU: no parallelism to harvest; bounded routing/scheduling overhead
#: (0.45x measured when frozen, with headroom for a noisy box).
REQUIRED_SINGLE_CORE_FLOOR = 0.35


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-linux
        return os.cpu_count() or 1


def _required_ratio(cpus: int) -> float:
    if cpus >= 4:
        return REQUIRED_MULTICORE_SPEEDUP
    if cpus >= 2:
        return REQUIRED_DUAL_CORE_FLOOR
    return REQUIRED_SINGLE_CORE_FLOOR


@pytest.mark.slow
def test_replica_read_scaling(tmp_path):
    scale = bench_scale()
    table = load_dataset("power", rows=ROWS, seed=scale.seed)
    spec = WorkloadSpec.initial_experiments(num_queries=20, seed=scale.seed)
    sql_queries = [str(q) for q in QueryGenerator(table, spec).generate()]
    params = PairwiseHistParams(sample_size=None, min_points=200, seed=scale.seed)

    measurements = run_replication_benchmark(
        table,
        sql_queries,
        tmp_path,
        replica_counts=(0, REPLICAS),
        params=params,
        partition_size=PARTITION_SIZE,
        num_clients=NUM_CLIENTS,
        duration_seconds=WINDOW_SECONDS,
    )
    alone = next(m for m in measurements if m.mode == "1-primary-0-replica")
    replicated = next(
        m for m in measurements if m.mode == f"1-primary-{REPLICAS}-replica"
    )
    ratio = replicated.queries_per_second / alone.queries_per_second
    cpus = _usable_cpus()
    required = _required_ratio(cpus)

    rows = [
        [m.mode, str(m.num_clients), str(m.queries), fmt(m.queries_per_second, 1)]
        for m in measurements
    ]
    rows.append([f"read speedup ({cpus} cpu)", "-", "-", f"{ratio:.2f}x"])
    note = (
        f"bar >= {required}x at {cpus} usable CPU(s)"
        if cpus >= 4
        else f"{cpus} usable CPU(s): floor >= {required}x here; the "
        f"{REQUIRED_MULTICORE_SPEEDUP}x scaling bar is enforced on the "
        "multi-core CI failover-drill job"
    )
    record(
        "replication_read_scaling",
        format_table(
            ["deployment", "clients", "queries", "queries/s"],
            rows,
            title=(
                f"Read-only throughput, 1-shard cluster with {REPLICAS} "
                f"WAL-shipping replicas vs primary alone ({ROWS} rows power, "
                f"{NUM_CLIENTS} closed-loop clients, {WINDOW_SECONDS:.0f}s "
                f"window, result cache off; {note})"
            ),
        ),
    )
    record_json(
        "replication_read_scaling",
        {
            "rows": ROWS,
            "num_clients": NUM_CLIENTS,
            "replicas": REPLICAS,
            "window_seconds": WINDOW_SECONDS,
            "usable_cpus": cpus,
            "required_ratio": required,
            "ratio": ratio,
            "deployments": [
                {
                    "mode": m.mode,
                    "queries": m.queries,
                    "queries_per_second": m.queries_per_second,
                    "wall_seconds": m.wall_seconds,
                }
                for m in measurements
            ],
        },
    )
    assert ratio >= required, (
        f"1-primary-{REPLICAS}-replica read throughput ratio {ratio:.2f}x "
        f"below the {required}x bar at {cpus} usable CPU(s)"
    )
