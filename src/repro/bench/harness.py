"""Shared infrastructure for the per-table / per-figure experiments.

The paper's evaluation runs on datasets of up to 10^9 rows with synopsis
samples of 10^4–10^6 rows.  Every experiment here is parameterised by an
:class:`ExperimentScale` so the same code can regenerate the paper's tables
and figures at laptop scale (the default) or at a larger scale when more
time is available.  Relative comparisons — who wins, by roughly what factor
— are preserved; absolute numbers shrink with the data.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np

from ..baselines.base import UnsupportedQueryError
from ..core.engine import AqpResult, PairwiseHistEngine
from ..core.params import PairwiseHistParams
from ..data.table import Table
from ..service.database import QueryService
from ..sql.ast import Query, predicate_conditions


@dataclass(frozen=True)
class ExperimentScale:
    """Row counts and sample sizes for one experiment run."""

    #: Rows generated per original dataset.
    dataset_rows: int = 20_000
    #: Rows of the IDEBench-scaled datasets ("1 billion" in the paper).
    scaled_rows: int = 60_000
    #: The paper's "1 million" synopsis sample.
    sample_large: int = 10_000
    #: The paper's "100k" synopsis sample.
    sample_small: int = 3_000
    #: The paper's "10k" synopsis sample (used by DBEst++ and Fig. 8).
    sample_tiny: int = 1_000
    #: RNG seed shared by dataset generation and workloads.
    seed: int = 7


#: What ``REPRO_BENCH_SCALE`` selects.  ``smoke`` is the scale
#: ``benchmarks/results/*.txt`` are recorded at (minutes, preserves relative
#: rankings); ``default`` is tens of minutes, closer to the paper's
#: sample-size ratios; ``paper`` is an overnight run, still far below 10^9 rows.
SCALES = {
    "smoke": ExperimentScale(
        dataset_rows=6_000, scaled_rows=10_000, sample_large=3_000, sample_small=1_500, sample_tiny=600
    ),
    "default": ExperimentScale(),
    "paper": ExperimentScale(
        dataset_rows=200_000,
        scaled_rows=1_000_000,
        sample_large=100_000,
        sample_small=30_000,
        sample_tiny=10_000,
    ),
}


# --------------------------------------------------------------------------- #
# PairwiseHist as an evaluated system: a QueryService at a named configuration

#: Rows per partition of the ``deployed`` configuration (``benchmarks/e2e``'s).
DEPLOYED_PARTITION_ROWS = 10_000


@dataclass
class ServedSystem:
    """Anything with ``execute_scalar`` as a row of a comparison table.

    ``backend`` is a :class:`QueryService` for every cited table; a bare
    :class:`PairwiseHistEngine` only where an ablation needs a stand-alone
    or hand-built synopsis.  ``engine`` is the engine whose synopsis size
    and build time the row reports.
    """

    backend: QueryService | PairwiseHistEngine
    engine: PairwiseHistEngine
    name: str = "PairwiseHist"

    @classmethod
    def serve(
        cls,
        table: Table,
        configuration: str = "paper",
        sample_size: int | None = None,
        params: PairwiseHistParams | None = None,
        partitions: int | None = None,
    ) -> "ServedSystem":
        """Register ``table`` with a fresh service at a named configuration.

        ``paper``: one partition, a synopsis built from ``sample_size``
        sampled rows (or explicit ``params``) — bit-identical to the
        monolithic ``PairwiseHistEngine.from_table``.  ``deployed``:
        10k-row partitions, unsampled — what ``benchmarks/e2e`` serves;
        ``partitions`` overrides the partition count for the sweep.
        """
        if configuration == "paper":
            partition_size = max(table.num_rows, 1)
            params = params or PairwiseHistParams.with_defaults(sample_size=sample_size)
        elif configuration == "deployed":
            partition_size = (
                -(-table.num_rows // partitions) if partitions else DEPLOYED_PARTITION_ROWS
            )
            params = PairwiseHistParams.with_defaults(sample_size=None, seed=1)
        else:
            raise ValueError(f"unknown configuration {configuration!r}")
        service = QueryService(partition_size=partition_size)
        managed = service.register_table(table, params=params)
        return cls(backend=service, engine=managed.engine)

    @property
    def construction_seconds(self) -> float:
        return self.engine.construction_seconds

    def synopsis_bytes(self) -> int:
        return self.engine.synopsis_bytes()

    def compressed_bytes(self) -> int:
        """GreedyGD-compressed size of the rows behind a service-backed row."""
        return self.backend.table(self.engine.table_name).compressed_bytes()

    def estimate(self, query: Query) -> AqpResult:
        if query.group_by is not None:
            raise UnsupportedQueryError("the harness compares non-GROUP BY queries")
        return self.backend.execute_scalar(query)


def workload_templates(queries: list[Query]) -> list[tuple[str, str]]:
    """The (aggregation column, predicate column) templates a workload touches.

    DBEst++ needs one model per template; this mirrors the paper's procedure
    of training every model required to support the evaluated queries.
    """
    templates: dict[tuple[str, str], None] = {}
    for query in queries:
        agg_column = query.aggregation.column
        if agg_column is None:
            continue
        for condition in predicate_conditions(query.predicate):
            if condition.column != agg_column:
                templates.setdefault((agg_column, condition.column))
    return list(templates)


# --------------------------------------------------------------------------- #
# Replica read-scaling benchmark (until a ``replica_reads`` e2e workload exists)


@dataclass
class ShardedThroughputMeasurement:
    """One closed-loop read-only window against a deployment."""

    mode: str  # "1-primary-N-replica"
    num_clients: int
    queries: int
    wall_seconds: float

    @property
    def queries_per_second(self) -> float:
        return self.queries / self.wall_seconds if self.wall_seconds > 0 else 0.0


def _drive_closed_loop(
    execute_query,
    sql_queries: list[str],
    num_clients: int,
    duration_seconds: float,
    mode: str,
) -> ShardedThroughputMeasurement:
    """N closed-loop query clients cycling ``sql_queries`` for a fixed window.

    ``execute_query(sql)`` abstracts the deployment, so every configuration
    sees the identical offered load.
    """
    completed = [0] * num_clients
    failures: list[BaseException] = []
    start = time.perf_counter()
    deadline = start + duration_seconds

    def client(worker: int) -> None:
        step = 0
        try:
            while time.perf_counter() < deadline:
                execute_query(sql_queries[(worker + step * num_clients) % len(sql_queries)])
                completed[worker] += 1
                step += 1
        except BaseException as exc:  # pragma: no cover - surfaced below
            failures.append(exc)

    threads = [
        threading.Thread(target=client, args=(w,), daemon=True)
        for w in range(num_clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall_seconds = time.perf_counter() - start
    if failures:
        raise failures[0]
    return ShardedThroughputMeasurement(
        mode=mode,
        num_clients=num_clients,
        queries=sum(completed),
        wall_seconds=wall_seconds,
    )


def wait_for_replica_catchup(cluster, timeout_seconds: float = 60.0) -> None:
    """Block until every replica's applied LSN matches its primary's durable
    LSN (quiescent cluster), then force a routing-eligibility refresh."""
    from ..cluster.shard import ReplicatedShard

    deadline = time.perf_counter() + timeout_seconds
    for shard in cluster.shards:
        if not isinstance(shard, ReplicatedShard):
            continue
        while True:
            durable = int(shard.primary.call("status").get("durable_lsn", 0))
            applied = [
                int(shard.replicas[slot].call("status").get("applied_lsn", -1))
                for slot in shard.replica_slots()
            ]
            if all(lsn >= durable for lsn in applied):
                break
            if time.perf_counter() > deadline:
                raise TimeoutError(
                    f"replicas of shard {shard.index} never caught up to "
                    f"lsn {durable} within {timeout_seconds:.0f}s "
                    f"(applied: {applied})"
                )
            time.sleep(0.05)
        shard._refresh_eligible()
        shard._next_refresh = time.monotonic() + shard.refresh_interval


def run_replication_benchmark(
    table: Table,
    sql_queries: list[str],
    data_dir,
    replica_counts: tuple[int, ...] = (0, 2),
    params: PairwiseHistParams | None = None,
    partition_size: int = 2_000,
    num_clients: int = 4,
    duration_seconds: float = 8.0,
    catchup_timeout: float = 120.0,
) -> list[ShardedThroughputMeasurement]:
    """Read-only throughput of one shard with varying replica counts.

    Each configuration boots a 1-shard process cluster (primary plus
    ``n`` WAL-shipping read replicas on the same host), registers the
    same table, waits for every replica to catch up, then drives N
    closed-loop query clients with **no** ingest stream — isolating the
    read-scaling effect of routing scatters across the replica set.

    The result cache is disabled on every worker so the measurement
    scales with synopsis evaluation (the paper's workload) rather than
    cache-hit serving, and checkpoints are pushed out of the window.
    """
    from pathlib import Path

    from ..cluster.service import ClusterQueryService
    from ..service.config import ServeConfig

    data_dir = Path(data_dir)
    params = params or PairwiseHistParams.with_defaults(sample_size=None)
    measurements: list[ShardedThroughputMeasurement] = []
    for count in replica_counts:
        cluster = ClusterQueryService(
            num_shards=1,
            path=data_dir / f"replicas-{count}",
            mode="process",
            partition_size=partition_size,
            replicas=count,
            worker=ServeConfig(
                checkpoint_interval=3600.0, workers=num_clients, result_cache_size=0
            ),
        )
        try:
            cluster.register_table(table, params=params)
            wait_for_replica_catchup(cluster, timeout_seconds=catchup_timeout)
            measurements.append(
                _drive_closed_loop(
                    execute_query=cluster.execute,
                    sql_queries=sql_queries,
                    num_clients=num_clients,
                    duration_seconds=duration_seconds,
                    mode=f"1-primary-{count}-replica",
                )
            )
        finally:
            cluster.close()
    return measurements


def format_table(headers: list[str], rows: list[list[str]], title: str | None = None) -> str:
    """Fixed-width table formatting for benchmark output."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def fmt(value: float, digits: int = 2) -> str:
    """Format a float for table cells, handling NaN / inf gracefully."""
    if value is None or not np.isfinite(value):
        return "-"
    return f"{value:.{digits}f}"
