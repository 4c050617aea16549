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
from dataclasses import dataclass, field

import numpy as np

from ..baselines.adapter import PairwiseHistSystem
from ..baselines.base import AqpSystem
from ..baselines.dbest import DBEstPlusPlusLike
from ..baselines.deepdb import DeepDBLike
from ..baselines.sampling_aqp import SamplingAQP
from ..core.params import PairwiseHistParams
from ..data.datasets import load_dataset
from ..data.idebench import scale_dataset
from ..data.table import Table
from ..service.concurrency import ConcurrentQueryService
from ..service.database import Database, IngestResult, QueryService
from ..service.system import QueryServiceSystem
from ..sql.ast import Query, predicate_conditions
from ..workload.generator import QueryGenerator, WorkloadSpec
from ..workload.metrics import WorkloadSummary
from ..workload.runner import WorkloadRunner


@dataclass(frozen=True)
class ExperimentScale:
    """Row counts / sample sizes / workload sizes for one experiment run."""

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
    #: Queries per workload.
    queries: int = 40
    #: RNG seed shared by dataset generation and workloads.
    seed: int = 7

    @classmethod
    def smoke(cls) -> "ExperimentScale":
        """Tiny scale used by the unit/integration tests."""
        return cls(
            dataset_rows=6_000,
            scaled_rows=10_000,
            sample_large=3_000,
            sample_small=1_500,
            sample_tiny=600,
            queries=15,
            seed=7,
        )

    @classmethod
    def default(cls) -> "ExperimentScale":
        """Laptop-scale default used by the benchmark suite."""
        return cls()

    @classmethod
    def paper(cls) -> "ExperimentScale":
        """A larger configuration for overnight runs (still far below 10^9 rows)."""
        return cls(
            dataset_rows=200_000,
            scaled_rows=1_000_000,
            sample_large=100_000,
            sample_small=30_000,
            sample_tiny=10_000,
            queries=200,
            seed=7,
        )


@dataclass
class SystemSuite:
    """The set of AQP systems compared in one experiment."""

    systems: list[AqpSystem] = field(default_factory=list)

    def __iter__(self):
        return iter(self.systems)

    def by_name(self, name: str) -> AqpSystem:
        for system in self.systems:
            if system.name == name:
                return system
        raise KeyError(f"no system named {name!r}")

    @property
    def names(self) -> list[str]:
        return [s.name for s in self.systems]


def workload_templates(queries: list[Query]) -> list[tuple[str, str]]:
    """The (aggregation column, predicate column) templates a workload touches.

    DBEst++ needs one model per template; this mirrors the paper's procedure
    of training every model required to support the evaluated queries.
    """
    templates: list[tuple[str, str]] = []
    for query in queries:
        agg_column = query.aggregation.column
        if agg_column is None:
            continue
        for condition in predicate_conditions(query.predicate):
            pair = (agg_column, condition.column)
            if pair not in templates and pair[0] != pair[1]:
                templates.append(pair)
    return templates


def build_suite(
    table: Table,
    scale: ExperimentScale,
    queries: list[Query] | None = None,
    include_sampling: bool = False,
    include_partitioned: bool = False,
    pairwisehist_sample: int | None = None,
    deepdb_sample: int | None = None,
    dbest_sample: int | None = None,
    partition_size: int | None = None,
) -> SystemSuite:
    """Build the PairwiseHist / DeepDB / DBEst++ (/ Sampling) suite for one table.

    ``include_partitioned=True`` adds the service-backed partitioned engine
    (parallel per-partition synopses merged into one), the configuration the
    streaming / multi-table benchmarks compare against the monolith.
    """
    ph_sample = pairwisehist_sample or scale.sample_large
    dd_sample = deepdb_sample or scale.sample_large
    db_sample = dbest_sample or scale.sample_tiny
    templates = workload_templates(queries) if queries else None
    systems: list[AqpSystem] = [
        PairwiseHistSystem.fit(table, sample_size=ph_sample),
        DeepDBLike.fit(table, sample_size=dd_sample),
        DBEstPlusPlusLike.fit(table, sample_size=db_sample, templates=templates),
    ]
    if include_partitioned:
        systems.append(
            QueryServiceSystem.fit(
                table, sample_size=ph_sample, partition_size=partition_size
            )
        )
    if include_sampling:
        systems.append(SamplingAQP.fit(table, sample_size=ph_sample))
    return SystemSuite(systems)


def generate_workload(
    table: Table, scale: ExperimentScale, spec: WorkloadSpec | None = None
) -> list[Query]:
    """Generate a workload for a table using the experiment scale's defaults."""
    if spec is None:
        spec = WorkloadSpec.initial_experiments(num_queries=scale.queries, seed=scale.seed)
    generator = QueryGenerator(table, spec)
    return generator.generate()


def load_scaled_dataset(name: str, scale: ExperimentScale) -> Table:
    """The paper's IDEBench scale-up: fit the original and sample more rows."""
    original = load_dataset(name, rows=scale.dataset_rows, seed=scale.seed)
    return scale_dataset(original, rows=scale.scaled_rows, seed=scale.seed, name=f"{name}_scaled")


def run_suite(
    table: Table, suite: SystemSuite, queries: list[Query]
) -> dict[str, WorkloadSummary]:
    """Run the workload against every system in the suite."""
    runner = WorkloadRunner(table)
    return runner.run_many(list(suite), queries)


# --------------------------------------------------------------------------- #
# Concurrency benchmark: queries/sec under parallel clients + background ingest


def latency_percentiles(latencies_seconds: list[float]) -> dict[str, float]:
    """p50/p90/p99 of per-request latencies, in milliseconds.

    The machine-readable summary every latency benchmark emits; an empty
    sample yields NaNs rather than raising so a failed run still writes a
    well-formed payload.
    """
    if not latencies_seconds:
        return {"p50_ms": float("nan"), "p90_ms": float("nan"), "p99_ms": float("nan")}
    p50, p90, p99 = np.percentile(np.asarray(latencies_seconds), [50, 90, 99])
    return {
        "p50_ms": float(p50) * 1e3,
        "p90_ms": float(p90) * 1e3,
        "p99_ms": float(p99) * 1e3,
    }


@dataclass
class ThroughputMeasurement:
    """One closed-loop throughput run: N clients, optional ingest stream."""

    mode: str
    num_clients: int
    completed_queries: int
    wall_seconds: float
    ingest_batches: int = 0

    @property
    def queries_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.completed_queries / self.wall_seconds


class SerializedQueryService(QueryService):
    """Baseline: every operation — query *and* ingest — behind one mutex.

    This is what "no concurrency support" costs: while an ingest rebuilds
    the tail synopsis, every query on every table waits.  The concurrency
    benchmark reports throughput against this to quantify the per-table
    reader-writer locks and the copy-on-write refresh.
    """

    def __init__(self, database: Database | None = None, **database_kwargs) -> None:
        super().__init__(database, **database_kwargs)
        self._mutex = threading.Lock()

    def execute(self, query: Query | str):
        with self._mutex:
            return super().execute(query)

    def execute_scalar(self, query: Query | str):
        with self._mutex:
            return super().execute_scalar(query)

    def register_table(self, table, params=None, partition_size=None):
        with self._mutex:
            return super().register_table(
                table, params=params, partition_size=partition_size
            )

    def ingest(self, table_name: str, rows: Table) -> IngestResult:
        with self._mutex:
            return super().ingest(table_name, rows)


def build_service_under_test(
    table: Table,
    kind: str = "concurrent",
    partition_size: int = 2_000,
    sample_size: int | None = None,
    seed: int = 7,
) -> QueryService:
    """Stand up one registered-table service for the concurrency benchmark.

    ``kind`` selects ``"concurrent"`` (per-table reader-writer locks,
    copy-on-write ingest) or ``"serialized"`` (one global mutex around
    queries *and* ingest — the no-concurrency baseline).
    """
    classes = {
        "concurrent": ConcurrentQueryService,
        "serialized": SerializedQueryService,
    }
    if kind not in classes:
        raise ValueError(f"unknown service kind {kind!r}")
    service = classes[kind](partition_size=partition_size)
    service.register_table(
        table, params=PairwiseHistParams.with_defaults(sample_size=sample_size, seed=seed)
    )
    return service


def measure_query_throughput(
    service: QueryService,
    queries: list[Query],
    num_clients: int,
    duration_seconds: float = 2.0,
    think_seconds: float = 0.002,
    ingest_batches: list[Table] | None = None,
    ingest_interval_seconds: float = 0.05,
    mode: str = "concurrent",
) -> ThroughputMeasurement:
    """Closed-loop throughput over a fixed wall-clock window.

    Every client thread cycles through the query list with a small think
    time between requests (a dashboard rendering between refreshes) until
    the window elapses; the measurement counts completed queries.  When
    ``ingest_batches`` is given, a background writer streams one batch
    into the service's (single) table every ``ingest_interval_seconds``,
    cycling through the batches until all clients finish — so the window
    includes query/ingest contention, which is the whole point.
    """
    table_name = service.table_names[0]
    stop = threading.Event()
    ingest_count = [0]
    completed = [0] * num_clients
    failures: list[BaseException] = []
    deadline = [0.0]

    def ingester() -> None:
        index = 0
        try:
            while not stop.is_set():
                began = time.perf_counter()
                service.ingest(table_name, ingest_batches[index % len(ingest_batches)])
                ingest_count[0] += 1
                index += 1
                remaining = ingest_interval_seconds - (time.perf_counter() - began)
                if remaining > 0:
                    stop.wait(remaining)
        except BaseException as exc:  # pragma: no cover - surfaced below
            failures.append(exc)

    def client(worker: int) -> None:
        step = 0
        try:
            while time.perf_counter() < deadline[0]:
                if think_seconds > 0:
                    time.sleep(think_seconds)
                query = queries[(worker + step * num_clients) % len(queries)]
                service.execute_scalar(query)
                completed[worker] += 1
                step += 1
        except BaseException as exc:  # pragma: no cover - surfaced below
            failures.append(exc)

    threads = [
        threading.Thread(target=client, args=(worker,), daemon=True)
        for worker in range(num_clients)
    ]
    writer = (
        threading.Thread(target=ingester, daemon=True)
        if ingest_batches
        else None
    )
    start = time.perf_counter()
    deadline[0] = start + duration_seconds
    if writer is not None:
        writer.start()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall_seconds = time.perf_counter() - start
    stop.set()
    if writer is not None:
        writer.join()
    if failures:
        raise failures[0]
    return ThroughputMeasurement(
        mode=mode,
        num_clients=num_clients,
        completed_queries=sum(completed),
        wall_seconds=wall_seconds,
        ingest_batches=ingest_count[0],
    )


def run_concurrency_benchmark(
    table: Table,
    queries: list[Query],
    client_counts: tuple[int, ...] = (1, 4, 16),
    baseline_clients: tuple[int, ...] = (4,),
    duration_seconds: float = 2.0,
    think_seconds: float = 0.002,
    partition_size: int = 2_000,
    ingest_batches: list[Table] | None = None,
    ingest_interval_seconds: float = 0.05,
    seed: int = 7,
) -> list[ThroughputMeasurement]:
    """The concurrency experiment: the concurrent service at 1/4/16
    clients against the serialized (single global mutex) baseline, all
    with the same background ingest stream and measurement window.

    The baseline is measured only at ``baseline_clients`` counts — it is
    an order of magnitude slower under ingest, and one point suffices for
    the speedup ratio.  A fresh service is registered per measurement so
    earlier ingests never bleed into later runs.
    """
    measurements: list[ThroughputMeasurement] = []
    plan = [("serialized", n) for n in baseline_clients]
    plan += [("concurrent", n) for n in client_counts]
    for kind, num_clients in plan:
        service = build_service_under_test(
            table, kind=kind, partition_size=partition_size, seed=seed
        )
        measurements.append(
            measure_query_throughput(
                service,
                queries,
                num_clients=num_clients,
                duration_seconds=duration_seconds,
                think_seconds=think_seconds,
                ingest_batches=ingest_batches,
                ingest_interval_seconds=ingest_interval_seconds,
                mode=kind,
            )
        )
    return measurements


@dataclass
class PersistenceMeasurement:
    """One restart-path timing from :func:`run_persistence_benchmark`."""

    mode: str  # "cold" | "warm-clean" | "warm-crash"
    seconds: float
    answers: list[tuple]
    replayed_records: int = 0
    rebuilt_partitions: int = 0
    #: Tables whose per-partition synopses were still lazy (never decoded)
    #: after the probe queries ran — a query-only restart should leave every
    #: table unhydrated, which is where the warm-restart latency win comes
    #: from.  Always 0 for the cold path (it builds, not loads).
    unhydrated_tables: int = 0


def count_unhydrated_tables(db) -> int:
    """Tables whose snapshot-loaded partition synopses were never decoded."""
    from ..core.serialization import LazyPartitionSynopses

    return sum(
        1
        for name in db.table_names
        if isinstance(db.table(name).partition_synopses, LazyPartitionSynopses)
        and not db.table(name).partition_synopses.hydrated
    )


def run_persistence_benchmark(
    base: Table,
    ingest_batches: list[Table],
    queries: list[str],
    data_dir,
    params: PairwiseHistParams | None = None,
    partition_size: int = 4_000,
) -> list[PersistenceMeasurement]:
    """Cold rebuild-from-raw-rows vs warm restart from the data directory.

    Three measurements over identical committed operations (register the
    base table, then ingest every batch):

    * ``cold`` — a fresh in-memory database re-ingesting the raw rows;
    * ``warm-clean`` — reopening a data directory whose last act was a
      checkpoint (the server's SIGTERM behaviour): pure snapshot load;
    * ``warm-crash`` — reopening a directory where the final ingest was
      never checkpointed: snapshot load + WAL tail replay + tail synopsis
      rebuild.

    Each measurement carries the answers to ``queries`` so callers can
    assert all three paths agree exactly.
    """
    from pathlib import Path

    from ..service.database import Database
    from ..storage import DurableDatabase

    params = params or PairwiseHistParams.with_defaults(sample_size=20_000)
    data_dir = Path(data_dir)

    def answers(db) -> list[tuple]:
        service = QueryService(database=db)
        return [
            (r.value, r.lower, r.upper)
            for r in (service.execute_scalar(q) for q in queries)
        ]

    def populate(path, checkpoint_before_last: bool) -> list[tuple]:
        db = DurableDatabase.open(
            path, default_params=params, partition_size=partition_size
        )
        db.register(base)
        for batch in ingest_batches[:-1]:
            db.ingest(base.name, batch)
        if checkpoint_before_last:
            db.checkpoint()  # the last batch stays WAL-only
            db.ingest(base.name, ingest_batches[-1])
        else:
            db.ingest(base.name, ingest_batches[-1])
            db.checkpoint()  # clean shutdown: everything snapshotted
        expected = answers(db)
        db.close()
        return expected

    expected = populate(data_dir / "clean", checkpoint_before_last=False)
    if populate(data_dir / "crash", checkpoint_before_last=True) != expected:
        raise AssertionError(
            "the two populated data directories answered the probe queries "
            "differently before any restart"
        )

    measurements: list[PersistenceMeasurement] = []
    start = time.perf_counter()
    cold = Database(default_params=params, partition_size=partition_size)
    cold.register(base)
    for batch in ingest_batches:
        cold.ingest(base.name, batch)
    measurements.append(
        PersistenceMeasurement(
            mode="cold", seconds=time.perf_counter() - start, answers=answers(cold)
        )
    )

    for mode, sub_dir in (("warm-clean", "clean"), ("warm-crash", "crash")):
        start = time.perf_counter()
        db = DurableDatabase.open(
            data_dir / sub_dir, default_params=params, partition_size=partition_size
        )
        elapsed = time.perf_counter() - start
        info = db.recovery_info
        measurements.append(
            PersistenceMeasurement(
                mode=mode,
                seconds=elapsed,
                answers=answers(db),
                replayed_records=info.replayed_records,
                rebuilt_partitions=info.rebuilt_partitions,
                unhydrated_tables=count_unhydrated_tables(db),
            )
        )
        db.close()
    for measurement in measurements:
        if measurement.answers != expected:
            raise AssertionError(
                f"{measurement.mode} path answered the probe queries "
                "differently from the database that produced the data "
                "directories"
            )
    return measurements


# --------------------------------------------------------------------------- #
# Sharded-cluster benchmark: multi-process scaling past the one-GIL ceiling


@dataclass
class ShardedThroughputMeasurement:
    """One closed-loop window against a deployment (single server or cluster)."""

    mode: str  # "single-process" | "N-shard-cluster"
    num_clients: int
    queries: int
    ingests: int
    ingested_rows: int
    wall_seconds: float
    #: Per-query wall latencies (seconds) across every client thread.
    query_latencies: list[float] = field(default_factory=list)

    @property
    def queries_per_second(self) -> float:
        return self.queries / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def ingests_per_second(self) -> float:
        return self.ingests / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def ingested_rows_per_second(self) -> float:
        return self.ingested_rows / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def combined_ops_per_second(self) -> float:
        """Queries answered plus rows ingested, per second — the headline.

        Query throughput is naturally queries/s and ingest throughput
        rows/s; the combined number adds them so a deployment cannot win
        by starving one side of the workload.  Both components are also
        reported separately.
        """
        if self.wall_seconds <= 0:
            return 0.0
        return (self.queries + self.ingested_rows) / self.wall_seconds

    def payload(self) -> dict:
        """Machine-readable summary (throughput + latency percentiles)."""
        return {
            "mode": self.mode,
            "num_clients": self.num_clients,
            "queries": self.queries,
            "ingests": self.ingests,
            "ingested_rows": self.ingested_rows,
            "wall_seconds": self.wall_seconds,
            "queries_per_second": self.queries_per_second,
            "ingested_rows_per_second": self.ingested_rows_per_second,
            "combined_ops_per_second": self.combined_ops_per_second,
            "latency": latency_percentiles(self.query_latencies),
        }


def _drive_closed_loop(
    execute_query,
    do_ingest,
    sql_queries: list[str],
    ingest_batches: list[Table],
    num_clients: int,
    duration_seconds: float,
    ingest_interval_seconds: float,
    mode: str,
) -> ShardedThroughputMeasurement:
    """Shared traffic driver: N closed-loop query clients + one paced writer.

    ``execute_query`` / ``do_ingest`` abstract the deployment (wire client
    per thread for the single server, scatter-gather front end for the
    cluster), so both sides see the identical offered load.
    """
    stop = threading.Event()
    completed = [0] * num_clients
    latencies: list[list[float]] = [[] for _ in range(num_clients)]
    ingests = [0]
    ingested_rows = [0]
    failures: list[BaseException] = []
    deadline = [0.0]

    def writer() -> None:
        index = 0
        if not ingest_batches:
            return  # read-only window (e.g. the replica read-scaling bench)
        try:
            while not stop.is_set():
                began = time.perf_counter()
                batch = ingest_batches[index % len(ingest_batches)]
                do_ingest(batch)
                ingests[0] += 1
                ingested_rows[0] += batch.num_rows
                index += 1
                remaining = ingest_interval_seconds - (time.perf_counter() - began)
                if remaining > 0:
                    stop.wait(remaining)
        except BaseException as exc:  # pragma: no cover - surfaced below
            failures.append(exc)

    def client(worker: int) -> None:
        step = 0
        try:
            while time.perf_counter() < deadline[0]:
                sql = sql_queries[(worker + step * num_clients) % len(sql_queries)]
                began = time.perf_counter()
                execute_query(worker, sql)
                latencies[worker].append(time.perf_counter() - began)
                completed[worker] += 1
                step += 1
        except BaseException as exc:  # pragma: no cover - surfaced below
            failures.append(exc)

    threads = [
        threading.Thread(target=client, args=(w,), daemon=True)
        for w in range(num_clients)
    ]
    ingester = threading.Thread(target=writer, daemon=True)
    start = time.perf_counter()
    deadline[0] = start + duration_seconds
    ingester.start()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall_seconds = time.perf_counter() - start
    stop.set()
    ingester.join()
    if failures:
        raise failures[0]
    return ShardedThroughputMeasurement(
        mode=mode,
        num_clients=num_clients,
        queries=sum(completed),
        ingests=ingests[0],
        ingested_rows=ingested_rows[0],
        wall_seconds=wall_seconds,
        query_latencies=[sample for worker in latencies for sample in worker],
    )


def run_sharded_benchmark(
    table: Table,
    sql_queries: list[str],
    ingest_batches: list[Table],
    data_dir,
    num_shards: int = 2,
    params: PairwiseHistParams | None = None,
    partition_size: int = 2_000,
    num_clients: int = 4,
    duration_seconds: float = 8.0,
    ingest_interval_seconds: float = 0.25,
    result_cache_size: int | None = None,
) -> list[ShardedThroughputMeasurement]:
    """Single-process server vs an ``num_shards``-worker subprocess cluster.

    Both deployments are durable (data directories under ``data_dir``),
    serve the same registered table and sustain the same offered load: N
    closed-loop dashboard clients plus a paced background ingest stream.
    The single server is driven over the binary wire protocol (one
    connection per client); the cluster through the scatter-gather front
    end over the same protocol to each worker — so every operation pays
    its deployment's real wire cost.

    ``result_cache_size`` applies to every worker on both deployments
    (``None`` keeps the server default; ``0`` disables the result cache
    so the measurement stays a measure of synopsis evaluation rather than
    cache-hit serving).
    """
    from pathlib import Path

    from ..cluster.service import ClusterQueryService
    from ..cluster.supervisor import ShardSupervisor
    from ..service.wire import PipelinedClient

    data_dir = Path(data_dir)
    params = params or PairwiseHistParams.with_defaults(sample_size=None)
    measurements: list[ShardedThroughputMeasurement] = []

    # ---- single-process baseline ---------------------------------------- #
    supervisor = ShardSupervisor(
        data_dirs=[data_dir / "single"],
        partition_size=partition_size,
        checkpoint_interval=3600.0,
        workers_per_shard=num_clients,
        result_cache_size=result_cache_size,
    )
    try:
        handle = supervisor.spawn(0)
        with PipelinedClient(supervisor.host, handle.port) as admin:
            admin.register(table, params=params, partition_size=partition_size)
        clients = [
            PipelinedClient(supervisor.host, handle.port).connect()
            for _ in range(num_clients)
        ]
        writer_client = PipelinedClient(supervisor.host, handle.port).connect()
        try:
            measurements.append(
                _drive_closed_loop(
                    execute_query=lambda w, sql: clients[w].query(sql),
                    do_ingest=lambda batch: writer_client.ingest(table.name, batch),
                    sql_queries=sql_queries,
                    ingest_batches=ingest_batches,
                    num_clients=num_clients,
                    duration_seconds=duration_seconds,
                    ingest_interval_seconds=ingest_interval_seconds,
                    mode="single-process",
                )
            )
        finally:
            for client in clients:
                client.close()
            writer_client.close()
    finally:
        supervisor.stop(graceful=True)

    # ---- sharded cluster ------------------------------------------------- #
    cluster = ClusterQueryService(
        num_shards=num_shards,
        path=data_dir / "cluster",
        mode="process",
        partition_size=partition_size,
        worker_options={
            "checkpoint_interval": 3600.0,
            "workers_per_shard": num_clients,
            "result_cache_size": result_cache_size,
        },
    )
    try:
        cluster.register_table(table, params=params)
        measurements.append(
            _drive_closed_loop(
                execute_query=lambda w, sql: cluster.execute(sql),
                do_ingest=lambda batch: cluster.ingest(table.name, batch),
                sql_queries=sql_queries,
                ingest_batches=ingest_batches,
                num_clients=num_clients,
                duration_seconds=duration_seconds,
                ingest_interval_seconds=ingest_interval_seconds,
                mode=f"{num_shards}-shard-cluster",
            )
        )
    finally:
        cluster.close()
    return measurements


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
            worker_options={
                "checkpoint_interval": 3600.0,
                "workers_per_shard": num_clients,
                "result_cache_size": 0,
            },
        )
        try:
            cluster.register_table(table, params=params)
            wait_for_replica_catchup(cluster, timeout_seconds=catchup_timeout)
            measurements.append(
                _drive_closed_loop(
                    execute_query=lambda w, sql: cluster.execute(sql),
                    do_ingest=lambda batch: None,
                    sql_queries=sql_queries,
                    ingest_batches=[],
                    num_clients=num_clients,
                    duration_seconds=duration_seconds,
                    ingest_interval_seconds=3600.0,
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
