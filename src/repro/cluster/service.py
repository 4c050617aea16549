"""The cluster front end: routing catalog, scatter-gather, supervision.

:class:`ClusterQueryService` presents the same query/ingest surface as the
single-node :class:`~repro.service.database.QueryService`, but behind it
every table's rows are hash-partitioned across N worker shards — each a
full durable engine with its own data directory, WAL and checkpointer —
running either in-process (``mode="local"``, tests) or as supervised
``QueryServer`` subprocesses (``mode="process"``, deployment).

* **Ingest** fans out by row hash; a shard that has never seen a table is
  registered lazily on the first batch that routes rows to it.
* **Queries** scatter to every registered shard concurrently and gather
  by merging per-shard synopsis answers (:mod:`repro.cluster.gather`):
  COUNT/SUM add, AVG recombines via weighted sums, GROUP BY unions group
  dictionaries, bounds combine conservatively.
* **Durability**: with a cluster ``path``, each shard owns a standard
  data directory under it and the ``CLUSTER`` manifest records the shard
  count + table catalog, so :meth:`ClusterQueryService.open` recovers the
  whole fleet — each worker replays its own snapshot + WAL.
* **Failure**: a worker crash surfaces as a connection error; the front
  end has the shard restart it — a :class:`ProcessShard` respawns its
  worker on its own data directory (recovery happens inside the worker
  before it listens), a :class:`ReplicatedShard` promotes its freshest
  replica — and retries the call once.  A memory-only worker comes back
  empty, so its rows leave the catalog with it.
"""

from __future__ import annotations

import contextvars
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path

from ..core.engine import AqpResult
from ..core.params import PairwiseHistParams
from ..data.schema import TableSchema
from ..data.table import Table
from ..gd.preprocessor import check_encodable
from ..obs import metrics as obs_metrics
from ..obs import tracing
from ..sql.ast import Query
from ..sql.parser import parse_query_cached
from ..service.config import ServeConfig
from ..service.database import check_rows_match
from ..service.ops import OPS
from ..service.wire import UnsentRequestError
from ..storage.durable import CheckpointResult
from ..storage.cluster import ClusterLayout, ClusterManifest, ClusterTableMeta
from .gather import gather_groups, gather_scalar, plan_query
from .router import ShardRouter
from .shard import LocalShard, ProcessShard, ReplicatedShard, decode_answers
from .supervisor import ShardSupervisor

#: Connection-level failures that trigger a worker restart.
_SHARD_FAILURES = (ConnectionError, BrokenPipeError, EOFError, OSError)

_SCATTER_FANOUT = obs_metrics.histogram(
    "aqp_scatter_fanout",
    "Number of shards one query scattered to.",
    buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0),
)
_SHARD_ROUNDTRIP = obs_metrics.histogram(
    "aqp_shard_roundtrip_seconds",
    "Front-end-observed round trip of one scattered shard query.",
    labelnames=("shard",),
)
# Pre-bound cells: the scatter path runs per shard per query.
_SCATTER_FANOUT_CELL = _SCATTER_FANOUT.labels()
_ROUNDTRIP_CELLS: dict[int, object] = {}


def _roundtrip_cell(index: int):
    cell = _ROUNDTRIP_CELLS.get(index)
    if cell is None:
        cell = _ROUNDTRIP_CELLS[index] = _SHARD_ROUNDTRIP.labels(
            shard=f"{index:05d}"
        )
    return cell


def shard_params(
    params: PairwiseHistParams | None, num_shards: int
) -> PairwiseHistParams | None:
    """Scale construction parameters down to one shard's share of the rows.

    The same proportionality rule as
    :func:`repro.core.builder.partition_params`, applied one level up:
    each shard owns ``~1/num_shards`` of every table, so its sample budget
    (``Ns``) and split threshold (``M``) shrink with it.  The per-shard
    bin budget ``Ns / M`` is therefore preserved — per-shard synopses keep
    single-node granularity over their smaller row sets, and the union of
    shard answers recombines at full resolution instead of
    ``num_shards``-fold coarser.
    """
    if params is None or num_shards <= 1:
        return params
    sample = params.sample_size
    if sample is not None:
        sample = max(1, math.ceil(sample / num_shards))
    return replace(
        params,
        sample_size=sample,
        min_points=max(1, math.ceil(params.min_points / num_shards)),
    )


@dataclass
class ClusterTable:
    """Front-end catalog entry for one logical table."""

    name: str
    schema: TableSchema
    params: PairwiseHistParams | None
    partition_size: int | None
    #: Shards that have the table registered (lazily grows as ingest
    #: routes rows to previously-empty shards).
    registered: set[int] = field(default_factory=set)
    rows: int = 0
    #: Durable rows per shard as last acknowledged — the reference the
    #: crash-ambiguity check compares a revived worker's actual count to.
    shard_rows: dict[int, int] = field(default_factory=dict)
    #: Last-reported partition count per shard (observability).
    shard_partitions: dict[int, int] = field(default_factory=dict)
    #: Serializes lazy shard registrations and bookkeeping for this table
    #: across concurrent ingests.
    mutex: threading.Lock = field(default_factory=threading.Lock, repr=False)

    @property
    def num_rows(self) -> int:
        return self.rows

    @property
    def num_partitions(self) -> int:
        return sum(self.shard_partitions.values())

    def record(self, index: int, appended_rows: int, partitions: int) -> None:
        """Apply one shard's acknowledged report (caller holds ``mutex``)."""
        self.registered.add(index)
        self.rows += appended_rows
        self.shard_rows[index] = self.shard_rows.get(index, 0) + appended_rows
        self.shard_partitions[index] = partitions


@dataclass
class ClusterIngestResult:
    """Outcome of one fanned-out ingest."""

    table_name: str
    appended_rows: int
    #: rows routed to each shard index (only shards that received rows).
    shard_rows: dict[int, int]
    #: The table's partition count across the fleet after the append.
    total_partitions: int
    seconds: float

    @property
    def rebuilt_partitions(self) -> list[int]:
        """What the wire reply reports as rebuilt: the shards that took rows."""
        return sorted(self.shard_rows)


class ClusterQueryService:
    """Scatter-gather SQL front end over N hash-routed worker shards."""

    def __init__(
        self,
        num_shards: int = 2,
        path: str | Path | None = None,
        mode: str = "local",
        default_params: PairwiseHistParams | None = None,
        partition_size: int | None = None,
        worker: ServeConfig | None = None,
        replicas: int = 0,
        _opening: bool = False,
        **shard_kwargs,
    ) -> None:
        """``worker`` (``mode="process"`` only) is what every worker runs
        with — the flags of ``python -m repro.service``.  ``shard_kwargs``
        configure how shards are run: each :class:`LocalShard`'s database
        in local mode, the :class:`ShardSupervisor` in process mode
        (``crash_point``, ``startup_timeout``, ``stop_grace_timeout``,
        ``extra_env``, ``python``)."""
        if mode not in ("local", "process"):
            raise ValueError(f"unknown cluster mode {mode!r}")
        self.num_shards = num_shards
        self.mode = mode
        self.default_params = default_params
        self.partition_size = partition_size
        self.router = ShardRouter(num_shards)
        self.layout = ClusterLayout(path) if path is not None else None
        self.replicas = replicas
        self._catalog: dict[str, ClusterTable] = {}
        #: Guards catalog dict mutations + manifest writes (register/drop).
        self._catalog_mutex = threading.Lock()
        #: One lock per shard serializing revival: with multiplexed
        #: channels, one worker crash fails *every* in-flight caller at
        #: once — without the lock each would restart the worker, leaking
        #: N-1 orphaned processes.
        self._revive_locks = [threading.Lock() for _ in range(num_shards)]
        self._closed = False
        if replicas and (mode != "process" or self.layout is None):
            raise ValueError(
                "replicas need mode='process' and a cluster path — "
                "each replica is a follower subprocess with its own data dir"
            )
        if self.layout is not None:
            existing = self.layout.read_manifest()
            if existing is not None and not _opening:
                raise ValueError(
                    f"cluster directory {str(self.layout.root)!r} already "
                    "contains state; use ClusterQueryService.open(path) to "
                    "recover it"
                )
            self.layout.ensure(num_shards, replicas=replicas)
        self.supervisor: ShardSupervisor | None = None
        if mode == "process":
            worker = worker or ServeConfig()
            if partition_size is not None:
                worker = replace(worker, partition_size=partition_size)
            self.supervisor = ShardSupervisor(
                worker=worker, replicas=replicas, **shard_kwargs
            )
            self.shards = [self._process_shard(i) for i in range(num_shards)]
            try:
                for shard in self.shards:
                    for _, member in shard.workers():
                        member.start()  # a primary before its replicas
            except BaseException:
                self.supervisor.stop(self._handles(), graceful=False)
                raise
        else:
            if worker is not None:
                raise ValueError("worker only applies to mode='process'")
            kwargs = dict(shard_kwargs)
            if default_params is not None:
                kwargs["default_params"] = default_params
            if partition_size is not None:
                kwargs["partition_size"] = partition_size
            paths = [None] * num_shards
            if self.layout is not None:
                paths = [self.layout.shard_path(i) for i in range(num_shards)]
            self.shards = [
                LocalShard(index, data_dir=paths[index], **kwargs)
                for index in range(num_shards)
            ]
        # Scatter pool sized for many *concurrent* fan-outs: every in-flight
        # query or ingest needs one slot per shard, and a paced ingest must
        # never head-of-line block the query scatters behind it.
        self._pool = ThreadPoolExecutor(
            max_workers=8 * num_shards, thread_name_prefix="cluster-scatter"
        )
        if self.layout is not None and not _opening:
            self._write_manifest()

    def _process_shard(self, index: int) -> ProcessShard | ReplicatedShard:
        """Shard ``index``'s workers, not yet started, on the directories
        its epoch record assigns them."""
        primary_dir, replica_dirs = (
            (None, [])
            if self.layout is None
            else self.layout.worker_paths(index, self.replicas)
        )
        epoch_file = self.layout.epoch_path(index) if self.replicas else None
        primary = ProcessShard(
            index, self.supervisor, primary_dir, epoch_file=epoch_file
        )
        if not self.replicas:
            return primary
        replicas = {
            slot: ProcessShard(
                index, self.supervisor, path, slot, primary, epoch_file
            )
            for slot, path in enumerate(replica_dirs)
        }
        return ReplicatedShard(index, primary, replicas)

    def _handles(self) -> list:
        """The handle of every worker process that was spawned."""
        return [
            worker.handle
            for shard in self.shards
            for _, worker in shard.workers()
            if worker.handle is not None
        ]

    # ------------------------------------------------------------------ #
    # Recovery

    @classmethod
    def open(
        cls,
        path: str | Path,
        mode: str = "local",
        expected_shards: int | None = None,
        **kwargs,
    ) -> "ClusterQueryService":
        """Recover a cluster from its root directory.

        The manifest fixes the shard count (routing is ``hash %
        num_shards`` — reopening with a different count would misroute
        every subsequent row); each worker recovers its own tables from
        its shard directory, and the front-end catalog is rebuilt from the
        manifest plus each shard's recovered table list.
        """
        layout = ClusterLayout(path)
        manifest = layout.read_manifest()
        if manifest is None:
            raise ValueError(
                f"{str(layout.root)!r} holds no cluster manifest; start a "
                "fresh cluster with ClusterQueryService(path=...) instead"
            )
        if expected_shards is not None and expected_shards != manifest.num_shards:
            raise ValueError(
                f"cluster at {str(layout.root)!r} has {manifest.num_shards} "
                f"shard(s); refusing to reopen with {expected_shards} — the "
                "shard count is part of the routing function"
            )
        if mode == "process" and not kwargs.get("replicas"):
            # Unless the caller pins it, the replica directories on disk
            # are the setting.
            kwargs["replicas"] = layout.detect_replicas(manifest.num_shards)
        service = cls(
            num_shards=manifest.num_shards,
            path=path,
            mode=mode,
            _opening=True,
            **kwargs,
        )
        for meta in manifest.tables:
            service._catalog[meta.name] = ClusterTable(
                name=meta.name,
                schema=meta.schema,
                params=meta.params,
                partition_size=meta.partition_size,
            )
        # Which shards recovered which tables — and how many rows survived
        # (shard_rows seeds the crash-ambiguity checks on future ingests).
        for index, shard in enumerate(service.shards):
            for name in service._shard_call(index, partial(shard.call, "tables")):
                table = service._catalog.get(name)
                if table is not None:
                    stat = service._shard_call(index, partial(shard.call, "stat", name))
                    table.record(index, stat["rows"], stat["partitions"])
        return service

    def _write_manifest(self) -> None:
        if self.layout is None:
            return
        self.layout.write_manifest(
            ClusterManifest(
                num_shards=self.num_shards,
                tables=[
                    ClusterTableMeta(
                        name=t.name,
                        schema=t.schema,
                        params=t.params
                        or self.default_params
                        or PairwiseHistParams.with_defaults(sample_size=100_000),
                        partition_size=t.partition_size or self.partition_size,
                    )
                    for t in self._catalog.values()
                ],
            )
        )

    # ------------------------------------------------------------------ #
    # Shard calls (with restart-on-crash)

    def _shard_call(self, index: int, fn, retry_after_revival: bool = True):
        """Run one shard operation, reviving a crashed worker once.

        Only *connection-level* failures trigger a revival — error frames
        (KeyError and friends) surface unchanged.  The restarted worker
        recovers from its own data directory before listening, so the
        retried call sees the shard's durable state.

        A failure *before* the request reached the socket
        (:class:`UnsentRequestError`) is always retried — the worker never
        saw it.  A failure after the send is retried only when
        ``retry_after_revival`` (queries and other idempotent ops); a
        non-idempotent caller (ingest) passes ``False`` and resolves the
        ambiguity itself.
        """
        generation = getattr(self.shards[index], "generation", None)
        try:
            return fn()
        except UnsentRequestError:
            self._revive(index, generation)
            return fn()
        except _SHARD_FAILURES:
            self._revive(index, generation)
            if not retry_after_revival:
                raise
            return fn()

    def _revive(self, index: int, generation: int | None = None) -> None:
        """Bring shard ``index`` back after a connection-level failure.

        With multiplexed channels, one crash fails many concurrent
        callers simultaneously; the per-shard lock serializes them, the
        generation check makes later arrivals observe (not repeat) the
        first caller's revival, and a wire ping distinguishes a dead
        worker (restart + recover, or promote a replica) from a mere
        channel loss — e.g. our side of the socket was closed by a
        concurrent reconnect — where restarting would needlessly discard
        a healthy worker.
        """
        if self.supervisor is None:
            raise  # local shards share our process; a crash here is ours
        shard = self.shards[index]
        with self._revive_locks[index]:
            if generation is not None and shard.generation != generation:
                return  # another caller already revived this shard
            if shard.ping():
                shard.reconnect()
                return
            shard.restart()
            if self.layout is None:
                # Memory-only workers lose their tables with the process;
                # drop them from the routing sets (the next ingest
                # re-registers) and their rows from the counts.
                for table in self._catalog.values():
                    with table.mutex:
                        table.registered.discard(index)
                        table.rows -= table.shard_rows.pop(index, 0)
                        table.shard_partitions.pop(index, None)

    def _submit(self, calls, revive: bool, traced: bool) -> list:
        """The one scatter loop: start each ``(shard index, thunk)`` of
        ``calls`` on the pool and return the futures, in order.

        ``revive`` wraps each thunk in :meth:`_shard_call`'s
        revive-and-retry crash handling (idempotent ops only).  ``traced``
        runs each under a copy of the caller's context so an active trace
        span is visible on the pool thread (a Context can only be entered
        once, hence one copy per future); untraced calls skip the copies —
        they cost about a microsecond per shard."""
        copy = traced and tracing.current_span() is not None
        futures = []
        for index, call in calls:
            if revive:
                call = partial(self._shard_call, index, call)
            if copy:
                call = partial(contextvars.copy_context().run, call)
            futures.append(self._pool.submit(call))
        return futures

    def _scatter(self, indices: list[int], fn, revive: bool = True, traced: bool = True):
        """Run ``fn(index, shard)`` on many shards concurrently.  A caller
        with its own retry semantics (ingest) passes ``revive=False``."""
        calls = [(i, lambda i=i: fn(i, self.shards[i])) for i in indices]
        return [future.result() for future in self._submit(calls, revive, traced)]

    # ------------------------------------------------------------------ #
    # Catalog

    def __contains__(self, name: str) -> bool:
        return name in self._catalog

    @property
    def table_names(self) -> list[str]:
        return list(self._catalog)

    def table(self, name: str) -> ClusterTable:
        if name not in self._catalog:
            raise KeyError(
                f"no table named {name!r} is registered (have: {self.table_names})"
            )
        return self._catalog[name]

    def schema_for(self, name: str) -> TableSchema:
        return self.table(name).schema

    # ------------------------------------------------------------------ #
    # Registration / ingest (fan out by row hash)

    def register_table(
        self,
        table: Table,
        params: PairwiseHistParams | None = None,
        partition_size: int | None = None,
    ) -> ClusterTable:
        if table.name in self._catalog:
            raise ValueError(f"table {table.name!r} is already registered")
        # Refuse before any shard registers its slice.
        check_encodable(table)
        # Catalog entries hold the per-shard (scaled) params so lazy shard
        # registrations — including after a cluster restart — use exactly
        # what the initial shards were built with.
        params = shard_params(params or self.default_params, self.num_shards)
        partition_size = partition_size or self.partition_size
        entry = ClusterTable(
            name=table.name,
            schema=table.schema,
            params=params,
            partition_size=partition_size,
        )
        parts = self.router.split(table)
        targets = [i for i, part in enumerate(parts) if part is not None]
        if not targets:
            raise ValueError("cannot register an empty table")

        def _register(index: int, shard) -> dict:
            return shard.call("register", parts[index], params, partition_size)

        reports = self._scatter(targets, _register)
        with entry.mutex:
            for index, report in zip(targets, reports):
                entry.record(index, report["rows"], report["partitions"])
        with self._catalog_mutex:
            self._catalog[table.name] = entry
            self._write_manifest()
        return entry

    def validate_ingest(self, table_name: str, rows: Table) -> ClusterTable:
        entry = self.table(table_name)
        check_rows_match(table_name, rows, entry.schema)
        return entry

    def ingest(self, table_name: str, rows: Table) -> ClusterIngestResult:
        """Route rows to their owning shards and append in parallel.

        A shard receiving its first rows for this table registers it (with
        the catalog's params) instead of appending — the lazy half of
        hash-routed registration; first-touch registrations serialize on
        the table's mutex so concurrent ingests cannot double-register.

        Ingest is not idempotent, so a worker that dies *after* the
        request was sent is never blindly retried: the revived worker
        (recovered from its own WAL) is asked for its actual row count —
        if the batch committed before the crash the acknowledgement is
        synthesized, if it never landed the batch is re-sent, and only a
        count matching neither (a concurrent writer's rows interleaved)
        surfaces as a :class:`ConnectionError` for the caller to resolve.
        """
        start = time.perf_counter()
        entry = self.validate_ingest(table_name, rows)
        parts = self.router.split(rows)
        targets = [i for i, part in enumerate(parts) if part is not None]

        def _apply(index: int, shard, part: Table) -> dict:
            """One shard's slice: lazy-register on first touch, else append."""
            with entry.mutex:
                first_touch = index not in entry.registered
                if first_touch:
                    # Registration is slow; holding the mutex serializes
                    # racing first-touch writers instead of letting the
                    # loser fail with "already registered".
                    report = shard.call(
                        "register", part, entry.params, entry.partition_size
                    )
                    applied = {
                        "appended_rows": report["rows"],
                        "total_partitions": report["partitions"],
                    }
                    entry.record(index, part.num_rows, report["partitions"])
                    return applied
            report = shard.call("ingest", table_name, part)
            with entry.mutex:
                entry.record(index, part.num_rows, report["total_partitions"])
            return report

        def _ingest(index: int, shard) -> dict:
            part = parts[index]
            generation = getattr(shard, "generation", None)
            try:
                return _apply(index, shard, part)
            except UnsentRequestError:
                self._revive(index, generation)
                return _apply(index, shard, part)
            except _SHARD_FAILURES as failure:
                with entry.mutex:
                    expected_before = entry.shard_rows.get(index, 0)
                self._revive(index, generation)
                try:
                    stat = shard.call("stat", table_name)
                except KeyError:
                    stat = None  # table absent: the register never landed
                if stat is None or stat["rows"] == expected_before:
                    return _apply(index, shard, part)  # batch never committed
                if stat["rows"] == expected_before + part.num_rows:
                    # The worker WAL-committed the batch before dying; the
                    # recovered state already holds it — acknowledge, don't
                    # re-send (re-sending would double-apply).
                    with entry.mutex:
                        entry.record(index, part.num_rows, stat["partitions"])
                    return {
                        "appended_rows": part.num_rows,
                        "total_partitions": stat["partitions"],
                    }
                raise ConnectionError(
                    f"shard {index} crashed mid-ingest and its recovered row "
                    f"count ({stat['rows']}) matches neither the batch being "
                    f"applied nor skipped (expected {expected_before} or "
                    f"{expected_before + part.num_rows}); a concurrent writer "
                    "interleaved — resolve manually before re-sending"
                ) from failure

        reports = self._scatter(targets, _ingest, revive=False, traced=False)
        shard_rows = {
            index: report["appended_rows"]
            for index, report in zip(targets, reports)
        }
        return ClusterIngestResult(
            table_name=table_name,
            appended_rows=rows.num_rows,
            shard_rows=shard_rows,
            total_partitions=entry.num_partitions,
            seconds=time.perf_counter() - start,
        )

    def drop_table(self, table_name: str) -> None:
        entry = self.table(table_name)
        self._scatter(
            sorted(entry.registered), lambda i, shard: shard.call("drop", table_name)
        )
        with self._catalog_mutex:
            del self._catalog[table_name]
            self._write_manifest()

    # ------------------------------------------------------------------ #
    # Scatter-gather queries

    def execute(self, query: Query | str):
        """Scatter one query to every registered shard; gather the answers."""
        if isinstance(query, str):
            query = parse_query_cached(query)
        entry = self.table(query.table)
        plan = plan_query(query)
        sql = str(plan.scattered)
        indices = sorted(entry.registered)
        grouped = query.group_by is not None

        def _query_shard(i: int, shard):
            if i not in entry.registered:
                return None  # a revived memory-only worker: its rows are gone
            started = time.perf_counter()
            with tracing.child_span("shard_execute", attrs={"shard": i}):
                answers = decode_answers(shard.call("query", sql), grouped)
            _roundtrip_cell(i).observe(time.perf_counter() - started)
            return answers

        with tracing.child_span(
            "scatter", attrs={"fanout": len(indices), "table": query.table}
        ):
            _SCATTER_FANOUT_CELL.observe(len(indices))
            answers = self._scatter(indices, _query_shard)
        with tracing.child_span("gather"):
            return (gather_groups if grouped else gather_scalar)(plan, answers)

    def execute_scalar(self, query: Query | str) -> AqpResult:
        if isinstance(query, str):
            query = parse_query_cached(query)
        if query.group_by is not None:
            raise ValueError("execute_scalar does not support GROUP BY queries")
        return self.execute(query)[0]

    def query(self, query: Query | str):
        return self.execute(query)

    def query_scalar(self, query: Query | str) -> AqpResult:
        return self.execute_scalar(query)

    # ------------------------------------------------------------------ #
    # Fan-out ops: ask the workers, merge by the op table's rule

    def _fan_out(self, name: str, *args, own=None, strict: bool = False):
        """Op ``name`` on every worker its row routes to, merged by its rule.

        Rows with ``replicas="all"`` ask each shard's replicas as well as
        its primary.  ``own`` is the front end's own ``(labels, payload)``
        contribution, if the op has one.  An unreachable worker only costs
        its share of the answer — unless ``strict`` (the durability ops),
        where a crashed worker is revived and any failure surfaces.
        """
        op = OPS[name]
        targets = []
        for index, shard in enumerate(self.shards):
            workers = shard.workers()
            for labels, worker in workers if op.replicas == "all" else workers[:1]:
                targets.append(({"shard": f"{index:05d}", **labels}, index, worker))

        futures = self._submit(
            [(index, partial(worker.call, name, *args)) for _, index, worker in targets],
            revive=strict,
            traced=False,
        )
        sources = [] if own is None else [own]
        for (labels, _, _), future in zip(targets, futures):
            try:
                sources.append((labels, future.result()))
            except Exception:
                if strict:
                    raise
        return op.merge(sources)

    def checkpoint(self) -> CheckpointResult:
        """Checkpoint every shard (each writes its own snapshot, so the
        aggregate has no ``path``)."""
        start = time.perf_counter()
        merged = self._fan_out("checkpoint", strict=True)
        return CheckpointResult(
            path=None, seconds=time.perf_counter() - start, **merged
        )

    def persist(self) -> list[int]:
        """fsync every shard's WAL; returns the per-shard durable LSNs."""
        return self._fan_out("persist", strict=True)

    def metrics(self) -> dict:
        """One merged registry snapshot for the whole cluster.

        In local mode every shard shares this process's registry, so the
        front end's own snapshot *is* the cluster's.  In process mode the
        front end's series are labelled ``role="frontend"`` and each
        worker's are labelled ``shard="NNNNN"`` plus
        ``role="primary"|"replica"`` (and the replica's ``slot``).
        """
        snapshot = obs_metrics.REGISTRY.snapshot()
        if self.mode != "process":
            return snapshot
        return self._fan_out("metrics", own=({"role": "frontend"}, snapshot))

    def trace(self, trace_id: str) -> list[dict]:
        """Every finished span recorded for ``trace_id``, cluster-wide: the
        front end's ring buffer merged with each worker's."""
        return self._fan_out(
            "trace", trace_id, own=({}, tracing.spans_for(trace_id))
        )

    def status_extra(self) -> dict:
        """Cluster-wide additions for the ``status`` op payload (the front
        end holds no result cache of its own — the caches live in the
        workers)."""
        return self._fan_out("status")

    def workload(self) -> dict:
        """One merged workload log for the whole cluster.

        Shards see only their scattered slice of each query, so the
        per-shard templates carry the *scattered* SQL.
        """
        return self._fan_out("workload")

    def audit(self) -> dict:
        """Merged accuracy-auditor counters across every worker."""
        return self._fan_out("audit")

    # ------------------------------------------------------------------ #
    # Answer-quality observability (repro.audit)

    def explain(self, sql: str, analyze: bool = False) -> dict:
        """The actual scatter-gather plan this front end would execute.

        The ``gather`` section comes from the same
        :func:`~repro.cluster.gather.plan_query` that :meth:`execute`
        scatters with, so a single-node EXPLAIN of the same SQL agrees
        with this plan by construction.
        """
        from ..audit.explain import analyze_section, gather_section, query_section
        from ..sql.parser import parse_cache_contains

        parse_cached = parse_cache_contains(sql)
        query = parse_query_cached(sql)
        entry = self.table(query.table)
        indices = sorted(entry.registered)
        plan = {
            "sql": sql,
            "node": "cluster",
            "query": query_section(query),
            "parse_cache": {"cached": parse_cached},
            "route": {
                "table": query.table,
                "shards": indices,
                "fanout": len(indices),
                "rows": entry.rows,
                "shard_rows": {
                    str(i): entry.shard_rows.get(i, 0) for i in indices
                },
                "shard_partitions": {
                    str(i): entry.shard_partitions.get(i, 0) for i in indices
                },
            },
            "gather": gather_section(query),
        }
        if analyze:
            plan["analyze"] = analyze_section(self.execute, self.trace, sql)
        return plan

    def ready(self) -> bool:
        """Every primary answers a wire ping — the cluster's ``/readyz``
        predicate."""
        if self.supervisor is None:
            return True
        return all(shard.ping() for shard in self.shards)

    # ------------------------------------------------------------------ #
    # Lifecycle

    def close(self, graceful: bool = True) -> None:
        if self._closed:
            return
        self._closed = True
        self._pool.shutdown(wait=True)
        handles = self._handles() if self.supervisor is not None else []
        for shard in self.shards:
            try:
                shard.close()
            except OSError:  # pragma: no cover - a dying worker's socket
                pass
        if self.supervisor is not None:
            self.supervisor.stop(handles, graceful=graceful)

    def __enter__(self) -> "ClusterQueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
