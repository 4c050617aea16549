"""Multi-table database and SQL query service over partitioned engines.

The monolithic pipeline (one table → one synopsis → one engine) becomes a
service here:

* :class:`Database` is the catalog and maintenance layer.  A registered
  table is one immutable :class:`ManagedTable` value: its
  :class:`~repro.gd.partitioned.PartitionedStore` (the pre-processor and
  the GD-compressed partitions), one PairwiseHist per partition, and the
  engine over their merge.  :meth:`Database.ingest` streams new rows in:
  it appends to a copy of the store, rebuilds only the tail partition's
  synopsis, recomposes the merged synopsis from the (mostly untouched)
  per-partition parts, and commits the resulting value with one catalog
  assignment.  Registration, WAL replay and snapshot install commit the
  same way (:meth:`Database._commit`).
* :class:`QueryService` is the SQL front end: it parses queries, routes
  them by table name to the owning engine and exposes streaming ingestion.
  It is safe under parallel clients without a lock on the read path: a
  query reads the table's value once and runs on it while writers commit
  the next one, so rows a writer has staged but not committed are never
  seen.  Writers serialise on the catalog mutex (register) and on each
  table's writer mutex (ingest, drop).

This is the Fig. 2 pipeline including the red incremental-update arrows,
generalised to many tables with bounded-cost appends.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

from ..core.builder import build_partition_synopses, snapshot_partition_input
from ..core.engine import AqpResult, PairwiseHistEngine
from ..core.params import PairwiseHistParams
from ..core.synopsis import PairwiseHist
from ..data.table import Table
from ..gd.partitioned import DEFAULT_PARTITION_SIZE, PartitionedStore
from ..gd.preprocessor import check_encodable
from ..obs import metrics as obs_metrics
from ..obs import tracing as obs_tracing
from ..sql.ast import Query
from ..sql.parser import parse_cache_peek, parse_query_cached

_RESULT_CACHE_LOOKUPS = obs_metrics.counter(
    "aqp_result_cache_lookups_total",
    "Synopsis-version-keyed result cache lookups, by table and outcome.",
    labelnames=("table", "outcome"),
)
_SYNOPSIS_BUILDS = obs_metrics.counter(
    "aqp_synopsis_builds_total",
    "Per-partition synopsis builds (registration + incremental ingest).",
    labelnames=("table",),
)


def check_rows_match(table_name: str, rows, schema) -> None:
    """The type, schema and value checks every ingest front door applies."""
    if not isinstance(rows, Table):
        raise TypeError(
            f"ingest into {table_name!r} needs a Table of rows, "
            f"got {type(rows).__name__}"
        )
    if rows.schema.names != schema.names:
        raise ValueError(
            f"rows for table {table_name!r} do not match its schema: "
            f"expected columns {schema.names}, "
            f"got {rows.schema.names}"
        )
    check_encodable(rows)


@dataclass
class IngestResult:
    """Outcome of one streaming append: what changed and what it cost."""

    table_name: str
    appended_rows: int
    rebuilt_partitions: list[int]
    total_partitions: int
    seconds: float

    @property
    def untouched_partitions(self) -> int:
        return self.total_partitions - len(self.rebuilt_partitions)


@dataclass(frozen=True)
class ManagedTable:
    """One registered table as one immutable value: store, synopses, engine.

    A commit never mutates a value; it makes the next one with
    :func:`dataclasses.replace` and swaps it into the catalog with one
    assignment (:meth:`Database._commit`).  A query that read a value
    finishes on it, and everything on it belongs to one commit: the rows
    the store holds are the rows the synopses summarise.
    """

    name: str
    params: PairwiseHistParams
    store: PartitionedStore
    partition_synopses: list[PairwiseHist]
    engine: PairwiseHistEngine
    #: Total partition-synopsis builds over the table's lifetime — the
    #: incremental-maintenance cost metric (grows by the number of affected
    #: partitions per ingest, not by the partition count).
    synopsis_builds: int
    #: Drawn from one global monotonic counter by every commit.
    #: Result-cache keys include it, so the commit swap doubles as cache
    #: invalidation — and a drop + re-register under the same name can
    #: never collide with stale entries (the counter never repeats).
    synopsis_version: int
    #: Serialises this table's writers (ingest, drop, a replica's
    #: uninstall); queries never take it.  Every value committed under
    #: one registration shares it.
    writer: threading.Lock = field(default_factory=threading.Lock, repr=False, compare=False)

    @property
    def num_rows(self) -> int:
        return self.store.num_rows

    @property
    def num_partitions(self) -> int:
        return self.store.num_partitions

    def compressed_bytes(self) -> int:
        return self.store.compressed_bytes()


@dataclass
class StagedIngest:
    """An ingest whose rebuild is done but whose value is unpublished.

    Produced by :meth:`Database.stage_ingest` (the expensive phase) and
    consumed by :meth:`Database.commit_ingest` (the cheap publish), both
    under the table's writer mutex when driven by :meth:`Database.ingest`.
    """

    #: The value this ingest was staged from; the commit publishes only
    #: while it is still the one in the catalog.
    table: ManagedTable
    #: The value the commit publishes (``None`` for a no-op append).
    next: ManagedTable | None
    #: The raw appended rows — a durable database logs them to its WAL at
    #: commit time, so recovery can replay exactly the committed batches.
    rows: Table
    affected: list[int]
    started: float


class Database:
    """Catalog + maintenance layer: registration, ingestion, synopsis refresh."""

    #: One process-wide monotonic source of synopsis versions (class-level
    #: on purpose: versions stay unique across databases and across drop +
    #: re-register cycles, so stale cache keys can never alias).
    _version_counter = itertools.count(1)

    def __init__(
        self,
        default_params: PairwiseHistParams | None = None,
        partition_size: int = DEFAULT_PARTITION_SIZE,
    ) -> None:
        self.default_params = default_params or PairwiseHistParams.with_defaults(
            sample_size=100_000
        )
        self.partition_size = partition_size
        self._tables: dict[str, ManagedTable] = {}
        #: Guards register's duplicate check + insert.
        self._catalog_mutex = threading.Lock()

    # ------------------------------------------------------------------ #
    # Catalog

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    @property
    def table_names(self) -> list[str]:
        return list(self._tables)

    def table(self, name: str) -> ManagedTable:
        if name not in self._tables:
            raise KeyError(
                f"no table named {name!r} is registered (have: {self.table_names})"
            )
        return self._tables[name]

    def engine(self, name: str) -> PairwiseHistEngine:
        return self.table(name).engine

    @contextmanager
    def writing(self, name: str):
        """Hold the writer mutex of the table registered as ``name``.

        Every commit makes a new value, so the registration is identified
        by its shared writer lock and the current value is re-read under
        it.  While the lock is held the table can be neither dropped nor
        replaced under its name and no other writer commits, so the
        yielded :class:`ManagedTable` stays the catalog's.  Lock order:
        writer mutex, then any database-internal mutex (the durable
        subclass's).
        """
        writer = self.table(name).writer
        with writer:
            managed = self._tables.get(name)
            if managed is None or managed.writer is not writer:
                raise KeyError(f"table {name!r} was dropped while waiting to write")
            yield managed

    def drop(self, name: str) -> None:
        with self.writing(name):
            del self._tables[name]

    def _commit(self, managed: ManagedTable, **changes) -> ManagedTable:
        """Publish the next value of a table: one catalog assignment.

        The one commit path (registration, ingest, WAL replay, snapshot
        install).  It draws a fresh synopsis version, so an answer cached
        under an earlier value is never looked up again; a query that
        already read the earlier value finishes on it.  Callers hold the
        table's writer mutex or the catalog mutex.
        """
        committed = replace(managed, **changes, synopsis_version=next(self._version_counter))
        self._tables[committed.name] = committed
        return committed

    # ------------------------------------------------------------------ #
    # Registration

    def register(
        self,
        table: Table,
        params: PairwiseHistParams | None = None,
        partition_size: int | None = None,
    ) -> ManagedTable:
        """Shard, compress and summarise a table, making it queryable.

        Raises :class:`ValueError` for a numeric cell the code domain
        cannot hold (:func:`~repro.gd.preprocessor.check_encodable`).
        """
        check_encodable(table)
        managed = self._build_managed(table, params, partition_size)
        return self._publish_registration(managed, table)

    def _build_managed(
        self,
        table: Table,
        params: PairwiseHistParams | None = None,
        partition_size: int | None = None,
    ) -> ManagedTable:
        """The expensive half of registration: compress + summarise.

        Produces a fully-built :class:`ManagedTable` without touching the
        catalog, so a durable subclass can make the catalog insert atomic
        with its WAL append.  Its version is drawn when it is committed.
        """
        if table.name in self._tables:
            raise ValueError(f"table {table.name!r} is already registered")
        start = time.perf_counter()
        params = params or self.default_params
        store = PartitionedStore.compress(table, partition_size or self.partition_size)
        synopses = self._build_synopses(store, params, store.partitions)
        merged = PairwiseHist.merge(list(synopses), params=params)
        engine = PairwiseHistEngine(
            synopsis=merged,
            preprocessor=store.preprocessor,
            table_name=table.name,
            construction_seconds=time.perf_counter() - start,
        )
        _SYNOPSIS_BUILDS.inc(len(synopses), table=table.name)
        return ManagedTable(
            name=table.name,
            params=params,
            store=store,
            partition_synopses=synopses,
            engine=engine,
            synopsis_builds=len(synopses),
            synopsis_version=0,
        )

    def _publish_registration(self, managed: ManagedTable, source: Table) -> ManagedTable:
        """The cheap half of registration: the catalog insert.

        The durable subclass overrides this to WAL-log the source rows
        atomically with the insert; ``source`` is the raw registered table.
        """
        with self._catalog_mutex:
            if managed.name in self._tables:
                raise ValueError(f"table {managed.name!r} is already registered")
            return self._commit(managed)

    def _build_synopses(
        self,
        store: PartitionedStore,
        params: PairwiseHistParams,
        partitions,
        total_rows: int | None = None,
    ) -> list[PairwiseHist]:
        """Build synopses for the given partitions of a store, in parallel.

        ``total_rows`` overrides the row count the per-partition bin budget
        is scaled against — WAL replay passes the table size as of the
        ingest that last touched a partition, reproducing exactly the
        synopsis an uninterrupted run would have built.
        """
        inputs = [snapshot_partition_input(store, partition) for partition in partitions]
        return build_partition_synopses(
            inputs,
            params,
            columns=store.column_order,
            # Scale each partition's bin budget against the whole table even
            # when rebuilding only the tail after an append.
            total_rows=store.num_rows if total_rows is None else total_rows,
        )

    # ------------------------------------------------------------------ #
    # Streaming ingestion

    def validate_ingest(self, table_name: str, rows: Table) -> ManagedTable:
        """Check an ingest request, raising a clear error for bad input.

        * unknown table → :class:`KeyError` naming the table and the
          registered catalog,
        * ``rows`` not a :class:`~repro.data.table.Table` → :class:`TypeError`,
        * schema mismatch → :class:`ValueError` naming both column lists,
        * a numeric cell the code domain cannot hold → :class:`ValueError`
          naming the column and the first bad row,

        instead of whatever attribute error would otherwise escape from
        deep inside the partitioned store, or a value silently lost.
        """
        managed = self.table(table_name)
        check_rows_match(table_name, rows, managed.store.schema)
        return managed

    def stage_ingest(self, table_name: str, rows: Table) -> StagedIngest:
        """Phase 1 of an ingest: build the table's next value, unpublished.

        The rows are appended to a shallow copy of the store (tail top-up
        + overflow partitions; ``append`` rebinds only the copy's
        partition list), then only the affected partitions' synopses are
        rebuilt and re-merged.  Nothing a reader can see changes, so a
        failure here leaves nothing to undo.
        """
        start = time.perf_counter()
        managed = self.validate_ingest(table_name, rows)
        store = replace(managed.store)
        affected = store.append(rows)
        following = None
        if affected:
            rebuilt = self._build_synopses(
                store, managed.params, [store.partitions[index] for index in affected]
            )
            synopses = list(managed.partition_synopses)
            synopses.extend([None] * (store.num_partitions - len(synopses)))
            for index, synopsis in zip(affected, rebuilt):
                synopses[index] = synopsis
            merged = PairwiseHist.merge(list(synopses), params=managed.params)
            following = replace(
                managed,
                store=store,
                partition_synopses=synopses,
                engine=replace(managed.engine, synopsis=merged),
                synopsis_builds=managed.synopsis_builds + len(affected),
            )
        return StagedIngest(
            table=managed, next=following, rows=rows, affected=affected, started=start
        )

    def commit_ingest(self, staged: StagedIngest) -> IngestResult:
        """Phase 2 of an ingest: publish the staged value (one swap).

        Everything expensive happened in :meth:`stage_ingest`; this only
        commits the next value (:meth:`_commit`, which also invalidates
        every cached result for the table).  Raises :class:`KeyError` if
        the value it was staged from is no longer the catalog's (the
        table was dropped, re-registered or committed to since).
        """
        managed = self._staged_table(staged)
        if staged.next is not None:
            _SYNOPSIS_BUILDS.inc(len(staged.affected), table=managed.name)
            managed = self._commit(staged.next)
        return IngestResult(
            table_name=managed.name,
            appended_rows=staged.rows.num_rows,
            rebuilt_partitions=staged.affected,
            total_partitions=managed.num_partitions,
            seconds=time.perf_counter() - staged.started,
        )

    def _staged_table(self, staged: StagedIngest) -> ManagedTable:
        """The value a staged ingest was staged from, if it is still the catalog's."""
        managed = staged.table
        if self._tables.get(managed.name) is not managed:
            raise KeyError(f"table {managed.name!r} changed after this ingest was staged")
        return managed

    def ingest(self, table_name: str, rows: Table) -> IngestResult:
        """Append rows to a registered table, refreshing only what changed.

        :meth:`stage_ingest` then :meth:`commit_ingest`, both under the
        table's writer mutex; queries keep answering from the published
        value throughout.
        """
        with self.writing(table_name):
            return self.commit_ingest(self.stage_ingest(table_name, rows))

    # ------------------------------------------------------------------ #
    # Durability

    @classmethod
    def open(cls, path, **kwargs) -> "Database":
        """Open (or create) a durable database rooted at ``path``.

        Returns a :class:`~repro.storage.durable.DurableDatabase`: the
        latest valid snapshot is loaded, WAL segments past its checkpoint
        LSN are replayed (rebuilding only the partition synopses the
        replay touched) and every subsequent mutation is write-ahead
        logged under ``path``.  Keyword arguments are forwarded to the
        durable database's constructor.
        """
        from ..storage.durable import DurableDatabase

        return DurableDatabase.open(path, **kwargs)


#: Default bound on the per-service query-result cache (entries, not
#: bytes; results are a handful of floats each).
DEFAULT_RESULT_CACHE_SIZE = 256


class QueryService:
    """SQL front end: parse, route by table name, execute, ingest.

    Repeated queries are served from a synopsis-version-keyed result
    cache: cache keys include the owning table's
    :attr:`ManagedTable.synopsis_version`, so the commit pointer swap at
    the end of every ingest *is* the invalidation — a hit is always the
    exact object an uncached execution of the same SQL would return.
    ``result_cache_size=0`` disables the cache.  :meth:`cached` is the
    hit-only lookup an event loop answers hits with before it hands a
    miss to a thread pool.

    Safe to share between threads: queries take no lock (see the module
    docstring) and writers serialise inside the :class:`Database`.

    >>> service = QueryService()
    >>> service.register_table(table)            # doctest: +SKIP
    >>> service.execute("SELECT AVG(x) FROM t WHERE y > 3")  # doctest: +SKIP
    """

    def __init__(
        self,
        database: Database | None = None,
        result_cache_size: int = DEFAULT_RESULT_CACHE_SIZE,
        **database_kwargs,
    ) -> None:
        if database is not None and database_kwargs:
            raise ValueError("pass either a Database or its constructor arguments")
        self.database = database or Database(**database_kwargs)
        self.result_cache_size = result_cache_size
        self._result_cache: OrderedDict[tuple, object] = OrderedDict()
        self._result_cache_lock = threading.Lock()
        #: Per-table ``{"hits": n, "misses": n}`` counters (observability).
        self.cache_stats: dict[str, dict[str, int]] = {}
        #: Pre-bound registry cells per table — the lookup path must not
        #: pay label resolution on every query.
        self._cache_cells: dict[str, tuple] = {}
        #: Answer-quality observability hooks (``repro.audit``): both are
        #: ``None`` unless attached, and the hot path pays a single
        #: attribute check when they are.
        self.workload_log = None
        self.auditor = None

    # ------------------------------------------------------------------ #
    # Catalog passthrough

    def __contains__(self, name: str) -> bool:
        return name in self.database

    @property
    def table_names(self) -> list[str]:
        return self.database.table_names

    def table(self, name: str) -> ManagedTable:
        return self.database.table(name)

    def schema_for(self, table_name: str):
        """Registered schema of one table (KeyError naming the catalog)."""
        return self.table(table_name).store.schema

    def register_table(
        self,
        table: Table,
        params: PairwiseHistParams | None = None,
        partition_size: int | None = None,
    ) -> ManagedTable:
        return self.database.register(table, params=params, partition_size=partition_size)

    def drop_table(self, table_name: str) -> None:
        self.database.drop(table_name)
        self._purge_cache(table_name)

    def ingest(self, table_name: str, rows: Table) -> IngestResult:
        """Stream new rows into a registered table (incremental refresh)."""
        return self.database.ingest(table_name, rows)

    # ------------------------------------------------------------------ #
    # Durability passthrough

    def checkpoint(self):
        """Write a snapshot checkpoint (durable databases only)."""
        checkpoint = getattr(self.database, "checkpoint", None)
        if checkpoint is None:
            raise ValueError(
                "this service has no durable storage attached; "
                "open the database with Database.open(path) to enable checkpoints"
            )
        return checkpoint()

    def persist(self) -> int:
        """Force the WAL to stable storage; returns the last durable LSN."""
        persist = getattr(self.database, "persist", None)
        if persist is None:
            raise ValueError(
                "this service has no durable storage attached; "
                "open the database with Database.open(path) to enable persistence"
            )
        return persist()

    # ------------------------------------------------------------------ #
    # Query execution

    def _parse(self, query: Query | str) -> tuple[str, Query]:
        """``(sql text, parsed query)`` — the one parse-cache lookup a
        statement pays; everything downstream takes the pair."""
        if isinstance(query, str):
            with obs_tracing.child_span("parse"):
                return query, parse_query_cached(query)
        return str(query), query

    def _observed(self, sql: str, serve, *args):
        """``serve(*args)``, feeding the answer-quality hooks when attached.

        With no workload log or auditor attached (the default) this is a
        two-attribute check on top of ``serve``.  The auditor's own
        re-executions bypass the hooks (``in_audit``), so audit traffic
        never pollutes the workload log or re-samples itself into a
        feedback loop.
        """
        workload = self.workload_log
        auditor = self.auditor
        if workload is None and auditor is None:
            return serve(*args)
        if auditor is not None and auditor.in_audit:
            return serve(*args)
        started = time.perf_counter()
        result = serve(*args)
        if workload is not None:
            workload.observe(sql, time.perf_counter() - started)
        if auditor is not None:
            auditor.consider(sql)
        return result

    def _serve_cached(self, sql: str, parsed: Query, scalar: bool = False):
        """Execute through the synopsis-version-keyed result cache.

        The key is ``(table, synopsis_version, scalar, sql_text)``; the
        raw SQL string keys directly (no canonicalisation — dashboards
        re-send byte-identical text).  The version and the engine come
        from one table value, and the whole query runs on that engine.  A
        result written under version v after a concurrent commit bumped to
        v+1 is harmless: lookups use the current version, so the stale
        entry can never be served and simply ages out of the LRU.
        """
        managed = self.database.table(parsed.table)
        version = managed.synopsis_version
        engine = managed.engine
        run = engine.execute_scalar if scalar else engine.execute
        if self.result_cache_size <= 0:
            with obs_tracing.child_span("execute", attrs={"table": parsed.table}):
                return run(parsed)
        key = (parsed.table, version, scalar, sql)
        # Peeks read without the lock: a dict read is atomic under the GIL,
        # and writers hold the lock only against each other.
        cached = self._lookup(key, self._result_cache.get(key))
        if cached is not None:
            return cached
        stats, cells = self._accounts(parsed.table)
        with obs_tracing.child_span("execute", attrs={"table": parsed.table}):
            result = run(parsed)
        with self._result_cache_lock:
            stats["misses"] += 1
            self._result_cache[key] = result
            self._result_cache.move_to_end(key)
            while len(self._result_cache) > self.result_cache_size:
                self._result_cache.popitem(last=False)
        cells[1].inc()
        return result

    def _lookup(self, key: tuple, cached):
        """Account one result-cache lookup whose outcome the caller's peek
        decided (``cached`` is ``None`` on a miss); returns ``cached``.

        The one copy of the hit accounting, shared by :meth:`execute` and
        :meth:`cached`: LRU touch, ``cache_stats``, the registry's hit
        cell and the ``cache_lookup`` span.  A miss is only marked on the
        span — the caller counts it once the answer is cached.  A hit an
        executor thread evicted since the peek is still served and counted.
        """
        table = key[0]
        with obs_tracing.child_span("cache_lookup", attrs={"table": table}) as span:
            if cached is not None:
                stats, cells = self._accounts(table)
                with self._result_cache_lock:
                    if key in self._result_cache:
                        self._result_cache.move_to_end(key)
                    stats["hits"] += 1
                cells[0].inc()
            if span is not None:
                span.set_attr("outcome", "miss" if cached is None else "hit")
        return cached

    def _accounts(self, table: str) -> tuple[dict, tuple]:
        """One table's ``cache_stats`` entry and pre-bound hit / miss
        registry cells (the lookup path must not pay label resolution)."""
        cells = self._cache_cells.get(table)
        if cells is None:
            cells = self._cache_cells[table] = (
                _RESULT_CACHE_LOOKUPS.labels(table=table, outcome="hit"),
                _RESULT_CACHE_LOOKUPS.labels(table=table, outcome="miss"),
            )
        return self.cache_stats.setdefault(table, {"hits": 0, "misses": 0}), cells

    def cached(self, sql: str, scalar: bool = False):
        """The result cache's answer to ``sql``, or ``None`` — hit-only.

        Never executes, and decides without parsing, so it is cheap and
        safe to call on an event loop: the statement must already be in
        the parse cache (a non-counting peek), its table registered, and
        ``(table, synopsis_version, scalar, sql)`` in the result cache.
        A hit is accounted exactly as a hit through :meth:`execute` is
        (parse-cache hit and LRU touch, :meth:`_lookup`, the workload log
        and the auditor); a miss counts nothing, so the caller's
        :meth:`execute` counts it once.  An unknown table is a miss too:
        :meth:`execute` raises the real error.
        """
        if self.result_cache_size <= 0 or not isinstance(sql, str):
            return None
        parsed = parse_cache_peek(sql)
        if parsed is None:
            return None
        try:
            version = self.database.table(parsed.table).synopsis_version
        except KeyError:
            return None
        key = (parsed.table, version, scalar, sql)
        cached = self._result_cache.get(key)
        if cached is None:
            return None
        self._parse(sql)  # the parse span, hit counter and LRU touch
        return self._observed(sql, self._lookup, key, cached)

    def _purge_cache(self, table_name: str) -> None:
        with self._result_cache_lock:
            for key in [k for k in self._result_cache if k[0] == table_name]:
                del self._result_cache[key]
            self.cache_stats.pop(table_name, None)

    def execute(self, query: Query | str) -> list[AqpResult] | dict[str, list[AqpResult]]:
        """Execute a query against the table it names."""
        sql, parsed = self._parse(query)
        return self._observed(sql, self._serve_cached, sql, parsed, False)

    def execute_scalar(self, query: Query | str) -> AqpResult:
        """Execute a non-GROUP BY query, returning the first aggregation."""
        sql, parsed = self._parse(query)
        return self._observed(sql, self._serve_cached, sql, parsed, True)

    def query(self, query: Query | str) -> list[AqpResult] | dict[str, list[AqpResult]]:
        """Alias for :meth:`execute` matching the async front end's verb."""
        return self.execute(query)

    def query_scalar(self, query: Query | str) -> AqpResult:
        """Alias for :meth:`execute_scalar` matching the async front end."""
        return self.execute_scalar(query)

    # ------------------------------------------------------------------ #
    # Answer-quality observability (repro.audit)

    def explain(self, sql: str, analyze: bool = False) -> dict:
        """Structured plan for ``sql`` (see :mod:`repro.audit.explain`)."""
        from ..audit.explain import build_explain

        return build_explain(self, sql, analyze=analyze)

    def status_extra(self) -> dict:
        """This service's share of the ``status`` op payload: cache stats
        and, on a durable database, LSN positions."""
        extra: dict = {
            "cache_stats": {t: dict(stats) for t, stats in self.cache_stats.items()}
        }
        wal = getattr(self.database, "wal", None)
        if wal is not None:
            # The follower applies through the durable commit path, so
            # applied == durable on every role.
            extra["durable_lsn"] = extra["applied_lsn"] = wal.last_lsn
            extra["last_checkpoint_lsn"] = self.database.last_checkpoint_lsn
        return extra

    def metrics(self) -> dict:
        """This process's registry snapshot (a cluster front end fans out)."""
        return obs_metrics.REGISTRY.snapshot()

    def trace(self, trace_id: str) -> list[dict]:
        """Finished spans recorded in this process for ``trace_id``."""
        return obs_tracing.spans_for(trace_id)

    def workload(self) -> dict:
        """The workload log's template ring (empty when none is attached)."""
        if self.workload_log is None:
            return {"capacity": 0, "evicted": 0, "templates": []}
        return self.workload_log.snapshot()

    def audit(self) -> dict:
        """The auditor's counters and recent violations (or ``enabled: False``)."""
        if self.auditor is None:
            return {"enabled": False}
        stats = self.auditor.stats()
        stats["enabled"] = True
        return stats
