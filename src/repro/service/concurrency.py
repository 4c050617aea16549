"""Thread-safe query service: per-table reader-writer locks + copy-on-write.

The plain :class:`~repro.service.database.QueryService` is single-threaded:
a query running concurrently with an ``ingest()`` can observe a
half-committed table (weightings computed on the old synopsis aggregated
over the new one's histogram, or a result cached under the old version).
This module makes the service safe — and fast — under parallel clients:

* :class:`ReadWriteLock` is a writer-preference reader-writer lock: any
  number of queries share a table, ingest/refresh is exclusive, and a
  waiting writer blocks *new* readers so a steady query stream cannot
  starve ingestion.
* :class:`ConcurrentQueryService` wraps every table in one such lock and
  splits ingestion into the staged (copy-on-write) protocol of
  :meth:`~repro.service.database.Database.stage_ingest`: the expensive
  append + synopsis rebuild runs *off* the lock while queries proceed,
  and only the final pointer swap takes the write lock.  Read latency
  stays flat during ingest.

The asyncio front end in :mod:`repro.service.server` dispatches onto a
:class:`ConcurrentQueryService` from an executor, which is why the locking
discipline lives here, free of any event-loop dependency.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

from ..core.params import PairwiseHistParams
from ..data.table import Table
from ..sql.ast import Query
from .database import Database, IngestResult, ManagedTable, QueryService


class ReadWriteLock:
    """A reader-writer lock with writer preference.

    Many readers may hold the lock at once; a writer holds it exclusively.
    While any writer is *waiting*, new readers block, so a continuous
    stream of readers cannot starve ingestion (lock fairness under writer
    pressure).  Re-entrant acquisition is not supported.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._active_readers = 0
        self._writer_active = False
        self._writers_waiting = 0

    # ------------------------------------------------------------------ #
    # Reader side

    def acquire_read(self, timeout: float | None = None) -> None:
        with self._cond:
            if not self._cond.wait_for(
                lambda: not self._writer_active and self._writers_waiting == 0,
                timeout=timeout,
            ):
                raise TimeoutError("timed out waiting for read lock")
            self._active_readers += 1

    def release_read(self) -> None:
        with self._cond:
            if self._active_readers <= 0:
                raise RuntimeError("release_read without a matching acquire_read")
            self._active_readers -= 1
            if self._active_readers == 0:
                self._cond.notify_all()

    # ------------------------------------------------------------------ #
    # Writer side

    def acquire_write(self, timeout: float | None = None) -> None:
        with self._cond:
            self._writers_waiting += 1
            try:
                acquired = self._cond.wait_for(
                    lambda: not self._writer_active and self._active_readers == 0,
                    timeout=timeout,
                )
            finally:
                self._writers_waiting -= 1
            if not acquired:
                # Readers that queued behind this writer are eligible again
                # now that it is gone; wake them or they stay parked until
                # the current readers fully drain.
                self._cond.notify_all()
                raise TimeoutError("timed out waiting for write lock")
            self._writer_active = True

    def release_write(self) -> None:
        with self._cond:
            if not self._writer_active:
                raise RuntimeError("release_write without a matching acquire_write")
            self._writer_active = False
            self._cond.notify_all()

    # ------------------------------------------------------------------ #
    # Context managers

    @contextmanager
    def read_locked(self, timeout: float | None = None):
        self.acquire_read(timeout=timeout)
        try:
            yield self
        finally:
            self.release_read()

    @contextmanager
    def write_locked(self, timeout: float | None = None):
        self.acquire_write(timeout=timeout)
        try:
            yield self
        finally:
            self.release_write()


class ConcurrentQueryService(QueryService):
    """A :class:`QueryService` that is safe under parallel query + ingest.

    Locking discipline (per table):

    * ``query`` / ``execute`` / ``execute_scalar`` hold the table's *read*
      lock for the whole engine call, so an answer always reflects exactly
      one published synopsis — never a torn mix of pre- and post-ingest
      state.
    * ``ingest`` serializes writers through a per-table mutex, runs the
      append + synopsis rebuild **off** the reader-writer lock
      (:meth:`Database.stage_ingest` — queries keep flowing against the
      old synopsis), then takes the *write* lock only for the pointer swap
      (:meth:`Database.commit_ingest`).
    * ``register_table`` / ``drop_table`` take the write lock so a table
      never appears or vanishes mid-query.
    * ``checkpoint`` (durable databases) takes *no* table lock at all: the
      durable database serializes its capture against every commit /
      register / drop on its own internal mutex and captures copy-on-write
      references only, so queries are never blocked by a snapshot and
      writers pause for microseconds.  Because the commit phase runs under
      the table's write lock *and then* that mutex, the lock ordering is
      ``write lock -> durable mutex`` everywhere — a checkpoint can never
      deadlock with an ingest.

    Catalog-level state (the lock registry itself) is guarded by a plain
    mutex held only for dictionary lookups.
    """

    def __init__(self, database: Database | None = None, **database_kwargs) -> None:
        super().__init__(database, **database_kwargs)
        self._registry_mutex = threading.Lock()
        self._table_locks: dict[str, ReadWriteLock] = {}
        self._ingest_mutexes: dict[str, threading.Lock] = {}

    # ------------------------------------------------------------------ #
    # Lock registry

    def lock_for(self, table_name: str) -> ReadWriteLock:
        """The reader-writer lock guarding one *registered* table.

        Entries are created only while the table is in the catalog (the
        membership check happens under the registry mutex, so a racing
        ``drop_table`` cannot resurrect a just-retired entry): arbitrary
        names arriving over the wire raise :class:`KeyError` instead of
        growing the registry without bound.
        """
        with self._registry_mutex:
            lock = self._table_locks.get(table_name)
            if lock is None:
                self.database.table(table_name)  # KeyError naming the catalog
                lock = self._create_locks(table_name)
            return lock

    def _ingest_mutex(self, table_name: str) -> threading.Lock:
        with self._registry_mutex:
            mutex = self._ingest_mutexes.get(table_name)
            if mutex is None:
                self.database.table(table_name)  # KeyError naming the catalog
                self._create_locks(table_name)
                mutex = self._ingest_mutexes[table_name]
            return mutex

    def _create_locks(self, table_name: str) -> ReadWriteLock:
        """Insert a lock pair for a table; caller holds the registry mutex."""
        self._table_locks[table_name] = ReadWriteLock()
        self._ingest_mutexes[table_name] = threading.Lock()
        return self._table_locks[table_name]

    def _lock_is_current(self, table_name: str, lock: ReadWriteLock) -> bool:
        """Whether a lock acquired moments ago still guards the table.

        Between ``lock_for`` and acquiring the returned lock, a
        ``drop_table`` (+ re-register) can retire the pair; acting under
        the stale object would leave the caller unsynchronized with the
        new table's writers.  Callers loop until the acquired lock is the
        registered one.
        """
        with self._registry_mutex:
            return self._table_locks.get(table_name) is lock

    # ------------------------------------------------------------------ #
    # Queries (shared / read side)

    def _execute_shared(self, query: Query | str, scalar: bool):
        sql, parsed = self._parse(query)
        while True:
            lock = self.lock_for(parsed.table)
            with lock.read_locked():
                if not self._lock_is_current(parsed.table, lock):
                    continue  # dropped/re-registered underneath us; retry
                # Cache lookup runs under the read lock, so the synopsis
                # version it keys on cannot be swapped mid-execution.
                return self._cached_execute(sql, parsed, scalar)

    def execute(self, query: Query | str):
        return self._execute_shared(query, scalar=False)

    def execute_scalar(self, query: Query | str):
        return self._execute_shared(query, scalar=True)

    # ------------------------------------------------------------------ #
    # Maintenance (exclusive / write side)

    def register_table(
        self,
        table: Table,
        params: PairwiseHistParams | None = None,
        partition_size: int | None = None,
    ) -> ManagedTable:
        # The one place locks are created for a not-yet-registered name.
        # Both objects are captured under the registry mutex (a racing drop
        # of the same name may pop the dict entries while we wait on the
        # mutex, so they must not be re-read from the dicts).
        with self._registry_mutex:
            if table.name not in self._table_locks:
                self._create_locks(table.name)
            mutex = self._ingest_mutexes[table.name]
            lock = self._table_locks[table.name]
        try:
            with mutex:
                with lock.write_locked():
                    return self.database.register(
                        table, params=params, partition_size=partition_size
                    )
        except BaseException:
            # A failed registration must not leave a lock pair behind for a
            # name that never made it into the catalog (a duplicate-name
            # failure keeps the live table's locks: the name *is* registered).
            with self._registry_mutex:
                if table.name not in self.database:
                    self._table_locks.pop(table.name, None)
                    self._ingest_mutexes.pop(table.name, None)
            raise

    def _acquire_current_ingest_mutex(self, table_name: str) -> threading.Lock:
        """Acquire the table's ingest mutex, retrying over drop races.

        Once the *currently registered* mutex is held, no ``drop_table``
        can retire the pair (it needs this mutex first), so the whole
        lock pair is stable for the duration.
        """
        while True:
            mutex = self._ingest_mutex(table_name)
            mutex.acquire()
            with self._registry_mutex:
                if self._ingest_mutexes.get(table_name) is mutex:
                    return mutex
            mutex.release()  # stale pair; look the current one up again

    def ingest(self, table_name: str, rows: Table) -> IngestResult:
        """Copy-on-write ingest: build off-lock, swap under the write lock."""
        mutex = self._acquire_current_ingest_mutex(table_name)
        try:
            staged = self.database.stage_ingest(table_name, rows)
            with self.lock_for(table_name).write_locked():
                return self.database.commit_ingest(staged)
        finally:
            mutex.release()

    def drop_table(self, table_name: str) -> None:
        mutex = self._acquire_current_ingest_mutex(table_name)
        try:
            with self.lock_for(table_name).write_locked():
                self.database.drop(table_name)
            # Retire the dropped table's locks; a later re-registration
            # under the same name starts with a fresh pair.  Queries racing
            # this pop cannot re-insert the entry (lock_for only creates
            # while the name is in the catalog) and they revalidate their
            # lock after acquiring it, so a stale pair is never acted on.
            with self._registry_mutex:
                self._table_locks.pop(table_name, None)
                self._ingest_mutexes.pop(table_name, None)
        finally:
            mutex.release()
