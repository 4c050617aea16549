"""Durable database: WAL-logged mutations, checkpoints, crash recovery.

:class:`DurableDatabase` extends the in-memory
:class:`~repro.service.database.Database` with a redo log and snapshot
checkpoints:

* every mutation (register / committed ingest / drop) appends one record
  to the :class:`~repro.storage.wal.WriteAheadLog` *atomically* with its
  catalog swap — a single ``_durable_mutex`` orders appends and catalog
  swaps against checkpoint captures, so a checkpoint always sees a
  consistent cut of (state, LSN);
* :meth:`checkpoint` captures every table's current immutable value
  under that mutex (microseconds — queries never block, writers block
  only for the capture, never the serialization), writes an atomic
  snapshot directory and truncates WAL segments the snapshot covers;
* :meth:`open` recovers: load the newest valid snapshot, replay WAL
  records past its checkpoint LSN, rebuild only the partition synopses
  the replay touched — each with the table size as of the ingest that
  last touched it, so the recovered synopses are bit-identical to an
  uninterrupted run — and drop obsolete segments.

The lock ordering is ``table writer mutex -> _durable_mutex`` (ingest,
drop and a replica's uninstall hold the table's writer mutex when they
publish; register takes the catalog mutex first instead).  The capture
path takes only ``_durable_mutex``, so checkpoints cannot deadlock with a
writer, and queries take no lock at all: they run on the immutable engine
they read once.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from ..core.engine import PairwiseHistEngine
from ..core.synopsis import PairwiseHist
from ..data.table import Table
from ..obs import metrics as obs_metrics
from ..service.database import Database, IngestResult, ManagedTable, StagedIngest
from . import codec
from .faults import maybe_crash
from .snapshot import (
    SNAPSHOT_PREFIX,
    SnapshotState,
    TableSnapshotState,
    load_latest_snapshot,
    write_snapshot,
)
from .wal import DEFAULT_SEGMENT_BYTES, WriteAheadLog

#: WAL record types.
WAL_REGISTER = 1
WAL_INGEST = 2
WAL_DROP = 3

_CHECKPOINT_SECONDS = obs_metrics.histogram(
    "aqp_checkpoint_seconds",
    "Wall time of one checkpoint call, including the no-op fast path.",
)
_CHECKPOINTS = obs_metrics.counter(
    "aqp_checkpoints_total",
    "Checkpoint calls, by outcome (written vs. skipped-no-change).",
    labelnames=("outcome",),
)
_CHECKPOINT_BLOBS = obs_metrics.counter(
    "aqp_checkpoint_blobs_total",
    "Partition blobs per written checkpoint: hard-linked from the previous "
    "snapshot vs. rewritten from memory.",
    labelnames=("disposition",),
)


@dataclass
class CheckpointResult:
    """Outcome of one :meth:`DurableDatabase.checkpoint` call."""

    checkpoint_lsn: int
    path: Path | None
    tables: int
    seconds: float
    #: True when nothing was logged since the previous checkpoint, so no
    #: snapshot was written.
    skipped: bool = False


@dataclass
class RecoveryInfo:
    """What :meth:`DurableDatabase.open` found and did (observability)."""

    snapshot_lsn: int
    snapshot_tables: int
    replayed_records: int
    replayed_rows: int
    rebuilt_partitions: int
    torn_wal_bytes: int
    truncated_segments: list[str] = field(default_factory=list)
    seconds: float = 0.0


class DurableDatabase(Database):
    """A :class:`Database` whose state survives process death."""

    def __init__(
        self,
        path,
        segment_max_bytes: int = DEFAULT_SEGMENT_BYTES,
        fsync: bool = False,
        keep_snapshots: int = 2,
        _recovering: bool = False,
        **database_kwargs,
    ) -> None:
        super().__init__(**database_kwargs)
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self.snapshots_dir = self.path / "snapshots"
        self.wal = WriteAheadLog(
            self.path / "wal", segment_max_bytes=segment_max_bytes, fsync=fsync
        )
        if not _recovering and self._has_persisted_state():
            # A direct construction starts with an empty catalog; letting
            # it proceed on a populated directory would checkpoint that
            # empty catalog and truncate the old tables' WAL away.
            self.wal.close()
            raise ValueError(
                f"data directory {str(self.path)!r} already contains state; "
                "use DurableDatabase.open(path) to recover it"
            )
        self.keep_snapshots = keep_snapshots
        #: Orders WAL appends + in-memory publications against checkpoint
        #: captures (see module docstring for the locking discipline).
        self._durable_mutex = threading.Lock()
        self._checkpoint_mutex = threading.Lock()
        self._last_checkpoint_lsn = 0
        self.recovery_info: RecoveryInfo | None = None
        #: Optional hook returning the replication retention floor (the
        #: minimum follower-acknowledged LSN, or ``None`` when no follower
        #: is registered).  Checkpoints keep every WAL record above it so
        #: a live subscriber can always resume from the log.
        self.retention_floor = None

    # ------------------------------------------------------------------ #
    # Lifecycle

    def _has_persisted_state(self) -> bool:
        if self.wal.last_lsn > 0:
            return True
        return self.snapshots_dir.is_dir() and any(
            self.snapshots_dir.glob(f"{SNAPSHOT_PREFIX}*")
        )

    def close(self) -> None:
        self.wal.close()

    def __enter__(self) -> "DurableDatabase":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Logged mutations

    def _publish_registration(self, managed: ManagedTable, source: Table) -> ManagedTable:
        payload = codec.encode_register_payload(
            source, managed.params, managed.store.partition_size
        )
        with self._catalog_mutex, self._durable_mutex:
            if managed.name in self._tables:
                raise ValueError(f"table {managed.name!r} is already registered")
            self.wal.append(WAL_REGISTER, payload)
            return self._commit(managed)

    def commit_ingest(self, staged: StagedIngest) -> IngestResult:
        if staged.next is None:
            # Nothing was appended; nothing to make durable.
            return super().commit_ingest(staged)
        payload = codec.encode_ingest_payload(staged.table.name, staged.rows)
        with self._durable_mutex:
            # Validate everything the in-memory commit can reject *before*
            # the WAL append: a record whose commit then failed would be
            # replayed on recovery (or, staged against a dropped table,
            # crash recovery outright), diverging recovered state from
            # the live run.
            self._staged_table(staged)
            lsn = self.wal.append(WAL_INGEST, payload)
            try:
                return super().commit_ingest(staged)
            except BaseException:
                # The commit published nothing; scrub the record so the
                # WAL keeps exactly the mutations the live run applied.
                self.wal.rollback_last(lsn)
                raise

    def drop(self, name: str) -> None:
        with self.writing(name), self._durable_mutex:
            self.wal.append(WAL_DROP, codec.encode_drop_payload(name))
            del self._tables[name]

    def persist(self) -> int:
        """fsync the WAL; every acknowledged mutation is now on stable media."""
        return self.wal.sync()

    # ------------------------------------------------------------------ #
    # Replication support

    @property
    def last_checkpoint_lsn(self) -> int:
        """LSN covered by the most recent checkpoint (0 before the first)."""
        return self._last_checkpoint_lsn

    def _retention_floor_lsn(self) -> int | None:
        hook = self.retention_floor
        if hook is None:
            return None
        try:
            return hook()
        except Exception:
            # A broken floor hook must not fail checkpoints; worst case
            # the truncation is less conservative than replication wants
            # and a fallen-behind follower reseeds from a snapshot.
            return None

    def uninstall_table(self, name: str) -> None:
        """Remove a table from the catalog *without* logging a drop.

        Replication reseed only: the follower is about to replace its
        entire catalog with the primary's snapshot, and its WAL is reset
        alongside, so a logged drop would be both wrong (the primary never
        dropped it) and unreplayable.  Takes the table's writer mutex, as
        a drop does, so an in-flight ingest finishes first.
        """
        with self.writing(name), self._durable_mutex:
            del self._tables[name]

    # ------------------------------------------------------------------ #
    # Checkpoints

    def _capture(self) -> SnapshotState:
        """Grab every table's current value: references, not copies.

        Runs under ``_durable_mutex``, which every logged mutation holds, so
        the values and the WAL's last LSN form one consistent cut: a
        record is reflected in the captured state iff its LSN is
        ``<= checkpoint_lsn``.  A value is immutable, so the serialization
        that follows runs without any lock, and rows an ingest has staged
        but not committed are never in it.

        A partition that a previous checkpoint (or the snapshot load)
        persisted carries its blob identity; the snapshot writer checks
        those identities against the previous snapshot's manifest and
        hard-links the persisted blobs instead of rewriting them, which is
        what makes checkpoints O(tail).
        """
        with self._durable_mutex:
            tables = [
                TableSnapshotState(
                    store=managed.store,
                    params=managed.params,
                    partition_synopses=managed.partition_synopses,
                    synopsis_builds=managed.synopsis_builds,
                    merged=managed.engine.synopsis,
                )
                for managed in self._tables.values()
            ]
            return SnapshotState(checkpoint_lsn=self.wal.last_lsn, tables=tables)

    def checkpoint(self) -> CheckpointResult:
        """Write a snapshot of the current committed state, then truncate
        WAL segments it makes obsolete.  Cheap when nothing changed."""
        with self._checkpoint_mutex:
            start = time.perf_counter()
            state = self._capture()
            if state.checkpoint_lsn == self._last_checkpoint_lsn:
                if self.wal.truncation_held:
                    # The snapshot at this LSN is already on disk; only the
                    # truncation a follower or reader held back is still due.
                    self.wal.truncate_through(
                        state.checkpoint_lsn,
                        retain_after_lsn=self._retention_floor_lsn(),
                    )
                elapsed = time.perf_counter() - start
                _CHECKPOINT_SECONDS.observe(elapsed)
                _CHECKPOINTS.inc(outcome="skipped")
                return CheckpointResult(
                    checkpoint_lsn=state.checkpoint_lsn,
                    path=None,
                    tables=len(state.tables),
                    seconds=elapsed,
                    skipped=True,
                )
            blob_stats: dict[str, int] = {}
            path = write_snapshot(
                self.snapshots_dir,
                state,
                keep=self.keep_snapshots,
                # Match the WAL's durability level: with --fsync the
                # snapshot must be on stable media before the WAL records
                # it covers are truncated away.
                fsync=self.wal.fsync,
                blob_stats=blob_stats,
            )
            maybe_crash("checkpoint.before_truncate")
            self.wal.truncate_through(
                state.checkpoint_lsn, retain_after_lsn=self._retention_floor_lsn()
            )
            self._last_checkpoint_lsn = state.checkpoint_lsn
            elapsed = time.perf_counter() - start
            _CHECKPOINT_SECONDS.observe(elapsed)
            _CHECKPOINTS.inc(outcome="written")
            for disposition, count in blob_stats.items():
                if count:
                    _CHECKPOINT_BLOBS.inc(count, disposition=disposition)
            return CheckpointResult(
                checkpoint_lsn=state.checkpoint_lsn,
                path=path,
                tables=len(state.tables),
                seconds=elapsed,
            )

    # ------------------------------------------------------------------ #
    # Recovery

    @classmethod
    def open(cls, path, **kwargs) -> "DurableDatabase":
        """Open a data directory: load snapshot, replay WAL, truncate.

        Replay never re-appends to the WAL, so a crash *during or after*
        recovery (before the next checkpoint) simply replays the same
        records from the same snapshot again — recovery is idempotent.
        """
        start = time.perf_counter()
        db = cls(path, _recovering=True, **kwargs)
        snapshot = load_latest_snapshot(db.snapshots_dir)
        checkpoint_lsn = 0
        snapshot_tables = 0
        if snapshot is not None:
            checkpoint_lsn = snapshot.checkpoint_lsn
            snapshot_tables = len(snapshot.tables)
            for loaded in snapshot.tables:
                db._install_loaded(loaded)
            if db.wal.last_lsn < checkpoint_lsn:
                # The log scan ended below the snapshot: corruption ate
                # records in segments the crashed checkpoint never got to
                # truncate.  Everything still scannable is covered by the
                # snapshot, so restart the log past it — otherwise new
                # mutations would reuse covered LSNs and the next
                # checkpoint would sort *below* the stale snapshot,
                # silently losing them on the following restart.
                db.wal.reset_to(checkpoint_lsn)
        replayed_records, replayed_rows, rebuilt = db._replay(checkpoint_lsn)
        truncated = db.wal.truncate_through(checkpoint_lsn)
        db._last_checkpoint_lsn = checkpoint_lsn
        db.recovery_info = RecoveryInfo(
            snapshot_lsn=checkpoint_lsn,
            snapshot_tables=snapshot_tables,
            replayed_records=replayed_records,
            replayed_rows=replayed_rows,
            rebuilt_partitions=rebuilt,
            torn_wal_bytes=db.wal.last_scan.torn_bytes,
            truncated_segments=truncated,
            seconds=time.perf_counter() - start,
        )
        return db

    def _install_loaded(self, loaded: TableSnapshotState) -> None:
        """Commit one snapshot table as a live ManagedTable (no rebuilds).

        The queryable synopsis comes straight from the snapshot's exact
        (``PWHX``) merged payload when present; re-merging every partition
        would dominate the restart otherwise.  Its construction params are
        swapped back to the catalog's full-fidelity copy (the wire header
        only carries the bound-recomputation fields).  A snapshot without
        a merged payload is merged here, so no catalog value ever lacks
        a synopsis.  Replay may still replace it (``_rebuild_replayed``).
        A reseed replaces a table under its name; the fresh version the
        commit draws keeps the old table's cached answers from aliasing.
        """
        merged = loaded.merged
        if merged is None:
            merged = PairwiseHist.merge(list(loaded.partition_synopses), params=loaded.params)
        elif merged.params != loaded.params:
            merged = replace(merged, params=loaded.params)
        store = loaded.store
        engine = PairwiseHistEngine(
            synopsis=merged,
            preprocessor=store.preprocessor,
            table_name=store.table_name,
        )
        self._commit(
            ManagedTable(
                name=store.table_name,
                params=loaded.params,
                store=store,
                # Kept as the snapshot's lazy sequence: per-partition
                # synopses hydrate on first ingest touch, not at open()
                # (queries only need the merged synopsis).
                partition_synopses=loaded.partition_synopses,
                engine=engine,
                synopsis_builds=loaded.synopsis_builds,
                synopsis_version=0,
            )
        )

    def _replay(self, checkpoint_lsn: int) -> tuple[int, int, int]:
        """Apply WAL records past the checkpoint; rebuild touched synopses.

        Appends are applied store-level only while scanning, to a copy of
        each touched table's store; per partition we remember the table's
        row count as of the *last* record touching it, then rebuild each
        touched partition once with that row count — the same bin budget
        the live run used for its final rebuild of that partition, so
        recovered synopses match exactly at a fraction of the live run's
        rebuild cost.
        """
        replayed_records = 0
        replayed_rows = 0
        #: table -> [its store with the replayed batches appended,
        #: {partition index -> table rows as of last touch}, builds the
        #: live run would have counted — one per affected partition per
        #: ingest, even when replay coalesces the actual rebuilds, which
        #: keeps the maintenance-cost metric identical]
        pending: dict[str, list] = {}
        for record in self.wal.read_records(after_lsn=checkpoint_lsn):
            replayed_records += 1
            if record.rtype == WAL_REGISTER:
                table, params, partition_size = codec.decode_register_payload(
                    record.payload
                )
                pending.pop(table.name, None)
                self._tables.pop(table.name, None)
                self._commit(self._build_managed(table, params, partition_size))
            elif record.rtype == WAL_INGEST:
                name, batch = codec.decode_ingest_payload(record.payload)
                if name not in pending:
                    pending[name] = [replace(self._tables[name].store), {}, 0]
                entry = pending[name]
                store, touched = entry[0], entry[1]
                affected = store.append(batch)
                replayed_rows += batch.num_rows
                entry[2] += len(affected)
                for index in affected:
                    touched[index] = store.num_rows
            elif record.rtype == WAL_DROP:
                name = codec.decode_drop_payload(record.payload)
                pending.pop(name, None)
                self._tables.pop(name, None)
            else:
                raise ValueError(f"unknown WAL record type {record.rtype}")
        rebuilt = 0
        for name, (store, touched, builds) in pending.items():
            rebuilt += self._rebuild_replayed(self._tables[name], store, touched, builds)
        return replayed_records, replayed_rows, rebuilt

    def _rebuild_replayed(
        self, managed: ManagedTable, store, touched: dict[int, int], builds: int
    ) -> int:
        """Commit ``store`` with each touched partition's synopsis rebuilt."""
        synopses: list[PairwiseHist | None] = list(managed.partition_synopses)
        synopses.extend([None] * (store.num_partitions - len(synopses)))
        by_total: dict[int, list[int]] = {}
        for index, total in touched.items():
            by_total.setdefault(total, []).append(index)
        for total, indices in sorted(by_total.items()):
            built = self._build_synopses(
                store,
                managed.params,
                [store.partitions[i] for i in indices],
                total_rows=total,
            )
            for index, synopsis in zip(indices, built):
                synopses[index] = synopsis
        merged = PairwiseHist.merge(list(synopses), params=managed.params)
        self._commit(
            managed,
            store=store,
            partition_synopses=synopses,
            engine=replace(managed.engine, synopsis=merged),
            synopsis_builds=managed.synopsis_builds + builds,
        )
        return len(touched)
