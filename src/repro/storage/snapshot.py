"""Snapshot checkpoints: atomic on-disk images of the whole catalog.

One record, :class:`TableSnapshotState` — a table's store, params,
per-partition synopses, build count and merged synopsis — is both what
a checkpoint captures from a :class:`~repro.service.database.ManagedTable`
value and what a load returns for recovery to commit.

A snapshot directory holds a ``CATALOG`` (per table: schema, fitted
pre-processor, construction params) and, per table ``NNNNN``, the
GD-compressed partitions, the per-partition synopses
(``table-NNNNN.synopses``, PWHP) and the merged synopsis queries run on
(``table-NNNNN.merged``, exact PWHX, loaded as is).  A ``MANIFEST`` of
every file's size and CRC32 is written *last*, and the directory is
assembled under a temporary name and published with one ``os.replace``:
a snapshot exists completely and checksum-clean, or not at all.
Recovery loads the newest snapshot whose manifest validates, so a crash
mid-checkpoint (partial temp dir, missing manifest, torn file) falls back
to the previous checkpoint plus WAL replay.

Partitions are stored one content-addressed ``part-<digest>.blob`` file
each, plus a small ``table-NNNNN.parts`` index listing the blob names in
partition order (format **v2**, the only one read or written).  Sealed
partitions are immutable, so a checkpoint **hard-links** their blob
files from the previous snapshot directory (copying on filesystems
without link support) and only serializes partitions it has never
persisted — typically just the tail.  Checkpoint cost becomes O(tail),
not O(table).  Garbage collection stays safe because the link keeps the
blob's bytes alive until the last snapshot directory referencing it is
removed.  A snapshot directory without a ``.parts`` index (the retired
v1 layout) does not load: recovery falls back past it like any other
unreadable snapshot.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

from ..core.params import PairwiseHistParams
from ..core.serialization import (
    LazyPartitionSynopses,
    deserialize,
    deserialize_catalog,
    deserialize_manifest,
    deserialize_params,
    serialize,
    serialize_catalog,
    serialize_manifest,
    serialize_params,
    serialize_partitioned,
)
from ..core.synopsis import PairwiseHist
from ..gd.partitioned import PartitionedStore, dump_partition, load_partition
from . import codec
from .faults import maybe_crash

SNAPSHOT_PREFIX = "snap-"
_TMP_PREFIX = "tmp-"
_MANIFEST_NAME = "MANIFEST"
_CATALOG_NAME = "CATALOG"
_CURRENT_NAME = "CURRENT"

_BLOB_PREFIX = "part-"
_BLOB_SUFFIX = ".blob"
_PARTS_MAGIC = b"PRT2"

#: Attribute cached on a :class:`~repro.gd.store.CompressedStore` once
#: its blob has been persisted: ``(blob file name, size, crc32)``.
#: Partition objects are immutable after publication (a tail top-up
#: replaces the object), so the identity holds for the object's whole
#: lifetime; whether the file still exists is re-checked against the
#: previous snapshot's manifest.
_BLOB_ATTR = "_snapshot_blob"


def _blob_name(payload: bytes) -> str:
    """Content-addressed blob file name (stable across table reordering)."""
    return f"{_BLOB_PREFIX}{hashlib.blake2b(payload, digest_size=16).hexdigest()}{_BLOB_SUFFIX}"


def _encode_parts_index(names: list[str]) -> bytes:
    return _PARTS_MAGIC + codec.frame_blobs([name.encode("ascii") for name in names])


def _decode_parts_index(payload: bytes) -> list[str]:
    buffer = memoryview(payload)
    if bytes(buffer[:4]) != _PARTS_MAGIC:
        raise ValueError("not a snapshot partition index (bad magic)")
    blobs, _ = codec.unframe_blobs(buffer, 4)
    return [blob.decode("ascii") for blob in blobs]


# --------------------------------------------------------------------------- #
# Captured state (copy-on-write references, serialized off-lock)


@dataclass(frozen=True)
class TableSnapshotState:
    """One table at a checkpoint cut: what a checkpoint writes and a load returns.

    References, not copies: a :class:`~repro.service.database.ManagedTable`
    value and everything on it are immutable, so holding the references
    keeps the cut consistent while the serialization runs without any
    lock.  The store carries the table's name, schema, pre-processor,
    partition size and partitions.
    """

    store: PartitionedStore
    params: PairwiseHistParams
    partition_synopses: list[PairwiseHist]
    synopsis_builds: int
    #: The merged (queryable) synopsis at the cut.  Persisted in the
    #: exact (``PWHX``) encoding so a warm restart loads it directly
    #: instead of re-merging every partition's synopsis.
    merged: PairwiseHist | None = None


@dataclass
class SnapshotState:
    """Everything one checkpoint persists: the cut LSN plus every table."""

    checkpoint_lsn: int
    tables: list[TableSnapshotState]


# --------------------------------------------------------------------------- #
# Per-table framing


#: The 18-byte slot after the params that once held the GreedyGD search
#: settings (search rows, max deviation bits, early stop, warm-started
#: appends).  The search now has fixed constants; every entry writes the
#: values they always had and a reader skips the slot.
_GD_SLOT = struct.pack("<qqBB", 20_000, 62, 1, 1)


def _encode_table_meta(state: TableSnapshotState) -> bytes:
    store = state.store
    parts = [
        codec.pack_string(store.table_name),
        struct.pack("<qq", store.partition_size, state.synopsis_builds),
        serialize_params(state.params),
        _GD_SLOT,
        codec.encode_schema(store.schema),
        codec.encode_preprocessor(store.preprocessor),
    ]
    return b"".join(parts)


def _decode_table_meta(payload: bytes):
    """Inverse of :func:`_encode_table_meta`; the :data:`_GD_SLOT` bytes and
    the params' last slot (see :func:`deserialize_params`) are skipped."""
    buffer = memoryview(payload)
    name, offset = codec.unpack_string(buffer, 0)
    partition_size, synopsis_builds = struct.unpack_from("<qq", buffer, offset)
    offset += struct.calcsize("<qq")
    params, offset = deserialize_params(buffer, offset)
    offset += len(_GD_SLOT)
    schema, offset = codec.decode_schema(buffer, offset)
    preprocessor, offset = codec.decode_preprocessor(buffer, offset)
    return name, int(partition_size), int(synopsis_builds), params, schema, preprocessor


# --------------------------------------------------------------------------- #
# Writing


def snapshot_dir_name(checkpoint_lsn: int) -> str:
    return f"{SNAPSHOT_PREFIX}{checkpoint_lsn:020d}"


def _previous_snapshot(
    snapshots_dir: Path,
) -> tuple[Path, dict[str, tuple[int, int]]] | None:
    """The newest published snapshot with a parseable manifest, as the
    hard-link source for sealed blobs: ``(path, {name: (size, crc)})``."""
    for path in _snapshot_paths(snapshots_dir):
        manifest_path = path / _MANIFEST_NAME
        if not manifest_path.is_file():
            continue
        try:
            _, files = deserialize_manifest(manifest_path.read_bytes())
        except (ValueError, struct.error):
            continue
        return path, {name: (size, crc) for name, size, crc in files}
    return None


def write_snapshot(
    snapshots_dir: str | os.PathLike,
    state: SnapshotState,
    keep: int = 2,
    fsync: bool = False,
    blob_stats: dict[str, int] | None = None,
) -> Path:
    """Write one snapshot atomically; returns the published directory.

    ``blob_stats``, when given, is filled in place with per-disposition
    partition-blob counts for this snapshot: ``"linked"`` (reused from the
    previous snapshot — hard link, verified copy, or shared with an earlier
    table in the same snapshot) vs. ``"rewritten"`` (serialized from
    memory).  The return type is unchanged.

    Everything lands in a temp directory first; the manifest is the last
    file written inside it, then one ``os.replace`` publishes the whole
    directory under its final LSN-derived name.  Snapshots beyond the
    ``keep`` most recent are garbage-collected afterwards.

    Partition blobs already present in the previous snapshot are hard-linked into the new directory instead of
    being re-serialized and re-written — only partitions persisted for
    the first time (the tail), the catalog, the synopsis payloads and
    the manifest cost anything, so checkpoint time is O(tail).

    ``fsync=True`` additionally fsyncs every *newly written* snapshot
    file and the enclosing directories before returning.  Hard-linked
    blobs need no re-fsync: their bytes were fsynced by the checkpoint
    that first wrote them, and the directory fsync persists the new link
    entries.  The caller truncates WAL segments the snapshot covers
    immediately afterwards, so without the fsync a power cut could
    persist the truncation but not the snapshot data;
    process-death-only durability (the default) does not need it.
    """
    snapshots_dir = Path(snapshots_dir)
    snapshots_dir.mkdir(parents=True, exist_ok=True)
    final_path = snapshots_dir / snapshot_dir_name(state.checkpoint_lsn)
    previous = _previous_snapshot(snapshots_dir)
    tmp_path = snapshots_dir / f"{_TMP_PREFIX}{state.checkpoint_lsn:020d}-{os.getpid()}"
    if tmp_path.exists():
        shutil.rmtree(tmp_path)
    tmp_path.mkdir(parents=True)
    files: list[tuple[str, int, int]] = []
    written: set[str] = set()
    if blob_stats is None:
        blob_stats = {}
    blob_stats.setdefault("linked", 0)
    blob_stats.setdefault("rewritten", 0)

    def _write(name: str, payload: bytes) -> None:
        path = tmp_path / name
        path.write_bytes(payload)
        if fsync:
            _fsync_path(path)
        files.append((name, len(payload), zlib.crc32(payload)))
        written.add(name)

    def _link(name: str) -> bool:
        """Reuse a blob from the previous snapshot; False on any miss."""
        prev_path, prev_files = previous
        size, crc = prev_files[name]
        src = prev_path / name
        dst = tmp_path / name
        try:
            os.link(src, dst)
        except OSError:
            # No hard-link support (or the file vanished): fall back to a
            # verified copy, paying a full write for this blob.
            try:
                payload = src.read_bytes()
            except OSError:
                return False
            if len(payload) != size or zlib.crc32(payload) != crc:
                return False
            dst.write_bytes(payload)
            if fsync:
                _fsync_path(dst)
        files.append((name, size, crc))
        written.add(name)
        return True

    def _persist_partitions(index: int, table: TableSnapshotState) -> None:
        names: list[str] = []
        for partition in table.store.partitions:
            identity = getattr(partition, _BLOB_ATTR, None)
            name = None
            if identity is not None and previous is not None:
                if identity[0] in written:
                    name = identity[0]  # shared with an earlier table
                elif identity[0] in previous[1] and _link(identity[0]):
                    name = identity[0]
            if name is None:
                payload = dump_partition(partition)
                name = _blob_name(payload)
                if name not in written:
                    _write(name, payload)
                setattr(
                    partition, _BLOB_ATTR, (name, len(payload), zlib.crc32(payload))
                )
                blob_stats["rewritten"] += 1
            else:
                blob_stats["linked"] += 1
            names.append(name)
        maybe_crash("snapshot.mid_write")
        _write(f"table-{index:05d}.parts", _encode_parts_index(names))

    _write(_CATALOG_NAME, serialize_catalog([_encode_table_meta(t) for t in state.tables]))
    for index, table in enumerate(state.tables):
        _persist_partitions(index, table)
        _write(
            f"table-{index:05d}.synopses",
            serialize_partitioned(table.partition_synopses, cache=True),
        )
        if table.merged is not None:
            _write(f"table-{index:05d}.merged", serialize(table.merged, exact=True))
    maybe_crash("snapshot.before_manifest")
    manifest_path = tmp_path / _MANIFEST_NAME
    manifest_path.write_bytes(serialize_manifest(state.checkpoint_lsn, files))
    if fsync:
        _fsync_path(manifest_path)
        _fsync_path(tmp_path)
    maybe_crash("snapshot.before_publish")
    if final_path.exists():
        # A snapshot at this LSN already exists (nothing new was logged
        # since); the fresh temp copy is redundant.
        shutil.rmtree(tmp_path)
    else:
        os.replace(tmp_path, final_path)
    if fsync:
        _fsync_path(snapshots_dir)
    _update_current(snapshots_dir, final_path.name, fsync=fsync)
    _collect_garbage(snapshots_dir, keep)
    return final_path


def _fsync_path(path: Path) -> None:
    """fsync one file or directory."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _update_current(snapshots_dir: Path, name: str, fsync: bool = False) -> None:
    """Advisory pointer to the live snapshot (ops convenience; the loader
    trusts manifests, not this file).  Matches the snapshot's durability
    level: with ``fsync`` the tmp file is synced before the rename and
    the directory after it, so a runbook never reads a torn pointer."""
    tmp = snapshots_dir / f"{_CURRENT_NAME}.tmp"
    tmp.write_text(name + "\n")
    if fsync:
        _fsync_path(tmp)
    os.replace(tmp, snapshots_dir / _CURRENT_NAME)
    if fsync:
        _fsync_path(snapshots_dir)


def _snapshot_paths(snapshots_dir: Path) -> list[Path]:
    """Published snapshot directories, newest (highest LSN) first."""
    if not snapshots_dir.is_dir():
        return []
    return sorted(
        (p for p in snapshots_dir.iterdir() if p.is_dir() and p.name.startswith(SNAPSHOT_PREFIX)),
        key=lambda p: p.name,
        reverse=True,
    )


def _collect_garbage(snapshots_dir: Path, keep: int) -> None:
    """Remove snapshots beyond the ``keep`` newest, plus orphaned temp dirs.

    Safe with v2 hard-linked blobs: ``rmtree`` only unlinks the stale
    directory's *names*; a blob's bytes live until the last snapshot
    directory holding a link to it is removed.
    """
    for stale in _snapshot_paths(snapshots_dir)[keep:]:
        shutil.rmtree(stale, ignore_errors=True)
    for orphan in snapshots_dir.glob(f"{_TMP_PREFIX}*"):
        shutil.rmtree(orphan, ignore_errors=True)


# --------------------------------------------------------------------------- #
# Loading


def _validate(path: Path) -> tuple[int, dict[str, bytes]] | None:
    """Checkpoint LSN and verified payloads if the manifest checks out.

    Returning the payloads lets :func:`_load` decode from memory instead
    of reading every file from disk a second time.
    """
    manifest_path = path / _MANIFEST_NAME
    if not manifest_path.is_file():
        return None
    try:
        checkpoint_lsn, files = deserialize_manifest(manifest_path.read_bytes())
    except (ValueError, struct.error):
        return None
    payloads: dict[str, bytes] = {}
    for name, size, crc in files:
        member = path / name
        if not member.is_file():
            return None
        payload = member.read_bytes()
        if len(payload) != size or zlib.crc32(payload) != crc:
            return None
        payloads[name] = payload
    return checkpoint_lsn, payloads


def _load(checkpoint_lsn: int, payloads: dict[str, bytes]) -> SnapshotState:
    entries = deserialize_catalog(payloads[_CATALOG_NAME])
    tables: list[TableSnapshotState] = []
    for index, entry in enumerate(entries):
        name, partition_size, builds, params, schema, preprocessor = (
            _decode_table_meta(entry)
        )
        blob_names = _decode_parts_index(payloads[f"table-{index:05d}.parts"])
        blobs = [payloads[blob_name] for blob_name in blob_names]
        partitions = [load_partition(blob) for blob in blobs]
        # Remember each partition's on-disk identity so the first
        # checkpoint after this restart hard-links the sealed blobs
        # instead of rewriting them.
        for partition, blob_name, blob in zip(partitions, blob_names, blobs):
            setattr(partition, _BLOB_ATTR, (blob_name, len(blob), zlib.crc32(blob)))
        # Per-partition synopses hydrate on first ingest touch (queries run
        # off the merged payload), keeping query-only restarts fast.
        synopses = LazyPartitionSynopses(payloads[f"table-{index:05d}.synopses"])
        merged_payload = payloads.get(f"table-{index:05d}.merged")
        merged = deserialize(merged_payload) if merged_payload is not None else None
        store = PartitionedStore(
            table_name=name,
            schema=schema,
            preprocessor=preprocessor,
            partition_size=partition_size,
            partitions=partitions,
            _column_order=schema.names,
        )
        tables.append(
            TableSnapshotState(
                store=store,
                params=params,
                partition_synopses=synopses,
                synopsis_builds=builds,
                merged=merged,
            )
        )
    return SnapshotState(checkpoint_lsn=checkpoint_lsn, tables=tables)


def read_snapshot_files(
    snapshots_dir: str | os.PathLike,
) -> tuple[int, str, list[tuple[str, bytes]]] | None:
    """``(checkpoint_lsn, dir_name, [(relative_path, contents), ...])`` of
    the newest snapshot that validates, or ``None``.

    The file list includes the manifest, so installing the files verbatim
    into a ``dir_name`` directory elsewhere yields a snapshot that
    :func:`load_latest_snapshot` accepts — this is how a replication
    primary seeds a follower that has fallen behind the WAL horizon.
    """
    for path in _snapshot_paths(Path(snapshots_dir)):
        validated = _validate(path)
        if validated is None:
            continue
        checkpoint_lsn, payloads = validated
        files = [(f"{path.name}/{_MANIFEST_NAME}", (path / _MANIFEST_NAME).read_bytes())]
        files.extend((f"{path.name}/{name}", data) for name, data in payloads.items())
        return checkpoint_lsn, path.name, files
    return None


def load_latest_snapshot(snapshots_dir: str | os.PathLike) -> SnapshotState | None:
    """Load the newest snapshot that validates, or ``None`` if there is none.

    Invalid candidates (partial directory from a crashed checkpoint,
    corrupted file) are skipped, falling back to the next older snapshot —
    never raising for data that the atomic-publish protocol says to
    distrust.
    """
    for path in _snapshot_paths(Path(snapshots_dir)):
        validated = _validate(path)
        if validated is None:
            continue
        checkpoint_lsn, payloads = validated
        try:
            return _load(checkpoint_lsn, payloads)
        except (ValueError, struct.error, KeyError):
            continue
    return None
