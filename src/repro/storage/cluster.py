"""Cluster manifest + per-shard data-directory layout.

A sharded cluster roots all durable state under one directory:

.. code-block:: text

    cluster-root/
      CLUSTER          # binary manifest: shard count + table catalog
      shard-00000/     # one full DurableDatabase data dir per shard
        wal/
        snapshots/
      shard-00001/
        ...
      shard-00000-replica-00/   # with replicas: one data dir per slot
      shard-00000.epoch         # and the shard's epoch (fencing) record

Each shard directory is an ordinary
:class:`~repro.storage.durable.DurableDatabase` data directory — the
shard recovers itself (snapshot + WAL replay) exactly like a single-node
service.  The ``CLUSTER`` manifest carries what the *front end* needs to
come back: the shard count (routing is ``hash % num_shards``, so the
count is part of the data's identity — reopening with a different count
would misroute every row) and, per registered table, the schema,
construction params and partition size so lazily-registered shards (those
that had not yet received a row for a table) can be registered on the
next ingest that routes rows to them.

The manifest is written atomically (temp file + ``os.replace``) on every
catalog change, with the same no-pickle binary framing as everything
else on disk.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

from ..core.params import PairwiseHistParams
from ..core.serialization import deserialize_params, serialize_params
from ..data.schema import TableSchema
from . import codec

MANIFEST_NAME = "CLUSTER"
_MANIFEST_MAGIC = b"PWCM"
_MANIFEST_VERSION = 1
_SHARD_PREFIX = "shard-"


@dataclass
class ClusterTableMeta:
    """Catalog entry for one logical table of the cluster."""

    name: str
    schema: TableSchema
    params: PairwiseHistParams
    partition_size: int | None = None

    def encode(self) -> bytes:
        return b"".join(
            [
                codec.pack_string(self.name),
                struct.pack(
                    "<q", -1 if self.partition_size is None else self.partition_size
                ),
                serialize_params(self.params),
                codec.encode_schema(self.schema),
            ]
        )

    @classmethod
    def decode(cls, payload: bytes) -> "ClusterTableMeta":
        buffer = memoryview(payload)
        name, offset = codec.unpack_string(buffer, 0)
        (partition_size,) = struct.unpack_from("<q", buffer, offset)
        offset += 8
        params, offset = deserialize_params(buffer, offset)
        schema, _ = codec.decode_schema(buffer, offset)
        return cls(
            name=name,
            schema=schema,
            params=params,
            partition_size=None if partition_size < 0 else int(partition_size),
        )


@dataclass
class ClusterManifest:
    """Everything a cluster restart needs that no single shard knows."""

    num_shards: int
    tables: list[ClusterTableMeta] = field(default_factory=list)

    def encode(self) -> bytes:
        header = _MANIFEST_MAGIC + struct.pack(
            "<HI", _MANIFEST_VERSION, self.num_shards
        )
        return header + codec.frame_blobs([t.encode() for t in self.tables])

    @classmethod
    def decode(cls, payload: bytes) -> "ClusterManifest":
        buffer = memoryview(payload)
        if bytes(buffer[:4]) != _MANIFEST_MAGIC:
            raise ValueError("not a cluster manifest (bad magic)")
        version, num_shards = struct.unpack_from("<HI", buffer, 4)
        if version != _MANIFEST_VERSION:
            raise ValueError(f"unsupported cluster manifest version {version}")
        blobs, _ = codec.unframe_blobs(buffer, 4 + struct.calcsize("<HI"))
        return cls(
            num_shards=int(num_shards),
            tables=[ClusterTableMeta.decode(blob) for blob in blobs],
        )


def shard_dir_name(index: int) -> str:
    return f"{_SHARD_PREFIX}{index:05d}"


def replica_dir_name(index: int, replica: int) -> str:
    """Data directory name for replica ``replica`` of shard ``index``."""
    return f"{_SHARD_PREFIX}{index:05d}-replica-{replica:02d}"


def epoch_file_name(index: int) -> str:
    """Per-shard epoch (fencing) file name at the cluster root."""
    return f"{_SHARD_PREFIX}{index:05d}.epoch"


@dataclass
class ClusterLayout:
    """The on-disk shape of one cluster root directory."""

    root: Path

    def __init__(self, root) -> None:
        self.root = Path(root)

    @property
    def manifest_path(self) -> Path:
        return self.root / MANIFEST_NAME

    def shard_path(self, index: int) -> Path:
        return self.root / shard_dir_name(index)

    def replica_path(self, index: int, replica: int) -> Path:
        return self.root / replica_dir_name(index, replica)

    def epoch_path(self, index: int) -> Path:
        return self.root / epoch_file_name(index)

    def detect_replicas(self, num_shards: int) -> int:
        """Replicas-per-shard inferred from the directory listing.

        Replica directories are created eagerly for every shard, so the
        count of shard 0's replica dirs is the cluster-wide setting.
        """
        count = 0
        while self.replica_path(0, count).is_dir():
            count += 1
        return count

    def ensure(self, num_shards: int, replicas: int = 0) -> None:
        """Create every shard (and replica) data directory, and a replicated
        shard's first epoch record (epoch 1, naming its shard directory)."""
        if replicas:
            from ..replication.fence import read_epoch, write_epoch
        self.root.mkdir(parents=True, exist_ok=True)
        for index in range(num_shards):
            self.shard_path(index).mkdir(parents=True, exist_ok=True)
            for replica in range(replicas):
                self.replica_path(index, replica).mkdir(parents=True, exist_ok=True)
            if replicas and read_epoch(self.epoch_path(index)).epoch == 0:
                write_epoch(self.epoch_path(index), 1, primary=shard_dir_name(index))

    def worker_paths(self, index: int, replicas: int) -> tuple[Path, list[Path]]:
        """Shard ``index``'s primary data directory and its replicas', slot
        by slot, as its epoch record assigns them: a promotion moves the
        primary role into a replica directory, and the directory it left
        takes that slot."""
        primary = self.shard_path(index)
        slots = [self.replica_path(index, replica) for replica in range(replicas)]
        if replicas:
            from ..replication.fence import read_epoch

            named = read_epoch(self.epoch_path(index)).primary
            for slot, path in enumerate(slots):
                if path.name == named:
                    primary, slots[slot] = path, primary
        return primary, slots

    # ------------------------------------------------------------------ #
    # Manifest I/O

    def write_manifest(self, manifest: ClusterManifest) -> None:
        """Atomically publish the manifest (temp file + rename)."""
        self.root.mkdir(parents=True, exist_ok=True)
        tmp = self.root / f"{MANIFEST_NAME}.tmp-{os.getpid()}"
        tmp.write_bytes(manifest.encode())
        os.replace(tmp, self.manifest_path)

    def read_manifest(self) -> ClusterManifest | None:
        """The published manifest, or ``None`` for a fresh directory."""
        try:
            payload = self.manifest_path.read_bytes()
        except FileNotFoundError:
            return None
        return ClusterManifest.decode(payload)
