"""Durable storage: write-ahead log, snapshot checkpoints, crash recovery.

The subsystem that makes the whole query service restartable:

* :mod:`repro.storage.wal` — length-prefixed, checksummed, segment-rotated
  redo log of every committed mutation;
* :mod:`repro.storage.snapshot` — atomic (temp dir + rename) checkpoint
  images of the catalog, GD-compressed partitions and PWHP synopses;
* :mod:`repro.storage.durable` — :class:`DurableDatabase`, the WAL-logged
  database with ``checkpoint()`` and the ``open()`` recovery path
  (also reachable as ``Database.open(path)``);
* :mod:`repro.storage.checkpointer` — background snapshot thread;
* :mod:`repro.storage.codec` — the shared binary framing helpers every
  on-disk format is built from (plus the WAL/snapshot payload codecs);
* :mod:`repro.storage.cluster` — cluster manifest + per-shard data-dir
  layout for the multi-process sharded deployment;
* :mod:`repro.storage.faults` — crash-injection points for recovery tests.

Names are resolved lazily (PEP 562): :mod:`repro.storage.codec` sits at
the *bottom* of the dependency stack (``core.serialization`` and
``gd.partitioned`` import its framing primitives), so this package's
``__init__`` must not eagerly pull in :mod:`repro.storage.durable` —
which imports the service layer — when only ``codec`` is wanted.
"""

_EXPORTS = {
    "BackgroundCheckpointer": ("checkpointer", "BackgroundCheckpointer"),
    "CheckpointResult": ("durable", "CheckpointResult"),
    "DurableDatabase": ("durable", "DurableDatabase"),
    "RecoveryInfo": ("durable", "RecoveryInfo"),
    "SimulatedCrash": ("faults", "SimulatedCrash"),
    "SnapshotState": ("snapshot", "SnapshotState"),
    "WAL_DROP": ("durable", "WAL_DROP"),
    "WAL_INGEST": ("durable", "WAL_INGEST"),
    "WAL_REGISTER": ("durable", "WAL_REGISTER"),
    "WalRecord": ("wal", "WalRecord"),
    "WalScanReport": ("wal", "WalScanReport"),
    "WriteAheadLog": ("wal", "WriteAheadLog"),
    "ClusterLayout": ("cluster", "ClusterLayout"),
    "ClusterManifest": ("cluster", "ClusterManifest"),
    "ClusterTableMeta": ("cluster", "ClusterTableMeta"),
    "load_latest_snapshot": ("snapshot", "load_latest_snapshot"),
    "maybe_crash": ("faults", "maybe_crash"),
    "set_crash_hook": ("faults", "set_crash_hook"),
    "write_snapshot": ("snapshot", "write_snapshot"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module_name, attribute = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    from importlib import import_module

    value = getattr(import_module(f".{module_name}", __name__), attribute)
    globals()[name] = value  # cache so the lookup runs once
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
