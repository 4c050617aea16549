"""Unit tests for the durable-storage building blocks.

WAL framing (checksums, rotation, torn tails, truncation), the binary
codecs (tables, schemas, preprocessors, params), partition-level GD
dump/load and atomic snapshot write/load.  End-to-end crash recovery
lives in ``test_recovery.py``.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import make_simple_table

from repro.core.params import PairwiseHistParams
from repro.core.serialization import (
    deserialize_catalog,
    deserialize_manifest,
    deserialize_params,
    serialize_catalog,
    serialize_manifest,
    serialize_params,
)
from repro.gd.partitioned import PartitionedStore, dump_partition, load_partition
from repro.gd.preprocessor import Preprocessor
from repro.storage import (
    DurableDatabase,
    SimulatedCrash,
    WriteAheadLog,
    load_latest_snapshot,
    set_crash_hook,
    write_snapshot,
)
from repro.storage import codec
from repro.storage.snapshot import SnapshotState, TableSnapshotState


@pytest.fixture(autouse=True)
def _clear_crash_hook():
    yield
    set_crash_hook(None)


# --------------------------------------------------------------------------- #
# Write-ahead log


class TestWriteAheadLog:
    def test_append_read_round_trip(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        payloads = [bytes([i]) * (i + 1) for i in range(5)]
        lsns = [wal.append(1, p) for p in payloads]
        assert lsns == [1, 2, 3, 4, 5]
        records = list(wal.read_records())
        assert [r.lsn for r in records] == lsns
        assert [r.payload for r in records] == payloads
        assert wal.last_lsn == 5
        wal.close()

    def test_read_after_lsn_filters(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        for i in range(6):
            wal.append(2, b"x%d" % i)
        assert [r.lsn for r in wal.read_records(after_lsn=4)] == [5, 6]
        wal.close()

    def test_reopen_continues_lsn_sequence(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        wal.append(1, b"one")
        wal.close()
        wal = WriteAheadLog(tmp_path / "wal")
        assert wal.last_lsn == 1
        assert wal.append(1, b"two") == 2
        assert [r.payload for r in wal.read_records()] == [b"one", b"two"]
        wal.close()

    def test_segment_rotation(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal", segment_max_bytes=64)
        for i in range(10):
            wal.append(1, b"p" * 32)
        assert len(wal.segment_paths()) > 1
        assert [r.lsn for r in wal.read_records()] == list(range(1, 11))
        wal.close()

    def test_torn_tail_is_truncated_on_reopen(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        wal.append(1, b"good")
        wal.append(1, b"also-good")
        wal.close()
        # Simulate a crash mid-append: chop bytes off the last record.
        segment = wal.segment_paths()[-1]
        data = segment.read_bytes()
        segment.write_bytes(data[:-3])
        wal = WriteAheadLog(tmp_path / "wal")
        assert wal.last_scan.torn_bytes > 0
        assert [r.payload for r in wal.read_records()] == [b"good"]
        # Appending after truncation re-uses the freed LSN cleanly.
        assert wal.append(1, b"replacement") == 2
        assert [r.payload for r in wal.read_records()] == [b"good", b"replacement"]
        wal.close()

    def test_corrupted_record_ends_the_log(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        for i in range(3):
            wal.append(1, b"payload-%d" % i)
        wal.close()
        segment = wal.segment_paths()[-1]
        data = bytearray(segment.read_bytes())
        # Flip a bit inside the second record's payload.
        first_len = 17 + len(b"payload-0")
        data[first_len + 17 + 2] ^= 0xFF
        segment.write_bytes(bytes(data))
        wal = WriteAheadLog(tmp_path / "wal")
        assert [r.payload for r in wal.read_records()] == [b"payload-0"]
        assert wal.last_lsn == 1
        wal.close()

    def test_corruption_in_middle_segment_drops_later_segments(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal", segment_max_bytes=48)
        for i in range(8):
            wal.append(1, b"x" * 40)
        segments = wal.segment_paths()
        assert len(segments) >= 3
        wal.close()
        data = bytearray(segments[1].read_bytes())
        data[-1] ^= 0xFF
        segments[1].write_bytes(bytes(data))
        wal = WriteAheadLog(tmp_path / "wal")
        records = list(wal.read_records())
        # Only the prefix before the corruption survives; later segments
        # were unlinked because the LSN chain is broken.
        assert records == sorted(records, key=lambda r: r.lsn)
        assert wal.last_lsn == records[-1].lsn < 8
        assert len(wal.segment_paths()) <= 2
        wal.close()

    def test_truncate_through_drops_covered_segments(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal", segment_max_bytes=48)
        for i in range(9):
            wal.append(1, b"y" * 40)
        before = len(wal.segment_paths())
        wal.truncate_through(6)
        after = len(wal.segment_paths())
        assert after < before
        assert [r.lsn for r in wal.read_records(after_lsn=6)] == [7, 8, 9]
        wal.close()

    def test_truncate_everything_then_reopen_continues_numbering(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        for i in range(4):
            wal.append(1, b"z")
        wal.truncate_through(4)
        assert list(wal.read_records()) == []
        assert wal.append(1, b"after") == 5
        wal.close()
        wal = WriteAheadLog(tmp_path / "wal")
        assert wal.last_lsn == 5
        wal.close()

    def test_truncate_everything_close_reopen(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        for i in range(4):
            wal.append(1, b"z")
        wal.truncate_through(4)
        wal.close()
        wal = WriteAheadLog(tmp_path / "wal")
        assert wal.last_lsn == 4
        assert wal.append(1, b"next") == 5
        wal.close()

    def test_crash_mid_write_leaves_recoverable_torn_record(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        wal.append(1, b"committed")

        def crash(point):
            if point == "wal.append.mid_write":
                raise SimulatedCrash(point)

        set_crash_hook(crash)
        with pytest.raises(SimulatedCrash):
            wal.append(1, b"torn-away")
        set_crash_hook(None)
        wal.close()
        reopened = WriteAheadLog(tmp_path / "wal")
        assert reopened.last_scan.torn_bytes > 0
        assert [r.payload for r in reopened.read_records()] == [b"committed"]
        reopened.close()


# --------------------------------------------------------------------------- #
# Codecs


def _params_slots(params: PairwiseHistParams, merged_cell_budget: int) -> bytes:
    """The eight-slot params layout, spelled out (``-1`` is "unset")."""
    unset = -1
    return struct.pack(
        "<qqddqqqq",
        unset if params.sample_size is None else params.sample_size,
        params.min_points,
        params.alpha,
        params.min_spacing,
        unset if params.max_initial_bins is None else params.max_initial_bins,
        params.max_refine_depth,
        params.seed,
        merged_cell_budget,
    )


class TestCodecs:
    def test_table_round_trip_exact(self):
        table = make_simple_table(rows=257, seed=3, name="round")
        payload = codec.encode_table(table)
        decoded, _ = codec.decode_table(memoryview(payload))
        assert decoded.name == table.name
        assert decoded.schema.names == table.schema.names
        for name in table.column_names:
            original = table.column(name)
            restored = decoded.column(name)
            if table.schema[name].is_categorical:
                assert list(original) == list(restored)
            else:
                # Bit-exact floats, NaNs aligned.
                assert np.array_equal(original, restored, equal_nan=True)

    def test_empty_and_null_categoricals(self):
        from repro.data.table import Table

        table = Table.from_dict(
            {"c": ["", None, "x", ""], "v": [1.0, float("nan"), 3.0, 4.0]},
            name="edge",
        )
        decoded, _ = codec.decode_table(memoryview(codec.encode_table(table)))
        assert list(decoded.column("c")) == ["", None, "x", ""]
        assert np.array_equal(decoded.column("v"), table.column("v"), equal_nan=True)

    def test_preprocessor_round_trip(self):
        table = make_simple_table(rows=500, seed=5)
        pre = Preprocessor.fit(table)
        decoded, _ = codec.decode_preprocessor(
            memoryview(codec.encode_preprocessor(pre))
        )
        assert decoded.column_names == pre.column_names
        for name in pre.column_names:
            a, b = pre[name], decoded[name]
            assert (a.is_categorical, a.scale, a.offset, a.categories) == (
                b.is_categorical,
                b.scale,
                b.offset,
                b.categories,
            )
            assert (a.missing_code, a.max_code) == (b.missing_code, b.max_code)

    def test_params_round_trip_all_fields(self):
        params = PairwiseHistParams(
            sample_size=None,
            min_points=77,
            alpha=0.025,
            min_spacing=0.5,
            max_initial_bins=99,
            max_refine_depth=7,
            seed=13,
        )
        decoded, _ = deserialize_params(serialize_params(params))
        assert decoded == params

    def test_retired_slots_of_older_entries_are_skipped(self):
        """A catalog entry and a WAL register payload written with a GreedyGD
        block of (search rows 123, max deviation bits 7, no early stop, cold
        appends) and a merged-cell budget of 4096 decode to the same table,
        schema, preprocessor and other seven params."""
        from repro.storage.snapshot import _decode_table_meta

        table = make_simple_table(rows=300, seed=4, name="old")
        pre = Preprocessor.fit(table)
        params = PairwiseHistParams(
            sample_size=None, min_points=77, alpha=0.025, min_spacing=0.5,
            max_initial_bins=99, max_refine_depth=7, seed=13,
        )
        old_params = _params_slots(params, merged_cell_budget=4096)
        entry = b"".join([
            codec.pack_string("old"),
            struct.pack("<qq", 250, 3),
            old_params,
            struct.pack("<qqBB", 123, 7, 0, 0),
            codec.encode_schema(table.schema),
            codec.encode_preprocessor(pre),
        ])
        name, partition_size, builds, decoded, schema, preprocessor = _decode_table_meta(entry)
        assert (name, partition_size, builds, decoded) == ("old", 250, 3, params)
        assert codec.encode_schema(schema) == codec.encode_schema(table.schema)
        assert codec.encode_preprocessor(preprocessor) == codec.encode_preprocessor(pre)

        register = struct.pack("<q", 250) + old_params + codec.encode_table(table)
        rows, decoded, partition_size = codec.decode_register_payload(register)
        assert (decoded, partition_size) == (params, 250)
        assert codec.encode_table(rows) == codec.encode_table(table)

    def test_retired_slots_are_written_as_before(self):
        """Fresh entries carry the GreedyGD block (20000, 62, 1, 1) and the
        sentinel budget that every entry had when both were settable."""
        from repro.storage.snapshot import _encode_table_meta

        state = _make_state(checkpoint_lsn=1).tables[0]
        assert _encode_table_meta(state) == b"".join([
            codec.pack_string("snap"),
            struct.pack("<qq", state.store.partition_size, state.synopsis_builds),
            _params_slots(state.params, merged_cell_budget=-1),
            struct.pack("<qqBB", 20_000, 62, 1, 1),
            codec.encode_schema(state.store.schema),
            codec.encode_preprocessor(state.store.preprocessor),
        ])
        table = make_simple_table(rows=50, seed=4, name="new")
        assert codec.encode_register_payload(table, state.params, 250) == (
            struct.pack("<q", 250)
            + _params_slots(state.params, merged_cell_budget=-1)
            + codec.encode_table(table)
        )

    def test_catalog_and_manifest_framing(self):
        entries = [b"alpha", b"", b"gamma" * 100]
        assert deserialize_catalog(serialize_catalog(entries)) == entries
        files = [("CATALOG", 12, zlib.crc32(b"x")), ("t-0.partitions", 0, 0)]
        lsn, decoded = deserialize_manifest(serialize_manifest(42, files))
        assert lsn == 42 and decoded == files
        with pytest.raises(ValueError):
            deserialize_catalog(b"XXXX....")
        with pytest.raises(ValueError):
            deserialize_manifest(b"YYYY....")


# --------------------------------------------------------------------------- #
# Partition dump / load


class TestPartitionDumpLoad:
    def test_round_trip_reconstructs_rows(self):
        table = make_simple_table(rows=900, seed=9, name="dump")
        store = PartitionedStore.compress(table, partition_size=300)
        loaded = [load_partition(dump_partition(p)) for p in store.partitions]
        restored = replace(store, partitions=loaded).reconstruct_rows()
        for name in table.column_names:
            a, b = table.column(name), restored.column(name)
            if table.schema[name].is_categorical:
                assert list(a) == list(b)
            else:
                assert np.array_equal(a, b, equal_nan=True)
        for partition, copy in zip(store.partitions, loaded):
            assert copy.num_rows == partition.num_rows
            assert copy.compressed_bytes() == partition.compressed_bytes()

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            load_partition(b"NOPE")


# --------------------------------------------------------------------------- #
# Snapshots


def _make_state(checkpoint_lsn: int, seed: int = 0) -> SnapshotState:
    from repro.core.builder import build_partition_synopses, snapshot_partition_input

    table = make_simple_table(rows=600, seed=seed, name="snap")
    store = PartitionedStore.compress(table, partition_size=200)
    params = PairwiseHistParams.with_defaults(sample_size=600)
    synopses = build_partition_synopses(
        [snapshot_partition_input(store, p) for p in store.partitions],
        params,
        columns=store.column_order,
    )
    return SnapshotState(
        checkpoint_lsn=checkpoint_lsn,
        tables=[
            TableSnapshotState(
                store=store,
                params=params,
                partition_synopses=synopses,
                synopsis_builds=len(synopses),
            )
        ],
    )


class TestSnapshots:
    def test_write_and_load(self, tmp_path):
        state = _make_state(checkpoint_lsn=7)
        path = write_snapshot(tmp_path, state)
        assert path.name == "snap-00000000000000000007"
        loaded = load_latest_snapshot(tmp_path)
        assert loaded is not None
        assert loaded.checkpoint_lsn == 7
        (table,) = loaded.tables
        assert table.store.table_name == "snap"
        assert len(table.store.partitions) == 3
        assert len(table.partition_synopses) == 3
        assert table.store.num_rows == 600

    def test_latest_valid_snapshot_wins(self, tmp_path):
        write_snapshot(tmp_path, _make_state(checkpoint_lsn=3), keep=5)
        write_snapshot(tmp_path, _make_state(checkpoint_lsn=9, seed=1), keep=5)
        assert load_latest_snapshot(tmp_path).checkpoint_lsn == 9

    def test_corrupted_snapshot_falls_back_to_previous(self, tmp_path):
        write_snapshot(tmp_path, _make_state(checkpoint_lsn=3), keep=5)
        newest = write_snapshot(tmp_path, _make_state(checkpoint_lsn=9, seed=1), keep=5)
        victim = sorted(newest.glob("part-*.blob"))[0]
        data = bytearray(victim.read_bytes())
        data[len(data) // 2] ^= 0xFF
        victim.write_bytes(bytes(data))
        assert load_latest_snapshot(tmp_path).checkpoint_lsn == 3

    def test_snapshot_without_parts_index_falls_back_to_previous(self, tmp_path):
        """The retired v1 layout had no ``.parts`` index; a checksum-clean
        snapshot without one is skipped like any other unreadable one."""

        def drop_parts_index(snapshot: Path) -> None:
            lsn, files = deserialize_manifest((snapshot / "MANIFEST").read_bytes())
            kept = [entry for entry in files if entry[0] != "table-00000.parts"]
            assert len(kept) == len(files) - 1
            (snapshot / "MANIFEST").write_bytes(serialize_manifest(lsn, kept))

        older = write_snapshot(tmp_path, _make_state(checkpoint_lsn=3), keep=5)
        newest = write_snapshot(tmp_path, _make_state(checkpoint_lsn=9, seed=1), keep=5)
        drop_parts_index(newest)
        assert load_latest_snapshot(tmp_path).checkpoint_lsn == 3
        drop_parts_index(older)
        assert load_latest_snapshot(tmp_path) is None  # recovery replays the WAL

    def test_crash_before_publish_leaves_no_snapshot(self, tmp_path):
        def crash(point):
            if point == "snapshot.before_publish":
                raise SimulatedCrash(point)

        set_crash_hook(crash)
        with pytest.raises(SimulatedCrash):
            write_snapshot(tmp_path, _make_state(checkpoint_lsn=5))
        set_crash_hook(None)
        assert load_latest_snapshot(tmp_path) is None
        # The orphaned temp directory is cleaned up by the next checkpoint.
        write_snapshot(tmp_path, _make_state(checkpoint_lsn=6))
        assert load_latest_snapshot(tmp_path).checkpoint_lsn == 6
        assert not list(tmp_path.glob("tmp-*"))

    def test_crash_mid_write_leaves_no_snapshot(self, tmp_path):
        def crash(point):
            if point == "snapshot.mid_write":
                raise SimulatedCrash(point)

        set_crash_hook(crash)
        with pytest.raises(SimulatedCrash):
            write_snapshot(tmp_path, _make_state(checkpoint_lsn=5))
        set_crash_hook(None)
        assert load_latest_snapshot(tmp_path) is None

    def test_old_snapshots_are_garbage_collected(self, tmp_path):
        for lsn in (1, 2, 3, 4):
            write_snapshot(tmp_path, _make_state(checkpoint_lsn=lsn), keep=2)
        names = sorted(p.name for p in tmp_path.iterdir() if p.name.startswith("snap-"))
        assert len(names) == 2
        assert names[-1].endswith("4")

    def test_same_lsn_redundant_temp_is_discarded(self, tmp_path):
        """A second snapshot at an already-published LSN hits the
        redundant-temp branch: the fresh copy is dropped, the published
        directory stays, and no temp dirs leak."""
        state = _make_state(checkpoint_lsn=7)
        first = write_snapshot(tmp_path, state)
        second = write_snapshot(tmp_path, state)
        assert first == second
        assert not list(tmp_path.glob("tmp-*"))
        loaded = load_latest_snapshot(tmp_path)
        assert loaded.checkpoint_lsn == 7
        assert loaded.tables[0].store.num_rows == 600

    def test_fsync_covers_current_pointer_and_skips_linked_blobs(
        self, tmp_path, monkeypatch
    ):
        import repro.storage.snapshot as snapshot_mod

        synced: list[str] = []
        monkeypatch.setattr(
            snapshot_mod, "_fsync_path", lambda p: synced.append(Path(p).name)
        )
        store, params = _make_store()
        write_snapshot(tmp_path, _state_from_store(store, params, lsn=1), fsync=True)
        # The CURRENT tmp file is synced before its rename and the
        # snapshots directory after it (satellite: torn-pointer footgun).
        assert "CURRENT.tmp" in synced
        assert synced.count(tmp_path.name) >= 2
        synced.clear()
        store.append(make_simple_table(rows=200, seed=9, name="snap"))
        write_snapshot(tmp_path, _state_from_store(store, params, lsn=2), fsync=True)
        # Hard-linked sealed blobs are not re-fsynced: only newly written
        # files (tail blob, parts index, synopses, catalog, manifest,
        # CURRENT.tmp) and the directories appear.
        linked = [name for name in synced if name.startswith("part-")]
        assert len(linked) == 1  # just the new tail blob
        # And with fsync off, nothing at all is synced.
        synced.clear()
        store.append(make_simple_table(rows=200, seed=10, name="snap"))
        write_snapshot(tmp_path, _state_from_store(store, params, lsn=3), fsync=False)
        assert synced == []


# --------------------------------------------------------------------------- #
# Incremental (v2) snapshots: hard-linked sealed blobs


def _make_store(rows: int = 600, seed: int = 0):
    table = make_simple_table(rows=rows, seed=seed, name="snap")
    store = PartitionedStore.compress(table, partition_size=200)
    params = PairwiseHistParams.with_defaults(sample_size=600)
    return store, params


def _state_from_store(store, params, lsn: int) -> SnapshotState:
    from repro.core.builder import build_partition_synopses, snapshot_partition_input

    synopses = build_partition_synopses(
        [snapshot_partition_input(store, p) for p in store.partitions],
        params,
        columns=store.column_order,
    )
    return SnapshotState(
        checkpoint_lsn=lsn,
        tables=[
            TableSnapshotState(
                store=replace(store),
                params=params,
                partition_synopses=synopses,
                synopsis_builds=len(synopses),
            )
        ],
    )


def _blob_names(path) -> set[str]:
    return {p.name for p in path.glob("part-*.blob")}


class TestIncrementalSnapshots:
    def test_sealed_blobs_are_hard_linked_tail_rewritten(self, tmp_path):
        store, params = _make_store()  # 3 sealed partitions of 200
        snap1 = write_snapshot(tmp_path, _state_from_store(store, params, 1), keep=5)
        store.append(make_simple_table(rows=200, seed=1, name="snap"))
        snap2 = write_snapshot(tmp_path, _state_from_store(store, params, 2), keep=5)
        shared = _blob_names(snap1) & _blob_names(snap2)
        assert len(shared) == 3  # every sealed partition reused
        assert len(_blob_names(snap2) - _blob_names(snap1)) == 1  # the new tail
        for name in shared:
            a, b = (snap1 / name).stat(), (snap2 / name).stat()
            assert a.st_ino == b.st_ino and b.st_nlink >= 2
        loaded = load_latest_snapshot(tmp_path)
        assert loaded.checkpoint_lsn == 2
        assert loaded.tables[0].store.num_rows == 800

    def test_unsealed_tail_blob_is_relinked_when_unchanged(self, tmp_path):
        """A half-full tail that no ingest touched between checkpoints has
        identical content, so even it is reused (content addressing)."""
        store, params = _make_store(rows=500)  # 200/200/100: unsealed tail
        snap1 = write_snapshot(tmp_path, _state_from_store(store, params, 1), keep=5)
        snap2 = write_snapshot(tmp_path, _state_from_store(store, params, 2), keep=5)
        assert _blob_names(snap1) == _blob_names(snap2)
        for name in _blob_names(snap2):
            assert (snap2 / name).stat().st_nlink >= 2

    def test_topped_up_tail_is_rewritten_not_linked(self, tmp_path):
        store, params = _make_store(rows=500)  # tail holds 100 of 200
        snap1 = write_snapshot(tmp_path, _state_from_store(store, params, 1), keep=5)
        store.append(make_simple_table(rows=50, seed=2, name="snap"))
        snap2 = write_snapshot(tmp_path, _state_from_store(store, params, 2), keep=5)
        assert len(_blob_names(snap1) & _blob_names(snap2)) == 2  # sealed pair
        assert len(_blob_names(snap2) - _blob_names(snap1)) == 1  # new tail content
        loaded = load_latest_snapshot(tmp_path)
        assert loaded.tables[0].store.num_rows == 550

    def test_loaded_snapshot_links_on_next_checkpoint(self, tmp_path):
        """Recovery stamps each loaded partition with its blob identity, so
        the first checkpoint after a warm restart links instead of
        rewriting — the O(tail) property survives restarts."""
        store, params = _make_store()
        snap1 = write_snapshot(tmp_path, _state_from_store(store, params, 1), keep=5)
        loaded = load_latest_snapshot(tmp_path)
        restored = loaded.tables[0].store
        snap2 = write_snapshot(
            tmp_path, _state_from_store(restored, params, 2), keep=5
        )
        assert _blob_names(snap2) == _blob_names(snap1)
        for name in _blob_names(snap2):
            assert (snap2 / name).stat().st_nlink >= 2

    def test_gc_keeps_linked_blobs_alive(self, tmp_path):
        """Deleting the oldest snapshots of an incremental chain must not
        invalidate newer ones: hard links survive unlinking their source
        directory (satellite: GC-vs-links safety)."""
        from repro.storage.snapshot import _snapshot_paths, _validate

        store, params = _make_store()
        write_snapshot(tmp_path, _state_from_store(store, params, 1), keep=10)
        for lsn, seed in ((2, 21), (3, 22)):
            store.append(make_simple_table(rows=200, seed=seed, name="snap"))
            write_snapshot(tmp_path, _state_from_store(store, params, lsn), keep=10)
        assert len(_snapshot_paths(tmp_path)) == 3
        newest = _snapshot_paths(tmp_path)[0]
        before = {name: (newest / name).read_bytes() for name in _blob_names(newest)}
        before_loaded = load_latest_snapshot(tmp_path)
        # Drop the two oldest snapshots (the link sources) via keep.
        store.append(make_simple_table(rows=200, seed=23, name="snap"))
        write_snapshot(tmp_path, _state_from_store(store, params, 4), keep=2)
        remaining = _snapshot_paths(tmp_path)
        assert [p.name for p in remaining] == [
            "snap-00000000000000000004",
            "snap-00000000000000000003",
        ]
        # Every remaining snapshot still validates checksum-clean...
        for path in remaining:
            assert _validate(path) is not None
        # ...and the chain's blobs are bit-identical to before the GC.
        after = {name: (newest / name).read_bytes() for name in _blob_names(newest)}
        assert after == before
        loaded = load_latest_snapshot(tmp_path)
        assert loaded.checkpoint_lsn == 4
        assert loaded.tables[0].store.num_rows == 1200
        assert before_loaded.tables[0].store.num_rows == 1000

    def test_crash_before_manifest_falls_back_to_previous(self, tmp_path):
        """A crash after the blobs are linked but before the manifest is
        written leaves an unpublished temp dir; recovery falls back to the
        previous snapshot and the next checkpoint cleans up."""
        store, params = _make_store()
        write_snapshot(tmp_path, _state_from_store(store, params, 1), keep=5)
        store.append(make_simple_table(rows=200, seed=5, name="snap"))

        def crash(point):
            if point == "snapshot.before_manifest":
                raise SimulatedCrash(point)

        set_crash_hook(crash)
        with pytest.raises(SimulatedCrash):
            write_snapshot(tmp_path, _state_from_store(store, params, 2), keep=5)
        set_crash_hook(None)
        assert load_latest_snapshot(tmp_path).checkpoint_lsn == 1
        write_snapshot(tmp_path, _state_from_store(store, params, 2), keep=5)
        assert load_latest_snapshot(tmp_path).checkpoint_lsn == 2
        assert not list(tmp_path.glob("tmp-*"))


# --------------------------------------------------------------------------- #
# Checkpoint-driven WAL truncation


def test_held_wal_truncation_is_retried_by_the_next_checkpoint(tmp_path):
    """A follower floor holds covered segments back at checkpoint time; once
    it rises, the next checkpoint drops them even though no write happened
    in between (it takes the ``skipped`` path: nothing new to snapshot)."""
    db = DurableDatabase.open(
        tmp_path,
        default_params=PairwiseHistParams.with_defaults(sample_size=None, seed=1),
        partition_size=200,
    )
    db.retention_floor = lambda: 0  # a follower that has acked nothing
    db.register(make_simple_table(rows=300, seed=1, name="held"))
    db.ingest("held", make_simple_table(rows=100, seed=2, name="held"))
    covered = db.wal.segment_paths()
    assert not db.checkpoint().skipped
    assert db.wal.segment_paths() == covered  # held back for the follower
    assert [r.lsn for r in db.wal.read_records()] == [1, 2]

    db.retention_floor = lambda: 2  # the follower caught up
    assert db.checkpoint().skipped
    assert not any(path.exists() for path in covered)
    assert list(db.wal.read_records()) == []
    db.close()
