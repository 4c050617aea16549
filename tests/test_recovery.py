"""End-to-end crash-recovery tests for the durable storage subsystem.

The invariant under test everywhere: a database recovered from disk after
a crash answers every query *identically* to a reference database that
executed the same committed operations without ever crashing.  Crashes
are injected at the nastiest points — mid-WAL-append (torn record),
mid-snapshot (partial directory), post-snapshot/pre-truncation (replay
idempotency) — plus a real ``kill -9`` of a ``QueryServer`` subprocess.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from conftest import make_simple_table, tunnel

from repro.core.params import PairwiseHistParams
from repro.core.serialization import LazyPartitionSynopses
from repro.service.database import Database, QueryService
from repro.service.wire import PipelinedClient
from repro.storage import (
    BackgroundCheckpointer,
    DurableDatabase,
    SimulatedCrash,
    set_crash_hook,
    write_snapshot,
)

QUERIES = [
    "SELECT AVG(x) FROM sensors WHERE y > 45",
    "SELECT COUNT(*) FROM sensors WHERE category = 'alpha'",
    "SELECT SUM(z) FROM sensors WHERE x < 50",
    "SELECT AVG(with_nulls) FROM sensors WHERE z > 5",
    "SELECT COUNT(*) FROM sensors WHERE x > 20 AND y < 60",
]

PARAMS = PairwiseHistParams.with_defaults(sample_size=5_000)
PARTITION_SIZE = 400


@pytest.fixture(autouse=True)
def _clear_crash_hook():
    yield
    set_crash_hook(None)


def batch(seed: int, rows: int = 300):
    return make_simple_table(rows=rows, seed=seed, name="sensors")


def answers(db) -> list[tuple]:
    service = QueryService(database=db)
    out = []
    for query in QUERIES:
        result = service.execute_scalar(query)
        out.append((result.value, result.lower, result.upper))
    return out


def reference_db(ops) -> Database:
    """Replay committed operations on a never-crashed in-memory database."""
    db = Database(default_params=PARAMS, partition_size=PARTITION_SIZE)
    for op, *args in ops:
        getattr(db, op)(*args)
    return db


def durable(tmp_path, **kwargs) -> DurableDatabase:
    kwargs.setdefault("default_params", PARAMS)
    kwargs.setdefault("partition_size", PARTITION_SIZE)
    return DurableDatabase.open(tmp_path / "data", **kwargs)


class TestRecovery:
    def test_pure_wal_replay_no_snapshot(self, tmp_path):
        db = durable(tmp_path)
        db.register(batch(0, rows=900))
        db.ingest("sensors", batch(1))
        expected = answers(db)
        db.close()

        recovered = durable(tmp_path)
        assert recovered.recovery_info.snapshot_lsn == 0
        assert recovered.recovery_info.replayed_records == 2
        assert answers(recovered) == expected
        ref = reference_db(
            [("register", batch(0, rows=900)), ("ingest", "sensors", batch(1))]
        )
        assert answers(recovered) == answers(ref)
        recovered.close()

    def test_snapshot_plus_tail_replay(self, tmp_path):
        db = durable(tmp_path)
        db.register(batch(0, rows=900))
        db.ingest("sensors", batch(1))
        db.checkpoint()
        db.ingest("sensors", batch(2))
        db.ingest("sensors", batch(3))
        expected = answers(db)
        db.close()

        recovered = durable(tmp_path)
        info = recovered.recovery_info
        assert info.snapshot_lsn == 2
        assert info.replayed_records == 2
        # Only the tail partitions touched by replay were rebuilt.
        assert 0 < info.rebuilt_partitions < recovered.table("sensors").num_partitions
        assert answers(recovered) == expected
        recovered.close()

    def test_clean_restart_stays_lazy_and_wal_replay_hydrates(self, tmp_path):
        """Queries run off the persisted merged synopsis, so a query-only
        restart never decodes the per-partition synopses; replaying a WAL
        record rebuilds the tail and must.  Cold rebuild, clean restart
        and crash restart answer identically."""

        def lazy(db) -> bool:
            synopses = db.table("sensors").partition_synopses
            return isinstance(synopses, LazyPartitionSynopses) and not synopses.hydrated

        # "crash" checkpoints one batch early: the last stays WAL-only.
        for sub, checkpoint_after in (("clean", 2), ("crash", 1)):
            db = durable(tmp_path / sub)
            db.register(batch(0, rows=900))
            for seed in (1, 2):
                db.ingest("sensors", batch(seed))
                if seed == checkpoint_after:
                    db.checkpoint()
            db.close()
        cold = reference_db(
            [
                ("register", batch(0, rows=900)),
                ("ingest", "sensors", batch(1)),
                ("ingest", "sensors", batch(2)),
            ]
        )

        clean = durable(tmp_path / "clean")
        crash = durable(tmp_path / "crash")
        assert clean.recovery_info.replayed_records == 0
        assert crash.recovery_info.replayed_records == 1
        assert crash.recovery_info.rebuilt_partitions >= 1
        assert answers(clean) == answers(crash) == answers(cold)
        assert lazy(clean) and not lazy(crash)
        clean.close()
        crash.close()

    def test_recovered_matches_uninterrupted_reference_exactly(self, tmp_path):
        ops = [
            ("register", batch(0, rows=900)),
            ("ingest", "sensors", batch(1)),
            ("ingest", "sensors", batch(2, rows=700)),
            ("ingest", "sensors", batch(3, rows=150)),
        ]
        db = durable(tmp_path)
        db.register(batch(0, rows=900))
        db.ingest("sensors", batch(1))
        db.checkpoint()
        db.ingest("sensors", batch(2, rows=700))
        db.ingest("sensors", batch(3, rows=150))
        db.close()

        recovered = durable(tmp_path)
        assert answers(recovered) == answers(reference_db(ops))
        recovered.close()

    def test_multi_table_with_drop_and_reregister(self, tmp_path):
        other = make_simple_table(rows=500, seed=40, name="other")
        db = durable(tmp_path)
        db.register(batch(0, rows=900))
        db.register(other)
        db.checkpoint()
        db.ingest("sensors", batch(1))
        db.drop("other")
        db.register(make_simple_table(rows=350, seed=41, name="other"))
        db.ingest("other", make_simple_table(rows=120, seed=42, name="other"))
        expected = answers(db)
        expected_other = (
            QueryService(database=db).execute_scalar("SELECT AVG(x) FROM other").value
        )
        db.close()

        recovered = durable(tmp_path)
        assert sorted(recovered.table_names) == ["other", "sensors"]
        assert answers(recovered) == expected
        got = (
            QueryService(database=recovered)
            .execute_scalar("SELECT AVG(x) FROM other")
            .value
        )
        assert got == expected_other
        assert recovered.table("other").num_rows == 470
        recovered.close()

    def test_crash_mid_ingest_loses_only_the_unacknowledged_batch(self, tmp_path):
        db = durable(tmp_path)
        db.register(batch(0, rows=900))
        db.ingest("sensors", batch(1))
        expected = answers(db)

        def crash(point):
            if point == "wal.append.mid_write":
                raise SimulatedCrash(point)

        set_crash_hook(crash)
        with pytest.raises(SimulatedCrash):
            db.ingest("sensors", batch(2))
        set_crash_hook(None)
        db.wal.close()  # abandon the crashed process's state

        recovered = durable(tmp_path)
        assert recovered.recovery_info.torn_wal_bytes > 0
        assert recovered.table("sensors").num_rows == 1200
        assert answers(recovered) == expected
        # The recovered database ingests normally afterwards.
        recovered.ingest("sensors", batch(2))
        ref = reference_db(
            [
                ("register", batch(0, rows=900)),
                ("ingest", "sensors", batch(1)),
                ("ingest", "sensors", batch(2)),
            ]
        )
        assert answers(recovered) == answers(ref)
        recovered.close()

    def test_crash_mid_checkpoint_falls_back_to_wal(self, tmp_path):
        db = durable(tmp_path)
        db.register(batch(0, rows=900))
        db.ingest("sensors", batch(1))
        expected = answers(db)

        for point in ("snapshot.mid_write", "snapshot.before_publish"):
            set_crash_hook(
                lambda p, armed=point: (_ for _ in ()).throw(SimulatedCrash(p))
                if p == armed
                else None
            )
            with pytest.raises(SimulatedCrash):
                db.checkpoint()
            set_crash_hook(None)
        db.wal.close()

        recovered = durable(tmp_path)
        assert recovered.recovery_info.snapshot_lsn == 0  # no snapshot survived
        assert answers(recovered) == expected
        recovered.close()

    def test_crash_mid_incremental_checkpoint_falls_back_to_previous(self, tmp_path):
        """Crash an *incremental* checkpoint at every phase boundary — after
        the blobs, after the parts index + links, after the manifest — and
        recovery must land on the previous snapshot plus WAL tail, exactly
        matching a never-crashed reference.  The next checkpoint must then
        succeed and clean up the orphaned temp directory."""
        ops = [("register", batch(0, rows=900)), ("ingest", "sensors", batch(1))]
        db = durable(tmp_path)
        db.register(batch(0, rows=900))
        db.ingest("sensors", batch(1))
        db.checkpoint()  # snapshot at lsn 2: the link source
        for lsn, point in (
            (3, "snapshot.mid_write"),
            (4, "snapshot.before_manifest"),
            (5, "snapshot.before_publish"),
        ):
            db.ingest("sensors", batch(lsn))
            ops.append(("ingest", "sensors", batch(lsn)))
            expected = answers(db)
            set_crash_hook(
                lambda p, armed=point: (_ for _ in ()).throw(SimulatedCrash(p))
                if p == armed
                else None
            )
            with pytest.raises(SimulatedCrash):
                db.checkpoint()
            set_crash_hook(None)
            db.wal.close()

            recovered = durable(tmp_path)
            assert recovered.recovery_info.snapshot_lsn == 2
            assert recovered.recovery_info.replayed_records == lsn - 2
            assert answers(recovered) == expected
            assert answers(recovered) == answers(reference_db(ops))
            recovered.close()
            db = durable(tmp_path)
        # A checkpoint after all that succeeds and leaves no temp litter.
        result = db.checkpoint()
        assert not result.skipped
        snapshots = tmp_path / "data" / "snapshots"
        assert not list(snapshots.glob("tmp-*"))
        expected = answers(db)
        db.close()
        recovered = durable(tmp_path)
        assert recovered.recovery_info.snapshot_lsn == 5
        assert recovered.recovery_info.replayed_records == 0
        assert answers(recovered) == expected
        recovered.close()

    def test_commit_after_drop_raises_without_phantom_wal_record(self, tmp_path):
        """Committing a staged ingest against a table dropped in between
        must fail *without* logging: a phantom WAL_INGEST after the
        WAL_DROP would crash recovery outright (replay commits into a
        table that no longer exists)."""
        db = durable(tmp_path)
        db.register(batch(0, rows=900))
        staged = db.stage_ingest("sensors", batch(1))
        db.drop("sensors")
        with pytest.raises(KeyError):
            db.commit_ingest(staged)
        assert db.wal.last_lsn == 2  # register + drop, no phantom ingest
        db.close()

        recovered = durable(tmp_path)  # replay must not crash
        assert recovered.recovery_info.replayed_records == 2
        assert recovered.table_names == []
        recovered.close()

    def test_failed_inmemory_commit_rolls_back_wal(self, tmp_path, monkeypatch):
        """If the in-memory publish fails *after* the WAL append, the
        record is rolled back so recovery replays exactly the mutations
        the live run actually applied."""
        db = durable(tmp_path)
        db.register(batch(0, rows=900))
        expected = answers(db)
        staged = db.stage_ingest("sensors", batch(1))

        def boom(self, staged):
            raise RuntimeError("publish failed")

        monkeypatch.setattr(Database, "commit_ingest", boom)
        with pytest.raises(RuntimeError, match="publish failed"):
            db.commit_ingest(staged)
        monkeypatch.undo()
        assert db.wal.last_lsn == 1  # the ingest record was scrubbed
        assert answers(db) == expected  # unpublished synopses stay invisible
        db.close()

        # Recovery sees exactly the committed history: the register, not
        # the failed ingest (the scrubbed record must not be replayed).
        recovered = durable(tmp_path)
        assert recovered.recovery_info.replayed_records == 1
        assert answers(recovered) == expected
        # The recovered database ingests normally afterwards.
        recovered.ingest("sensors", batch(2))
        assert answers(recovered) == answers(
            reference_db(
                [("register", batch(0, rows=900)), ("ingest", "sensors", batch(2))]
            )
        )
        recovered.close()

    def test_crash_between_snapshot_and_truncation_is_idempotent(self, tmp_path):
        db = durable(tmp_path)
        db.register(batch(0, rows=900))
        db.ingest("sensors", batch(1))
        expected = answers(db)

        def crash(point):
            if point == "checkpoint.before_truncate":
                raise SimulatedCrash(point)

        set_crash_hook(crash)
        with pytest.raises(SimulatedCrash):
            db.checkpoint()
        set_crash_hook(None)
        db.wal.close()

        # The snapshot was published but the WAL still holds every record:
        # replay must skip records at or below the snapshot's LSN, and
        # repeated recoveries must keep converging to the same state.
        for _ in range(2):
            recovered = durable(tmp_path)
            assert recovered.recovery_info.snapshot_lsn == 2
            assert recovered.recovery_info.replayed_records == 0
            assert answers(recovered) == expected
            recovered.close()

    def test_corrupted_wal_record_recovers_prefix(self, tmp_path):
        db = durable(tmp_path)
        db.register(batch(0, rows=900))
        db.ingest("sensors", batch(1))
        after_first = answers(db)
        db.ingest("sensors", batch(2))
        db.close()

        wal_dir = tmp_path / "data" / "wal"
        segment = sorted(wal_dir.glob("*.wal"))[-1]
        data = bytearray(segment.read_bytes())
        data[-10] ^= 0xFF  # corrupt the last record's payload
        segment.write_bytes(bytes(data))

        recovered = durable(tmp_path)
        assert recovered.table("sensors").num_rows == 1200
        assert answers(recovered) == after_first
        recovered.close()

    def test_segment_truncation_after_checkpoint(self, tmp_path):
        db = durable(tmp_path, segment_max_bytes=4096)
        db.register(batch(0, rows=900))
        for seed in (1, 2, 3):
            db.ingest("sensors", batch(seed))
        assert len(db.wal.segment_paths()) > 1
        db.checkpoint()
        assert len(db.wal.segment_paths()) == 1  # everything covered
        db.ingest("sensors", batch(4))
        expected = answers(db)
        db.close()

        recovered = durable(tmp_path, segment_max_bytes=4096)
        assert recovered.recovery_info.replayed_records == 1
        assert answers(recovered) == expected
        recovered.close()

    def test_wal_corruption_below_stale_snapshot_cannot_shadow_new_commits(
        self, tmp_path
    ):
        """Crash between snapshot publish and WAL truncation, then bit-rot
        in a record *below* the snapshot's LSN: the log scan ends early,
        so recovery must restart the log past the snapshot — otherwise new
        mutations would reuse covered LSNs, the next checkpoint would sort
        below the stale snapshot, and a later restart would silently
        revert the committed data."""
        db = durable(tmp_path)
        db.register(batch(0, rows=900))
        db.ingest("sensors", batch(1))
        db.ingest("sensors", batch(2))

        def crash(point):
            if point == "checkpoint.before_truncate":
                raise SimulatedCrash(point)

        set_crash_hook(crash)
        with pytest.raises(SimulatedCrash):
            db.checkpoint()  # snapshot at lsn 3 published, WAL untouched
        set_crash_hook(None)
        db.wal.close()

        # Corrupt WAL record 2 (below the snapshot's checkpoint LSN 3).
        wal_dir = tmp_path / "data" / "wal"
        segment = sorted(wal_dir.glob("*.wal"))[0]
        data = bytearray(segment.read_bytes())
        data[len(data) // 2] ^= 0xFF
        segment.write_bytes(bytes(data))

        recovered = durable(tmp_path)
        assert recovered.recovery_info.snapshot_lsn == 3
        assert recovered.table("sensors").num_rows == 1500
        recovered.ingest("sensors", batch(3))  # must log at lsn > 3
        assert recovered.wal.last_lsn == 4
        recovered.checkpoint()
        expected = answers(recovered)
        recovered.close()

        again = durable(tmp_path)
        assert again.table("sensors").num_rows == 1800
        assert answers(again) == expected
        again.close()

    def test_replay_keeps_synopsis_build_metric_in_step_with_live_run(
        self, tmp_path
    ):
        db = durable(tmp_path)
        db.register(batch(0, rows=900))
        db.ingest("sensors", batch(1))
        db.ingest("sensors", batch(2, rows=500))
        live_builds = db.table("sensors").synopsis_builds
        db.close()
        recovered = durable(tmp_path)
        assert recovered.table("sensors").synopsis_builds == live_builds
        recovered.close()

    def test_direct_construction_refuses_populated_directory(self, tmp_path):
        """``DurableDatabase(path)`` starts with an empty catalog; on a
        directory holding state it must refuse (its first checkpoint would
        otherwise persist the empty catalog and truncate the old WAL)."""
        db = durable(tmp_path)
        db.register(batch(0, rows=900))
        db.close()
        with pytest.raises(ValueError, match="DurableDatabase.open"):
            DurableDatabase(tmp_path / "data")
        # After a checkpoint (WAL truncated, snapshot only) it still refuses.
        db = durable(tmp_path)
        db.checkpoint()
        db.close()
        with pytest.raises(ValueError, match="DurableDatabase.open"):
            DurableDatabase(tmp_path / "data")
        # A fresh directory is fine.
        empty = DurableDatabase(tmp_path / "fresh")
        empty.close()

    def test_checkpoint_skips_when_nothing_changed(self, tmp_path):
        db = durable(tmp_path)
        db.register(batch(0, rows=900))
        first = db.checkpoint()
        assert not first.skipped
        second = db.checkpoint()
        assert second.skipped and second.path is None
        db.ingest("sensors", batch(1))
        third = db.checkpoint()
        assert not third.skipped
        db.close()


class _Signalling:
    """Checkpoint target that sets ``fired`` after each checkpoint of the
    wrapped target, and ``written`` after each one that was not skipped."""

    def __init__(self, target) -> None:
        self.target = target
        self.fired = threading.Event()
        self.written = threading.Event()

    def checkpoint(self):
        result = self.target.checkpoint()
        self.fired.set()
        if not result.skipped:
            self.written.set()
        return result


class TestCheckpointIntegration:
    def test_background_checkpointer_writes_and_skips(self, tmp_path):
        db = durable(tmp_path)
        db.register(batch(0, rows=900))
        service = QueryService(database=db)
        target = _Signalling(service)
        checkpointer = BackgroundCheckpointer(target, interval_seconds=0.05)
        with checkpointer:
            assert target.written.wait(5.0)
            target.written.clear()
            service.ingest("sensors", batch(1))
            checkpointer.trigger()
            assert target.written.wait(5.0)
        assert checkpointer.checkpoints_written >= 2
        assert checkpointer.last_error is None
        expected = answers(db)
        db.close()
        recovered = durable(tmp_path)
        assert recovered.recovery_info.snapshot_lsn >= 2
        assert answers(recovered) == expected
        recovered.close()

    def test_checkpoint_during_concurrent_traffic(self, tmp_path):
        db = durable(tmp_path)
        db.register(batch(0, rows=900))
        service = QueryService(database=db)
        stop = threading.Event()
        errors: list[Exception] = []

        def reader():
            while not stop.is_set():
                try:
                    service.execute_scalar(QUERIES[0])
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)
                    return

        def writer():
            seed = 100
            while not stop.is_set():
                try:
                    service.ingest("sensors", batch(seed, rows=60))
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)
                    return
                seed += 1

        threads = [threading.Thread(target=reader) for _ in range(2)]
        threads.append(threading.Thread(target=writer))
        for t in threads:
            t.start()
        try:
            results = [service.checkpoint() for _ in range(3)]
        finally:
            stop.set()
            for t in threads:
                t.join()
        assert not errors
        assert any(not r.skipped for r in results)
        expected = answers(db)
        db.close()
        recovered = durable(tmp_path)
        assert answers(recovered) == expected
        recovered.close()

    def test_checkpoint_during_a_staged_ingest_persists_only_committed_rows(
        self, tmp_path, monkeypatch
    ):
        """A checkpoint taken while an ingest is staged captures the
        committed value, not the staged rows; the stage then fails, so
        recovery from that snapshot must hold the registered rows only."""
        db = durable(tmp_path)
        db.register(batch(0, rows=900))
        expected = answers(db)
        inside, release = threading.Event(), threading.Event()

        def held(*args, **kwargs):
            inside.set()
            release.wait(30)
            raise RuntimeError("synthetic build failure")

        monkeypatch.setattr(db, "_build_synopses", held)
        failures: list[BaseException] = []

        def ingest() -> None:
            try:
                db.ingest("sensors", batch(1))
            except RuntimeError as exc:
                failures.append(exc)

        writer = threading.Thread(target=ingest)
        writer.start()
        try:
            assert inside.wait(30)
            assert not db.checkpoint().skipped
        finally:
            release.set()
            writer.join(30)
        assert len(failures) == 1
        db.close()
        recovered = durable(tmp_path)
        assert recovered.recovery_info.replayed_records == 0
        assert recovered.table("sensors").num_rows == 900
        assert answers(recovered) == expected
        recovered.close()

    def test_a_snapshot_without_a_merged_payload_opens_queryable(self, tmp_path):
        """Recovery merges the per-partition synopses of a snapshot table
        that has no ``.merged`` file, so no catalog value lacks one."""
        db = durable(tmp_path)
        db.register(batch(0, rows=900))
        expected = answers(db)
        state = db._capture()
        db.close()
        state.tables = [replace(table, merged=None) for table in state.tables]
        path = write_snapshot(tmp_path / "data" / "snapshots", state)
        assert not list(path.glob("*.merged"))
        recovered = durable(tmp_path)
        assert recovered.recovery_info.snapshot_tables == 1
        assert recovered.table("sensors").engine.synopsis is not None
        assert answers(recovered) == expected
        recovered.close()

    def test_restarted_checkpointer_waits_full_interval(self, tmp_path):
        """stop()/trigger() leave the wake event set; a restarted
        checkpointer must not consume that stale flag and fire
        immediately — it waits its full interval again."""
        db = durable(tmp_path)
        db.register(batch(0, rows=900))
        target = _Signalling(db)
        checkpointer = BackgroundCheckpointer(target, interval_seconds=30.0)
        checkpointer.start()
        checkpointer.trigger()
        assert target.fired.wait(5.0)
        checkpointer.stop(final_checkpoint=False)
        assert checkpointer.checkpoints_written == 1

        db.ingest("sensors", batch(1))  # give a restart something to write
        target.fired.clear()
        checkpointer.start()
        assert not target.fired.wait(0.3)
        total = checkpointer.checkpoints_written + checkpointer.checkpoints_skipped
        assert total == 1  # nothing fired: the stale wake flag was cleared
        checkpointer.stop(final_checkpoint=False)
        db.close()

    def test_stop_reports_final_checkpoint_result(self, tmp_path):
        db = durable(tmp_path)
        db.register(batch(0, rows=900))
        db.ingest("sensors", batch(1))
        checkpointer = BackgroundCheckpointer(db, interval_seconds=30.0).start()
        result = checkpointer.stop()
        assert result is not None and not result.skipped
        assert checkpointer.last_error is None
        # Stopping a checkpointer that is not running returns None.
        assert checkpointer.stop() is None
        db.close()

    def test_stop_surfaces_failed_final_checkpoint(self):
        class Boom:
            def checkpoint(self):
                raise RuntimeError("disk full")

        checkpointer = BackgroundCheckpointer(Boom(), interval_seconds=30.0).start()
        assert checkpointer.stop() is None
        assert isinstance(checkpointer.last_error, RuntimeError)

    def test_plain_service_reports_missing_durability(self):
        service = QueryService(default_params=PARAMS)
        with pytest.raises(ValueError, match="durable"):
            service.checkpoint()
        with pytest.raises(ValueError, match="durable"):
            service.persist()

    def test_persist_returns_last_lsn(self, tmp_path):
        db = durable(tmp_path)
        db.register(batch(0, rows=900))
        service = QueryService(database=db)
        assert service.persist() == 1
        db.ingest("sensors", batch(1))
        assert service.persist() == 2
        db.close()


# --------------------------------------------------------------------------- #
# Full-process server kill tests


def _repo_src() -> str:
    import repro

    return os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _start_server(data_dir, crash_point: str | None = None):
    env = dict(
        os.environ,
        PYTHONPATH=_repo_src(),
        PYTHONUNBUFFERED="1",
    )
    if crash_point:
        env["REPRO_CRASH_POINT"] = crash_point
    else:
        env.pop("REPRO_CRASH_POINT", None)
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.service",
            "--data-dir",
            str(data_dir),
            "--port",
            "0",
            "--checkpoint-interval",
            "600",
            "--partition-size",
            "300",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    port = None
    for line in proc.stdout:
        match = re.search(r"listening on [\d.]+:(\d+)", line)
        if match:
            port = int(match.group(1))
            break
    if port is None:
        proc.kill()
        raise RuntimeError("server never reported its port")
    return proc, port


def _client_run(port, scenario):
    with PipelinedClient("127.0.0.1", port, timeout=60.0) as client:
        return scenario(client)


def _register(client) -> None:
    """Register table ``t`` from a plain rows mapping (column types
    inferred by the server), tunnelled in an ``OP_JSON`` frame."""
    request = {
        "op": "register",
        "table": "t",
        "rows": _rows_payload(0, rows=700),
        "partition_size": 300,
    }
    tunnel(client, request, timeout=60.0)


def _rows_payload(seed: int, rows: int = 250) -> dict:
    rng = np.random.default_rng(seed)
    return {
        "x": rng.uniform(0, 100, rows).tolist(),
        "y": rng.normal(50, 10, rows).tolist(),
    }


_SQL = "SELECT AVG(x) FROM t WHERE y > 45"


class TestServerKillRecovery:
    def test_kill_dash_nine_and_restart_recovers_identically(self, tmp_path):
        data_dir = tmp_path / "server-data"
        proc, port = _start_server(data_dir)
        try:

            def setup(client):
                _register(client)
                assert not client.checkpoint()["skipped"]
                client.ingest("t", _rows_payload(1))
                client.persist()
                return client.query(_SQL)

            before = _client_run(port, setup)
        finally:
            proc.kill()
            proc.wait(timeout=30)

        proc, port = _start_server(data_dir)
        try:
            after = _client_run(port, lambda client: client.query(_SQL))
            assert after == before
            assert _client_run(port, lambda client: client.tables()) == ["t"]
        finally:
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0

    @pytest.mark.slow
    def test_kill_between_link_and_manifest_recovers(self, tmp_path):
        """kill -9 an incremental checkpoint after the sealed blobs were
        hard-linked into the temp dir but before the manifest was written:
        the unpublished temp dir must not confuse recovery, and the next
        checkpoint succeeds."""
        data_dir = tmp_path / "server-data"
        proc, port = _start_server(data_dir)
        try:

            def setup(client):
                _register(client)
                assert not client.checkpoint()["skipped"]
                client.ingest("t", _rows_payload(1))
                client.persist()
                return client.query(_SQL)

            before = _client_run(port, setup)
        finally:
            proc.kill()
            proc.wait(timeout=30)

        # Restart armed to die between the blob links and the manifest.
        proc, port = _start_server(data_dir, crash_point="snapshot.before_manifest")
        try:

            def doomed(client):
                with pytest.raises(
                    (RuntimeError, ConnectionError, OSError, EOFError)
                ):
                    client.checkpoint()

            _client_run(port, doomed)
            assert proc.wait(timeout=30) != 0  # died at the crash point
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)

        proc, port = _start_server(data_dir)
        try:
            after = _client_run(port, lambda client: client.query(_SQL))
            assert after == before
            checkpoint = _client_run(port, lambda client: client.checkpoint())
            assert not checkpoint["skipped"]
        finally:
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0

    @pytest.mark.slow
    def test_kill_mid_ingest_recovers_to_last_acknowledged_state(self, tmp_path):
        data_dir = tmp_path / "server-data"
        proc, port = _start_server(data_dir)
        try:

            def setup(client):
                _register(client)
                client.ingest("t", _rows_payload(1))
                return client.query(_SQL)

            before = _client_run(port, setup)
        finally:
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0

        # Restart armed to die halfway through the next ingest's WAL append
        # (a genuine torn record on disk), then ingest into it.
        proc, port = _start_server(data_dir, crash_point="wal.append.mid_write")
        try:

            def doomed(client):
                with pytest.raises((RuntimeError, ConnectionError, OSError)):
                    client.ingest("t", _rows_payload(2))

            _client_run(port, doomed)
            assert proc.wait(timeout=30) != 0  # died at the crash point
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)

        proc, port = _start_server(data_dir)
        try:
            after = _client_run(port, lambda client: client.query(_SQL))
            assert after == before
        finally:
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
