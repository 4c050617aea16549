"""Replication subsystem tests: WAL shipping, fencing, failover.

The invariants pinned here:

* ``truncate_through(retain_after_lsn=...)`` never deletes a segment a
  follower (or an in-flight reader) still needs;
* ``read_records(after_lsn)`` across segment rotation and a torn tail
  returns exactly the suffix of a fresh full scan (property test — the
  segment-skip optimisation must never hide a record);
* the new wire ops (SUBSCRIBE / WAL_ACK / WAL_BATCH / SNAPSHOT_SEED)
  round-trip and their byte layouts are frozen against independent
  inline reimplementations;
* epoch fencing: the file protocol, ``check_fence`` semantics, and the
  wire ``error_type`` a fenced worker raises;
* the primary-side hub: subscriber registry, the k-of-n semi-sync ack
  barrier, retention floors with grace eviction;
* the follower-side applier: replay is bit-identical (same commit path,
  same LSNs) and a stream gap is refused loudly;
* end-to-end (slow): replica catch-up, after which the primary and every
  replica answer the same statements identically, ``kill -9`` failover
  with promotion + fencing + zero lost acks, snapshot seeding of a
  quarantined follower, and the supervisor's SIGTERM -> SIGKILL
  escalation against a wedged worker.
"""

from __future__ import annotations

import asyncio
import struct
import tempfile
import time
import zlib
from pathlib import Path
from types import SimpleNamespace

import pytest
from conftest import make_simple_table

from repro import ClusterQueryService, PairwiseHistParams, WriteAheadLog
from repro.cluster.shard import ProcessShard, ReplicatedShard
from repro.cluster.supervisor import ShardSupervisor
from repro.replication import (
    EpochRecord,
    FencedError,
    ReplicaApplier,
    ReplicationHub,
    ReplicationProtocolError,
    check_fence,
    read_epoch,
    write_epoch,
)
from repro.replication import primary as replication_primary
from repro.replication.fence import FENCED_ERROR_TYPE
from repro.service import framing
from repro.service.config import ServeConfig
from repro.service.database import Database, QueryService
from repro.storage.cluster import (
    ClusterLayout,
    epoch_file_name,
    replica_dir_name,
    shard_dir_name,
)
from repro.storage.durable import WAL_INGEST

PARAMS = PairwiseHistParams.with_defaults(sample_size=None, seed=1)
PARTITION_SIZE = 200


# --------------------------------------------------------------------------- #
# WAL retention floors (satellite: truncate_through(retain_after_lsn))


class TestWalRetentionFloor:
    def test_retain_after_lsn_lowers_the_truncation_point(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal", segment_max_bytes=48)
        for _ in range(9):
            wal.append(1, b"y" * 40)
        # A checkpoint at 8 would normally drop nearly everything; a
        # follower acked only through 3, so records 4.. must survive.
        wal.truncate_through(8, retain_after_lsn=3)
        assert [r.lsn for r in wal.read_records(after_lsn=3)] == [4, 5, 6, 7, 8, 9]
        wal.close()

    def test_segment_containing_the_floor_is_never_deleted(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal", segment_max_bytes=48)
        for _ in range(9):
            wal.append(1, b"y" * 40)
        removed = wal.truncate_through(9, retain_after_lsn=5)
        # Record 6 (= floor + 1) must still be readable, so its segment
        # stayed; everything strictly before it could go.
        assert [r.lsn for r in wal.read_records(after_lsn=5)] == [6, 7, 8, 9]
        assert removed  # the fully-covered prefix did get dropped
        wal.close()

    def test_floor_beyond_tail_truncates_everything(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal", segment_max_bytes=48)
        for _ in range(6):
            wal.append(1, b"y" * 40)
        wal.truncate_through(6, retain_after_lsn=6)
        assert list(wal.read_records()) == []
        assert wal.append(1, b"after") == 7
        wal.close()

    def test_active_reader_pins_segments(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal", segment_max_bytes=48)
        for _ in range(9):
            wal.append(1, b"y" * 40)
        iterator = wal.read_records(after_lsn=2)
        first = next(iterator)
        assert first.lsn == 3
        # While the iterator is live its after_lsn (2) is a floor: the
        # checkpoint must not unlink what it has yet to read.
        wal.truncate_through(9)
        assert [r.lsn for r in iterator] == [4, 5, 6, 7, 8, 9]
        iterator.close()
        # With the reader gone the same truncation proceeds.
        wal.truncate_through(9)
        assert list(wal.read_records()) == []
        wal.close()

    def test_first_lsn_tracks_truncation(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal", segment_max_bytes=48)
        for _ in range(9):
            wal.append(1, b"y" * 40)
        assert wal.first_lsn() == 1
        wal.truncate_through(9, retain_after_lsn=5)
        assert wal.first_lsn() <= 6
        assert wal.first_lsn() > 1
        wal.close()


# --------------------------------------------------------------------------- #
# Property test (satellite): read_records(after_lsn) == suffix of fresh scan

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    sizes=st.lists(st.integers(min_value=0, max_value=96), min_size=1, max_size=32),
    segment_max=st.integers(min_value=32, max_value=192),
    torn_bytes=st.integers(min_value=0, max_value=24),
    extra=st.integers(min_value=0, max_value=4),
    after_numerator=st.integers(min_value=0, max_value=8),
)
def test_read_after_lsn_matches_fresh_scan(
    sizes, segment_max, torn_bytes, extra, after_numerator
):
    """Tailing from any position sees exactly the fresh-scan suffix.

    Builds a log with arbitrary segment rotation, tears the tail (crash
    mid-append), reopens, appends more — then checks that for a derived
    ``after_lsn`` the filtered iterator equals the full scan filtered in
    Python.  This is the contract the replication hub's batch collector
    and a resubscribing follower both lean on; the segment-skip fast
    path must never hide a record.
    """
    with tempfile.TemporaryDirectory() as root:
        directory = Path(root) / "wal"
        wal = WriteAheadLog(directory, segment_max_bytes=segment_max)
        for i, size in enumerate(sizes):
            wal.append(1 + (i % 3), bytes([i % 251]) * size)
        wal.close()
        if torn_bytes:
            segment = sorted(directory.glob("*.wal"))[-1]
            data = segment.read_bytes()
            segment.write_bytes(data[: max(0, len(data) - torn_bytes)])
        wal = WriteAheadLog(directory, segment_max_bytes=segment_max)
        for j in range(extra):
            wal.append(2, b"post-crash-%d" % j)
        full = [(r.lsn, r.rtype, r.payload) for r in wal.read_records()]
        assert [lsn for lsn, _, _ in full] == list(
            range(1, len(full) + 1)
        )  # contiguous chain from 1
        last = full[-1][0] if full else 0
        after_lsn = (last * after_numerator) // 8
        tail = [(r.lsn, r.rtype, r.payload) for r in wal.read_records(after_lsn=after_lsn)]
        assert tail == [rec for rec in full if rec[0] > after_lsn]
        wal.close()


# --------------------------------------------------------------------------- #
# Wire framing: replication ops round-trip + frozen byte layouts


class TestReplicationFraming:
    def test_op_codes_pinned(self):
        assert framing.OP_SUBSCRIBE == 6
        assert framing.OP_WAL_ACK == 7
        assert framing.REPL_WAL_BATCH == 1
        assert framing.REPL_SNAPSHOT_SEED == 2

    def test_subscribe_round_trip_and_layout(self):
        payload = framing.encode_subscribe(77, "shard3-r1")
        assert framing.decode_subscribe(payload) == (77, "shard3-r1")
        raw = b"shard3-r1"
        assert payload == struct.pack("<Q", 77) + struct.pack("<I", len(raw)) + raw

    def test_wal_ack_round_trip_and_layout(self):
        payload = framing.encode_wal_ack(2**40 + 5)
        assert framing.decode_wal_ack(payload) == 2**40 + 5
        assert payload == struct.pack("<Q", 2**40 + 5)

    def test_wal_batch_round_trip(self):
        records = [
            (4, 1, b"alpha" * 20),
            (5, 2, b""),
            (6, 1, b"gamma"),
        ]
        assert framing.decode_wal_batch(framing.encode_wal_batch(records)) == records

    def test_wal_batch_layout_pinned(self):
        records = [(9, 3, b"abc"), (10, 1, b"defg")]
        raw = b"".join(
            struct.pack("<QBI", lsn, rtype, len(p)) + p for lsn, rtype, p in records
        )
        expected = (
            struct.pack("<BQQII", 1, 9, 10, 2, len(raw)) + zlib.compress(raw, 1)
        )
        assert framing.encode_wal_batch(records) == expected

    def test_wal_batch_rejects_empty_and_wrong_kind(self):
        with pytest.raises(ValueError):
            framing.encode_wal_batch([])
        seed = framing.encode_snapshot_seed(1, [("snap/x", b"d")])
        with pytest.raises(ValueError):
            framing.decode_wal_batch(seed)

    def test_snapshot_seed_round_trip(self):
        files = [
            ("snapshot-000007/MANIFEST", b"m" * 100),
            ("snapshot-000007/t0.bin", bytes(range(256)) * 4),
        ]
        lsn, decoded = framing.decode_snapshot_seed(
            framing.encode_snapshot_seed(7, files)
        )
        assert lsn == 7
        assert decoded == files

    def test_snapshot_seed_layout_pinned(self):
        name, data = "snap/f", b"payload-bytes"
        compressed = zlib.compress(data, 1)
        expected = (
            struct.pack("<BQI", 2, 3, 1)
            + struct.pack("<I", len(name))
            + name.encode()
            + struct.pack("<II", len(data), len(compressed))
            + compressed
        )
        assert framing.encode_snapshot_seed(3, [(name, data)]) == expected

    def test_stream_kind_discriminator(self):
        batch = framing.encode_wal_batch([(1, 1, b"x")])
        seed = framing.encode_snapshot_seed(0, [("s/f", b"")])
        assert framing.decode_replication_kind(batch) == framing.REPL_WAL_BATCH
        assert framing.decode_replication_kind(seed) == framing.REPL_SNAPSHOT_SEED
        with pytest.raises(ValueError):
            framing.decode_replication_kind(b"")


# --------------------------------------------------------------------------- #
# Epoch fencing


class TestFencing:
    def test_missing_file_reads_as_epoch_zero(self, tmp_path):
        assert read_epoch(tmp_path / "absent.epoch") == EpochRecord(0, None)

    def test_write_read_round_trip(self, tmp_path):
        path = tmp_path / "shard.epoch"
        write_epoch(path, 4, primary="shard-00000-replica-01")
        assert read_epoch(path) == EpochRecord(4, "shard-00000-replica-01")
        # No temp-file litter from the atomic publish.
        assert list(tmp_path.iterdir()) == [path]

    def test_check_fence_only_rejects_older_epochs(self, tmp_path):
        path = tmp_path / "shard.epoch"
        write_epoch(path, 3, primary=shard_dir_name(0))
        check_fence(path, 3)  # current epoch: fine
        check_fence(path, 4)  # newer than the file (we wrote it): fine
        with pytest.raises(FencedError):
            check_fence(path, 2)

    def test_corrupt_epoch_file_raises(self, tmp_path):
        path = tmp_path / "shard.epoch"
        path.write_text("not-json{")
        with pytest.raises(ValueError):
            read_epoch(path)

    def test_wire_error_type_matches_exception_name(self):
        # The server encodes ``type(exc).__name__``; the client-side
        # retry logic matches on this constant.  Keep them glued.
        assert FENCED_ERROR_TYPE == FencedError.__name__


# --------------------------------------------------------------------------- #
# Primary-side hub: registry, semi-sync barrier, retention floors


class _StubWal:
    def __init__(self):
        self.last_lsn = 0


class _StubDatabase:
    def __init__(self):
        self.wal = _StubWal()
        self.retention_floor = None


class TestReplicationHub:
    def test_attach_wires_the_retention_hook(self):
        db = _StubDatabase()
        hub = ReplicationHub(db, ack_replicas=1)
        hub.attach()
        assert db.retention_floor == hub.retention_floor  # bound-method equality

    def test_replicated_lsn_is_kth_highest_ack(self):
        hub = ReplicationHub(_StubDatabase(), ack_replicas=2)
        hub.subscribe("a", 0)
        hub.subscribe("b", 0)
        hub.update_ack("a", 9)
        hub.update_ack("b", 4)
        assert hub.replicated_lsn() == 4  # 2nd highest
        hub.ack_replicas = 1
        assert hub.replicated_lsn() == 9
        hub.ack_replicas = 3  # more acks required than subscribers exist
        assert hub.replicated_lsn() == 0

    def test_acks_are_monotonic(self):
        hub = ReplicationHub(_StubDatabase(), ack_replicas=1)
        hub.subscribe("a", 0)
        hub.update_ack("a", 7)
        hub.update_ack("a", 3)  # a stale, reordered ack must not regress
        assert hub.replicated_lsn() == 7

    def test_zero_ack_replicas_is_synchronous_with_local_wal(self):
        db = _StubDatabase()
        db.wal.last_lsn = 12
        hub = ReplicationHub(db, ack_replicas=0)
        assert hub.replicated_lsn() == 12
        assert asyncio.run(hub.wait_replicated(12)) is True

    def test_resubscribe_resets_position(self):
        hub = ReplicationHub(_StubDatabase(), ack_replicas=1)
        hub.subscribe("a", 10)
        hub.disconnect("a")
        hub.subscribe("a", 2)  # came back from an older checkpoint
        snapshot = hub.subscriber_snapshot()
        assert snapshot["a"]["connected"] is True
        assert snapshot["a"]["acked_lsn"] == 2

    def test_retention_floor_is_min_over_subscribers(self):
        hub = ReplicationHub(_StubDatabase(), ack_replicas=1)
        assert hub.retention_floor() is None  # no followers: no pin
        hub.subscribe("a", 0)
        hub.subscribe("b", 0)
        hub.update_ack("a", 8)
        hub.update_ack("b", 5)
        assert hub.retention_floor() == 5

    def test_disconnected_follower_pins_until_grace_expires(self, monkeypatch):
        clock = SimpleNamespace(now=100.0)
        monkeypatch.setattr(
            replication_primary, "time", SimpleNamespace(monotonic=lambda: clock.now)
        )
        hub = ReplicationHub(
            _StubDatabase(), ack_replicas=1, retention_grace_seconds=0.05
        )
        hub.subscribe("a", 0)
        hub.subscribe("b", 0)
        hub.update_ack("a", 8)
        hub.update_ack("b", 3)
        hub.disconnect("b")
        # Within the grace window the dead follower still pins the log —
        # it may reconnect and resume from its position.
        assert hub.retention_floor() == 3
        clock.now += 0.1
        assert hub.retention_floor() == 8  # evicted; only "a" pins now
        assert "b" not in hub.subscriber_snapshot()

    def test_wait_replicated_releases_on_ack(self):
        hub = ReplicationHub(_StubDatabase(), ack_replicas=1)

        async def scenario():
            hub.subscribe("a", 0)
            waiter = asyncio.ensure_future(hub.wait_replicated(3, timeout=5.0))
            await asyncio.sleep(0.02)
            assert not waiter.done()  # barred until the ack arrives
            hub.update_ack("a", 3)
            return await waiter

        assert asyncio.run(scenario()) is True

    def test_wait_replicated_times_out_without_acks(self):
        hub = ReplicationHub(_StubDatabase(), ack_replicas=1)

        async def scenario():
            hub.subscribe("a", 0)
            return await hub.wait_replicated(1, timeout=0.05)

        assert asyncio.run(scenario()) is False


# --------------------------------------------------------------------------- #
# Follower-side applier


def _durable_service(path) -> QueryService:
    return QueryService(database=Database.open(path))


class TestReplicaApplier:
    def test_replay_is_bit_identical(self, tmp_path):
        primary = _durable_service(tmp_path / "primary")
        table = make_simple_table(rows=400, seed=7, name="sensors")
        primary.register_table(table, params=PARAMS, partition_size=PARTITION_SIZE)
        primary.ingest("sensors", make_simple_table(rows=150, seed=8, name="sensors"))

        replica = _durable_service(tmp_path / "replica")
        applier = ReplicaApplier(replica)
        shipped = list(primary.database.wal.read_records())
        for record in shipped:
            applier.apply(record.lsn, record.rtype, record.payload)
        assert applier.applied_lsn == primary.database.wal.last_lsn
        # Same commit path, same LSNs => byte-identical WAL and answers.
        queries = [
            "SELECT COUNT(*) FROM sensors",
            "SELECT AVG(x) FROM sensors WHERE y > 45",
            "SELECT SUM(z) FROM sensors WHERE x < 50",
        ]
        for sql in queries:
            assert (
                replica.execute_scalar(sql).value == primary.execute_scalar(sql).value
            )
        replayed = list(replica.database.wal.read_records())
        assert [(r.lsn, r.rtype, r.payload) for r in replayed] == [
            (r.lsn, r.rtype, r.payload) for r in shipped
        ]

    def test_stream_gap_is_refused(self, tmp_path):
        replica = _durable_service(tmp_path / "replica")
        with pytest.raises(ReplicationProtocolError, match="gap"):
            ReplicaApplier(replica).apply(5, WAL_INGEST, b"")

    def test_unknown_record_type_is_refused(self, tmp_path):
        primary = _durable_service(tmp_path / "primary")
        table = make_simple_table(rows=50, seed=1, name="t")
        primary.register_table(table, params=PARAMS, partition_size=PARTITION_SIZE)
        record = next(iter(primary.database.wal.read_records()))
        replica = _durable_service(tmp_path / "replica")
        with pytest.raises(ReplicationProtocolError, match="record type"):
            ReplicaApplier(replica).apply(record.lsn, 99, record.payload)


# --------------------------------------------------------------------------- #
# Cluster layout: replica directories + epoch files


class TestReplicaLayout:
    def test_directory_and_epoch_names(self):
        assert replica_dir_name(3, 1) == "shard-00003-replica-01"
        assert epoch_file_name(3) == "shard-00003.epoch"

    def test_ensure_creates_and_detect_counts(self, tmp_path):
        layout = ClusterLayout(tmp_path / "cluster")
        layout.ensure(2, replicas=2)
        for i in range(2):
            assert layout.shard_path(i).is_dir()
            for r in range(2):
                assert layout.replica_path(i, r).is_dir()
        assert layout.detect_replicas(2) == 2
        assert ClusterLayout(tmp_path / "cluster").detect_replicas(2) == 2

    def test_detect_replicas_zero_without_dirs(self, tmp_path):
        layout = ClusterLayout(tmp_path / "plain")
        layout.ensure(2)
        assert layout.detect_replicas(2) == 0

    def test_supervisor_argv_carries_epoch_and_acks(self, tmp_path):
        data = tmp_path / shard_dir_name(0)
        replica = tmp_path / replica_dir_name(0, 0)
        epoch = tmp_path / epoch_file_name(0)
        for d in (data, replica):
            d.mkdir()
        write_epoch(epoch, 5, primary=shard_dir_name(0))
        sup = ShardSupervisor(replicas=1)
        primary = ProcessShard(0, sup, data, epoch_file=epoch)
        argv = primary.argv()
        assert "--epoch-file" in argv and str(epoch) in argv
        # The epoch is read live from the file at spawn time, so a worker
        # restarted after a promotion rejoins at the *current* epoch.
        assert argv[argv.index("--epoch") + 1] == "5"
        assert argv[argv.index("--ack-replicas") + 1] == "1"  # semi-sync default
        with pytest.raises(RuntimeError):
            # primary not spawned yet: no port to follow
            ProcessShard(0, sup, replica, 0, primary, epoch).argv()


# --------------------------------------------------------------------------- #
# End-to-end (subprocess clusters)


def _boot(path, *, shards=1, replicas=2, **kwargs) -> ClusterQueryService:
    kwargs.setdefault("worker", ServeConfig(checkpoint_interval=3600.0))
    return ClusterQueryService(
        num_shards=shards,
        path=path,
        mode="process",
        partition_size=PARTITION_SIZE,
        replicas=replicas,
        **kwargs,
    )


def _scalar(cluster, sql) -> float:
    return cluster.execute_scalar(sql).value


def _assert_every_worker_agrees(cluster, sql) -> None:
    """``sql`` asked of each shard's primary and of every one of its
    replicas directly (after catch-up) answers identically."""
    for shard in cluster.shards:
        expected = shard.primary.call("query", sql)
        for slot in shard.replica_slots():
            assert shard.replicas[slot].call("query", sql) == expected, (
                f"shard {shard.index} replica {slot} disagrees with its primary"
            )


def _wait_for_status(worker, ready, timeout_seconds: float = 30.0) -> dict:
    """Poll ``worker``'s ``status`` op (one round trip per poll) until
    ``ready(status)`` holds; returns that status."""
    deadline = time.monotonic() + timeout_seconds
    while True:
        status = worker.call("status")
        if ready(status):
            return status
        if time.monotonic() > deadline:
            raise TimeoutError(f"status never became ready: {status}")


def wait_for_replica_catchup(cluster, timeout_seconds: float = 60.0) -> None:
    """Block until every replica's applied LSN reaches its primary's durable
    LSN (quiescent cluster)."""
    for shard in cluster.shards:
        if not isinstance(shard, ReplicatedShard):
            continue
        durable = int(shard.primary.call("status").get("durable_lsn", 0))
        for slot in shard.replica_slots():
            _wait_for_status(
                shard.replicas[slot],
                lambda status: int(status.get("applied_lsn", -1)) >= durable,
                timeout_seconds,
            )


@pytest.mark.slow
class TestReplicationEndToEnd:
    def test_replicas_catch_up_and_serve_reads(self, tmp_path):
        table = make_simple_table(rows=600, seed=3, name="sensors")
        cluster = _boot(tmp_path / "cluster", replicas=2)
        try:
            cluster.register_table(table, params=PARAMS)
            cluster.ingest(
                "sensors", make_simple_table(rows=200, seed=4, name="sensors")
            )
            wait_for_replica_catchup(cluster)
            shard = cluster.shards[0]
            assert isinstance(shard, ReplicatedShard)
            # Both replicas durably applied everything.
            primary_status = shard.primary.call("status")
            assert primary_status["role"] == "primary"
            assert len(primary_status["followers"]) == 2
            durable = primary_status["durable_lsn"]
            for slot in shard.replica_slots():
                status = shard.replicas[slot].call("status")
                assert status["role"] == "replica"
                assert status["applied_lsn"] == durable
            # The primary and both replicas answer bit-identically.
            assert _scalar(cluster, "SELECT COUNT(*) FROM sensors") == 800.0
            _assert_every_worker_agrees(cluster, "SELECT COUNT(*) FROM sensors")
        finally:
            cluster.close()

    def test_semi_sync_ack_covers_the_freshest_follower(self, tmp_path):
        """K=1-of-2 semi-sync: every acked write is on >= 1 follower, and
        the freshest follower (promotion's choice) holds *all* of them."""
        table = make_simple_table(rows=300, seed=5, name="sensors")
        cluster = _boot(tmp_path / "cluster", replicas=2)
        try:
            cluster.register_table(table, params=PARAMS)
            for seed in range(6, 9):
                cluster.ingest(
                    "sensors", make_simple_table(rows=100, seed=seed, name="sensors")
                )
            shard = cluster.shards[0]
            acked = shard.primary.call("status")["replicated_lsn"]
            durable = shard.primary.call("status")["durable_lsn"]
            assert acked == durable  # every returned ack was replicated
            freshest = max(
                shard.replicas[slot].call("status")["applied_lsn"]
                for slot in shard.replica_slots()
            )
            assert freshest >= acked
        finally:
            cluster.close()

    def test_kill9_failover_promotes_and_fences(self, tmp_path):
        table = make_simple_table(rows=500, seed=11, name="sensors")
        root = tmp_path / "cluster"
        cluster = _boot(root, replicas=2)
        try:
            cluster.register_table(table, params=PARAMS)
            wait_for_replica_catchup(cluster)
            before = read_epoch(cluster.layout.epoch_path(0))
            assert before == EpochRecord(1, shard_dir_name(0))

            cluster.shards[0].primary.kill()  # kill -9 the primary
            # The next ingest trips revival -> promotion, and its ack is
            # the new primary's (fenced-epoch) semi-sync ack.
            cluster.ingest(
                "sensors", make_simple_table(rows=100, seed=12, name="sensors")
            )
            after = read_epoch(cluster.layout.epoch_path(0))
            assert after.epoch == 2
            assert after.primary.startswith("shard-00000-replica-")
            wait_for_replica_catchup(cluster)
            assert _scalar(cluster, "SELECT COUNT(*) FROM sensors") == 600.0
            shard = cluster.shards[0]
            assert shard.primary.call("status")["role"] == "primary"
            assert shard.primary.call("status")["epoch"] == 2
            # The deposed primary's slot was reseeded as a fresh follower
            # and its pre-crash state quarantined, not merged.
            assert len(shard.replica_slots()) == 2
        finally:
            cluster.close()

    def test_reopen_after_promotion_serves_promoted_state(self, tmp_path):
        table = make_simple_table(rows=400, seed=13, name="sensors")
        root = tmp_path / "cluster"
        cluster = _boot(root, replicas=1)
        try:
            cluster.register_table(table, params=PARAMS)
            wait_for_replica_catchup(cluster)
            cluster.shards[0].primary.kill()
            # Ingest routes to the primary, so it trips revival -> promotion
            # (a read could be served by the surviving replica instead).
            cluster.ingest(
                "sensors", make_simple_table(rows=100, seed=14, name="sensors")
            )
            assert read_epoch(cluster.layout.epoch_path(0)).epoch == 2
        finally:
            cluster.close()
        # Reopen with replicas autodetected from the directory listing;
        # the epoch record maps the primary role to the promoted dir.
        reopened = ClusterQueryService.open(root, mode="process")
        try:
            assert reopened.replicas == 1
            wait_for_replica_catchup(reopened)
            assert _scalar(reopened, "SELECT COUNT(*) FROM sensors") == 500.0
            reopened.ingest(
                "sensors", make_simple_table(rows=100, seed=17, name="sensors")
            )
            wait_for_replica_catchup(reopened)
            assert _scalar(reopened, "SELECT COUNT(*) FROM sensors") == 600.0
        finally:
            reopened.close()

    def test_failed_promotion_keeps_one_history(self, tmp_path):
        """A ``promote`` that raises (its reply lost, or the replica gone)
        falls back to restarting the old primary.  The chosen replica must
        then follow that primary, and the epoch record must name the
        directory it serves from — else the acked write waits forever and
        a reopen serves two histories."""
        root = tmp_path / "cluster"
        cluster = _boot(
            root,
            replicas=1,
            worker=ServeConfig(checkpoint_interval=3600.0, ack_timeout=3.0),
        )
        try:
            cluster.register_table(
                make_simple_table(rows=400, seed=13, name="sensors"), params=PARAMS
            )
            wait_for_replica_catchup(cluster)
            shard = cluster.shards[0]
            replica, call = shard.replicas[0], shard.replicas[0].call

            def lose_promote(name, *args):
                if name == "promote":
                    raise ConnectionError("promote reply lost")
                return call(name, *args)

            replica.call = lose_promote
            shard.primary.kill()
            result = cluster.ingest(
                "sensors", make_simple_table(rows=100, seed=14, name="sensors")
            )
            assert result.appended_rows == 100
            record = read_epoch(cluster.layout.epoch_path(0))
            assert record.primary == shard.primary.data_dir.name
        finally:
            cluster.close()
        reopened = ClusterQueryService.open(root, mode="process")
        try:
            wait_for_replica_catchup(reopened)
            shard = reopened.shards[0]
            primary = shard.primary.call("stat", "sensors")["rows"]
            assert shard.replicas[0].call("stat", "sensors")["rows"] == primary == 500
            assert _scalar(reopened, "SELECT COUNT(*) FROM sensors") == 500.0
            _assert_every_worker_agrees(reopened, "SELECT COUNT(*) FROM sensors")
        finally:
            reopened.close()

    def test_snapshot_seed_bootstraps_a_quarantined_follower(self, tmp_path):
        table = make_simple_table(rows=500, seed=15, name="sensors")
        cluster = _boot(tmp_path / "cluster", replicas=1)
        try:
            cluster.register_table(table, params=PARAMS)
            wait_for_replica_catchup(cluster)
            # Checkpoint + truncate: the shipped history is now gone, so a
            # from-zero follower can only bootstrap via SNAPSHOT_SEED.
            cluster.checkpoint()
            shard = cluster.shards[0]
            wal_segments = sorted(p.name for p in (cluster.layout.shard_path(0) / "wal").iterdir())
            assert wal_segments == [f"{2:020d}.wal"], "the checkpoint left LSN 1 in the WAL"
            epoch = read_epoch(cluster.layout.epoch_path(0)).epoch
            shard.reseed(0, epoch)
            # The follower counts a seed only once it is fully installed,
            # which is after the reseeded WAL position becomes visible as
            # ``applied_lsn`` — so wait for the count, not just the position.
            status = _wait_for_status(
                shard.replicas[0], lambda s: s.get("follower", {}).get("seeds", 0) >= 1
            )
            wait_for_replica_catchup(cluster)
            assert status["applied_lsn"] == shard.primary.call("status")["durable_lsn"]
            assert status["follower"]["seeds"] >= 1
            assert status["follower"]["batches"] == 0
            # The pre-quarantine state was moved aside, not deleted.
            quarantine = cluster.layout.replica_path(0, 0) / f"divergent-{epoch:06d}"
            assert quarantine.is_dir()
            assert _scalar(cluster, "SELECT COUNT(*) FROM sensors") == 500.0
            _assert_every_worker_agrees(cluster, "SELECT COUNT(*) FROM sensors")
        finally:
            cluster.close()

    def test_dead_replica_costs_queries_nothing(self, tmp_path):
        """With its only replica killed, the shard's queries keep
        answering from the primary."""
        table = make_simple_table(rows=300, seed=16, name="sensors")
        cluster = _boot(tmp_path / "cluster", replicas=1)
        try:
            cluster.register_table(table, params=PARAMS)
            wait_for_replica_catchup(cluster)
            shard = cluster.shards[0]
            shard.replicas[0].kill()  # kill -9 the only replica, and reap it
            for _ in range(4):
                assert _scalar(cluster, "SELECT COUNT(*) FROM sensors") == 300.0
        finally:
            cluster.close()


# --------------------------------------------------------------------------- #
# Failover drill: concurrent load, kill -9, zero lost acks


#: Acked ingest batches the drill waits for before the kill, and again after.
_DRILL_BATCHES = 8


@pytest.mark.slow
def test_failover_drill_no_acked_write_lost(tmp_path):
    """2 shards x 2 replicas under concurrent ingest + query load; kill -9
    one primary mid-stream.  Every *acknowledged* batch must survive the
    promotion, post-failover answers must be bit-identical on every
    primary and replica, and the epoch must have advanced exactly once."""
    import threading

    table = make_simple_table(rows=800, seed=21, name="sensors")
    cluster = _boot(tmp_path / "cluster", shards=2, replicas=2)
    try:
        cluster.register_table(table, params=PARAMS)
        wait_for_replica_catchup(cluster)

        acked_rows = [table.num_rows]
        acked_batches = [0]
        progress = threading.Condition()
        errors: list[BaseException] = []
        stop = threading.Event()

        def ingest_loop():
            seed = 100
            while not stop.is_set():
                batch = make_simple_table(rows=50, seed=seed, name="sensors")
                seed += 1
                try:
                    cluster.ingest("sensors", batch)
                except Exception as exc:  # pragma: no cover - drill failure
                    errors.append(exc)
                    break
                acked_rows[0] += batch.num_rows
                with progress:
                    acked_batches[0] += 1
                    progress.notify_all()
            with progress:
                progress.notify_all()

        def await_batches(count: int) -> None:
            with progress:
                progress.wait_for(
                    lambda: errors or acked_batches[0] >= count, timeout=120.0
                )
            assert not errors, f"drill load failed: {errors[0]!r}"
            assert acked_batches[0] >= count, "ingest stalled"

        def query_loop():
            while not stop.is_set():
                try:
                    value = _scalar(cluster, "SELECT COUNT(*) FROM sensors")
                    assert value >= 800.0, f"a read saw {value} rows"
                except Exception as exc:  # pragma: no cover - drill failure
                    errors.append(exc)
                    return

        threads = [
            threading.Thread(target=ingest_loop),
            threading.Thread(target=query_loop),
        ]
        for t in threads:
            t.start()
        await_batches(_DRILL_BATCHES)
        cluster.shards[0].primary.kill()  # kill -9 shard 0's primary under load
        # Batches acked after the kill went through the promoted primary.
        await_batches(acked_batches[0] + _DRILL_BATCHES)
        stop.set()
        for t in threads:
            t.join(timeout=60.0)
        assert not errors, f"drill load failed: {errors[0]!r}"

        record = read_epoch(cluster.layout.epoch_path(0))
        assert record.epoch == 2, "shard 0 was not promoted exactly once"
        assert record.primary.startswith("shard-00000-replica-")
        assert read_epoch(cluster.layout.epoch_path(1)).epoch == 1

        # Zero lost acks: every acknowledged batch is present.
        wait_for_replica_catchup(cluster)
        total = _scalar(cluster, "SELECT COUNT(*) FROM sensors")
        assert total == float(acked_rows[0])

        # Bit-identical answers on every primary and replica.
        for sql in (
            "SELECT COUNT(*) FROM sensors",
            "SELECT AVG(x) FROM sensors WHERE y > 45",
            "SELECT SUM(z) FROM sensors WHERE x < 50",
        ):
            _assert_every_worker_agrees(cluster, sql)
    finally:
        cluster.close()


# --------------------------------------------------------------------------- #
# Supervisor stop escalation (satellite: wedged-worker drill)


@pytest.mark.slow
def test_stop_escalates_sigterm_to_sigkill_for_wedged_worker(tmp_path):
    """A worker that ignores SIGTERM (REPRO_HANG_ON_SIGTERM=1) must be
    SIGKILLed after the grace window — stop() always terminates."""
    sup = ShardSupervisor(
        worker=ServeConfig(checkpoint_interval=3600.0),
        stop_grace_timeout=1.5,
        extra_env={"REPRO_HANG_ON_SIGTERM": "1"},
    )
    worker = ProcessShard(0, sup, tmp_path / "shard").start()
    process = worker.handle.process
    assert worker.ping()
    worker.close()
    started = time.perf_counter()
    sup.stop([worker.handle], graceful=True)
    elapsed = time.perf_counter() - started
    assert process.poll() is not None, "wedged worker survived stop()"
    assert elapsed >= 1.0, "worker exited before the grace window (not wedged?)"
    assert elapsed < 30.0, f"escalation took {elapsed:.1f}s"
