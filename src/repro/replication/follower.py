"""Follower side: apply a shipped WAL stream through the normal commit path.

:class:`ReplicaApplier` replays each shipped record with the *same*
public service calls a primary's clients use (``register_table`` /
``ingest`` / ``drop_table`` on the :class:`~repro.service.database.QueryService`),
so:

* every applied record goes through the durable commit path and lands in
  the follower's own WAL with the **same LSN** the primary assigned (the
  stream is contiguous, local appends assign ``last + 1``, and the
  applier asserts the two agree after every record);
* the follower's synopses are rebuilt by the identical code with the
  identical row totals, making its state bit-identical to a primary that
  stopped at the same LSN — the property the failover drill pins;
* concurrent replica *queries* are already safe: each runs on the
  immutable engine it read, and the apply loop publishes new ones.

A follower that has fallen behind the primary's WAL truncation horizon
receives a snapshot seed instead: :meth:`ReplicaApplier.reseed` installs
the shipped snapshot directory, swaps the whole catalog for the
snapshot's content and resets the local WAL to the snapshot's checkpoint
LSN.  The same path serves a brand-new (empty) follower — bootstrap is
just "reseed from LSN 0".

:class:`FollowerLoop` is the network half: a daemon thread that
subscribes to the primary over the binary protocol, applies whatever
arrives, acknowledges its durable position after every batch, and
reconnects with backoff on any connection failure.  ``retarget()``
repoints it at a new primary after a promotion; ``shutdown()`` stops it
(promotion of *this* replica).
"""

from __future__ import annotations

import os
import shutil
import socket
import struct
import threading
from pathlib import Path

from ..obs import log as obs_log
from ..obs import metrics as obs_metrics
from ..service import framing
from ..storage.durable import WAL_DROP, WAL_INGEST, WAL_REGISTER
from ..storage import codec
from ..storage.snapshot import load_latest_snapshot

_LOG = obs_log.get_logger("follower")

_APPLIED_LSN = obs_metrics.gauge(
    "aqp_replication_applied_lsn",
    "This replica's durably-applied LSN (== its local WAL tip), refreshed "
    "at metrics-snapshot time.",
    labelnames=("follower",),
)
_UPSTREAM_CONNECTED = obs_metrics.gauge(
    "aqp_replication_upstream_connected",
    "1 while this replica's subscription to its primary is up, else 0.",
    labelnames=("follower",),
)
_APPLIED_BATCHES = obs_metrics.counter(
    "aqp_replication_batches_applied_total",
    "Shipped WAL batches this replica applied and acknowledged.",
    labelnames=("follower",),
)
_APPLIED_SEEDS = obs_metrics.counter(
    "aqp_replication_seeds_applied_total",
    "Snapshot seeds this replica installed (reseed-from-scratch events).",
    labelnames=("follower",),
)


class ReplicationProtocolError(RuntimeError):
    """The shipped stream violated an invariant (gap, bad record type)."""


class ReplicaApplier:
    """Replays shipped WAL records / snapshot seeds into a local service."""

    def __init__(self, service) -> None:
        self.service = service
        self.database = service.database

    @property
    def applied_lsn(self) -> int:
        """Durably-applied position == the local WAL's last LSN."""
        return self.database.wal.last_lsn

    def apply(self, lsn: int, rtype: int, payload: bytes) -> None:
        expected = self.database.wal.last_lsn + 1
        if lsn != expected:
            raise ReplicationProtocolError(
                f"replication stream gap: got lsn {lsn}, expected {expected}"
            )
        if rtype == WAL_REGISTER:
            table, params, partition_size = codec.decode_register_payload(payload)
            self.service.register_table(
                table, params=params, partition_size=partition_size
            )
        elif rtype == WAL_INGEST:
            name, batch = codec.decode_ingest_payload(payload)
            self.service.ingest(name, batch)
        elif rtype == WAL_DROP:
            self.service.drop_table(codec.decode_drop_payload(payload))
        else:
            raise ReplicationProtocolError(f"unknown WAL record type {rtype}")
        applied = self.database.wal.last_lsn
        if applied != lsn:
            raise ReplicationProtocolError(
                f"local commit logged lsn {applied}, primary shipped {lsn}"
            )

    def reseed(self, checkpoint_lsn: int, files: list[tuple[str, bytes]]) -> None:
        """Replace the whole catalog with a shipped snapshot.

        Installs the snapshot directory atomically (write to a temp dir,
        rename into place), retires every current table *without* WAL
        logging, resets the local WAL just past the snapshot's checkpoint
        LSN and installs the snapshot's tables — after which the normal
        ``apply`` path resumes from ``checkpoint_lsn``.
        """
        if not files:
            raise ReplicationProtocolError("snapshot seed carried no files")
        db = self.database
        dir_name = files[0][0].split("/", 1)[0]
        snapshots_dir = Path(db.snapshots_dir)
        snapshots_dir.mkdir(parents=True, exist_ok=True)
        tmp = snapshots_dir / f"tmp-seed-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        for relative, data in files:
            top, _, member = relative.partition("/")
            if top != dir_name or not member:
                raise ReplicationProtocolError(
                    f"seed file {relative!r} escapes the snapshot directory"
                )
            target = tmp / member
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(data)
        final = snapshots_dir / dir_name
        shutil.rmtree(final, ignore_errors=True)
        os.replace(tmp, final)
        # Retire the current catalog (each table under its writer mutex, as
        # a drop): in-flight replica queries finish on the engine they hold.
        for name in list(db.table_names):
            db.uninstall_table(name)
        db.wal.reset_to(checkpoint_lsn)
        snapshot = load_latest_snapshot(snapshots_dir)
        if snapshot is None or snapshot.checkpoint_lsn != checkpoint_lsn:
            raise ReplicationProtocolError(
                "seeded snapshot failed validation after installation"
            )
        for loaded in snapshot.tables:
            db._install_loaded(loaded)
        db._last_checkpoint_lsn = checkpoint_lsn


class FollowerLoop(threading.Thread):
    """Subscribe to the primary, apply the stream, ack durable positions."""

    def __init__(
        self,
        applier: ReplicaApplier,
        follower_id: str,
        primary_host: str,
        primary_port: int,
        connect_timeout: float = 10.0,
        max_backoff: float = 2.0,
    ) -> None:
        super().__init__(name=f"follower-{follower_id}", daemon=True)
        self.applier = applier
        self.follower_id = follower_id
        self.connect_timeout = connect_timeout
        self.max_backoff = max_backoff
        self._target = (primary_host, primary_port)
        self._halt = threading.Event()
        self._sock_mutex = threading.Lock()
        self._sock: socket.socket | None = None
        # The applied position only moves when the apply loop commits, but
        # a scrape can land between batches — refresh at snapshot time so
        # the gauge always reflects the WAL tip (WeakMethod: the loop's
        # death unregisters the hook).
        obs_metrics.REGISTRY.add_collector(self._collect_metrics)
        #: Observability for the ``status`` op.
        self.status: dict = {
            "upstream": f"{primary_host}:{primary_port}",
            "connected": False,
            "batches": 0,
            "seeds": 0,
            "last_error": None,
            "fatal": None,
        }

    def _collect_metrics(self) -> None:
        """Refresh this replica's gauges (registry snapshot hook)."""
        _APPLIED_LSN.set(self.applier.applied_lsn, follower=self.follower_id)
        _UPSTREAM_CONNECTED.set(
            1 if self.status.get("connected") else 0, follower=self.follower_id
        )

    # ------------------------------------------------------------------ #
    # Control

    def retarget(self, host: str, port: int) -> None:
        """Follow a different primary (post-promotion); takes effect
        immediately by severing the current subscription."""
        self._target = (host, port)
        self.status["upstream"] = f"{host}:{port}"
        self._close_socket()

    def shutdown(self, timeout: float = 10.0) -> None:
        self._halt.set()
        self._close_socket()
        if self.is_alive():
            self.join(timeout=timeout)

    def _close_socket(self) -> None:
        with self._sock_mutex:
            sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass

    # ------------------------------------------------------------------ #
    # The loop

    def run(self) -> None:
        backoff = 0.05
        while not self._halt.is_set():
            try:
                self._run_subscription()
                backoff = 0.05
            except (OSError, ConnectionError, EOFError, struct.error) as exc:
                # Connection-level trouble: normal during primary restarts
                # and promotions — back off and resubscribe from our own
                # durable position.
                self.status["connected"] = False
                self.status["last_error"] = f"{type(exc).__name__}: {exc}"
                _LOG.warning(
                    "subscription_lost",
                    follower=self.follower_id,
                    upstream=self.status.get("upstream"),
                    error=str(exc),
                    error_type=type(exc).__name__,
                    backoff_seconds=backoff,
                )
                self._halt.wait(backoff)
                backoff = min(backoff * 2, self.max_backoff)
            except Exception as exc:  # divergence/bug: do not spin on it
                self.status["connected"] = False
                self.status["fatal"] = f"{type(exc).__name__}: {exc}"
                _LOG.error(
                    "follower_fatal",
                    follower=self.follower_id,
                    upstream=self.status.get("upstream"),
                    error=str(exc),
                    error_type=type(exc).__name__,
                )
                return

    def _run_subscription(self) -> None:
        host, port = self._target
        sock = socket.create_connection((host, port), timeout=self.connect_timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.settimeout(None)
            with self._sock_mutex:
                if self._halt.is_set():
                    raise ConnectionError("follower stopping")
                self._sock = sock
            sock.sendall(framing.MAGIC)
            sock.sendall(
                framing.encode_frame(
                    framing.OP_SUBSCRIBE,
                    1,
                    framing.encode_subscribe(self.applier.applied_lsn, self.follower_id),
                )
            )
            reader = sock.makefile("rb")
            self.status["connected"] = True
            self.status["last_error"] = None
            while not self._halt.is_set() and self._target == (host, port):
                status, _, payload = self._read_frame(reader)
                if status != framing.STATUS_OK:
                    error_type, message = framing.decode_error(payload)
                    raise ConnectionError(
                        f"upstream refused subscription: {error_type}: {message}"
                    )
                kind = framing.decode_replication_kind(payload)
                if kind == framing.REPL_WAL_BATCH:
                    for lsn, rtype, record_payload in framing.decode_wal_batch(payload):
                        self.applier.apply(lsn, rtype, record_payload)
                    self.status["batches"] += 1
                    _APPLIED_BATCHES.inc(follower=self.follower_id)
                elif kind == framing.REPL_SNAPSHOT_SEED:
                    self.applier.reseed(*framing.decode_snapshot_seed(payload))
                    self.status["seeds"] += 1
                    _APPLIED_SEEDS.inc(follower=self.follower_id)
                    _LOG.info(
                        "reseeded",
                        follower=self.follower_id,
                        applied_lsn=self.applier.applied_lsn,
                    )
                else:
                    raise ReplicationProtocolError(f"unknown stream kind {kind}")
                sock.sendall(
                    framing.encode_frame(
                        framing.OP_WAL_ACK,
                        0,
                        framing.encode_wal_ack(self.applier.applied_lsn),
                    )
                )
        finally:
            self.status["connected"] = False
            with self._sock_mutex:
                if self._sock is sock:
                    self._sock = None
            try:
                sock.close()
            except OSError:
                pass

    @staticmethod
    def _read_frame(reader) -> tuple[int, int, bytes]:
        header = reader.read(framing.HEADER_SIZE)
        if len(header) < framing.HEADER_SIZE:
            raise EOFError("subscription stream closed")
        status, request_id, length = framing.decode_header(header)
        payload = reader.read(length) if length else b""
        if len(payload) < length:
            raise EOFError("subscription stream closed mid-frame")
        return status, request_id, payload
