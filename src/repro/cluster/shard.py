"""Worker-shard backends: in-process for tests, subprocess for deployment.

A shard is one full durable engine owning a disjoint, hash-routed subset
of every table's rows.  The cluster front end talks to shards through one
small interface so the same scatter-gather code drives every flavour:

* :class:`LocalShard` — a :class:`~repro.service.database.QueryService`
  (optionally over a :class:`~repro.storage.durable.DurableDatabase` data
  directory) living in the front end's process.  No serialization, no
  sockets: the configuration unit tests use to pin cluster semantics.
* :class:`ProcessShard` — one ``QueryServer`` subprocess, as one object:
  its :class:`~repro.cluster.supervisor.WorkerHandle` (process, port),
  its data directory and the two binary pipelined channels to it.  It
  starts, pings, kills and restarts its own worker; the
  :class:`~repro.cluster.supervisor.ShardSupervisor` only spawns and
  stops.  This is the multi-process deployment the GIL cannot bound.
* :class:`ReplicatedShard` — a primary :class:`ProcessShard` plus
  replica ones, keyed by slot, for failover only: every op asks the
  primary, and a dead primary is replaced by promoting the freshest
  replica, which is one re-keying of these objects.

Every flavour answers ``call(name, *args)`` for the rows of the op table
(:mod:`repro.service.ops`) with the payload that op has over the wire, so
the front end never cares which flavour it is talking to.  The scatter is
``call("query", sql)`` like any other op; :func:`decode_answers` turns its
payload into the :class:`AqpEstimate` lists the gather layer combines.
"""

from __future__ import annotations

import os
import threading
from pathlib import Path

from ..core.aggregation import AqpEstimate
from ..obs import log as obs_log
from ..obs import tracing
from ..service.database import Database, QueryService
from ..service.ops import OPS
from ..service.wire import PipelinedClient, WireError
from ..sql.ast import UnsupportedQueryError
from ..sql.parser import ParseError
from .supervisor import ShardSupervisor, WorkerHandle

_LOG = obs_log.get_logger("supervisor")

#: Server error frames translated back into the exception the single-node
#: service would have raised locally, so cluster callers see identical
#: error semantics.
_WIRE_ERROR_TYPES = {
    "KeyError": KeyError,
    "ValueError": ValueError,
    "TypeError": TypeError,
    "ParseError": ParseError,
    "UnsupportedQueryError": UnsupportedQueryError,
}


def from_wire(payload: dict) -> AqpEstimate:
    """One wire result (``None`` for a NaN field) as an :class:`AqpEstimate`."""

    def _float(key: str) -> float:
        value = payload.get(key)
        return float("nan") if value is None else float(value)

    return AqpEstimate(value=_float("value"), lower=_float("lower"), upper=_float("upper"))


def decode_answers(payload: dict, grouped: bool):
    """A ``query`` reply as gather input: ``[AqpEstimate, ...]``, or
    ``{label: [AqpEstimate, ...]}`` when the query has a GROUP BY."""
    if grouped:
        return {
            label: [from_wire(r) for r in results]
            for label, results in payload["groups"].items()
        }
    return [from_wire(r) for r in payload["results"]]


def _raise_wire_error(error: WireError):
    raised = _WIRE_ERROR_TYPES.get(error.error_type)
    if raised is not None:
        raise raised(error.message) from error
    raise error


def _status(worker) -> dict | None:
    """A worker's ``status``, reconnecting once; ``None`` if unreachable."""
    try:
        return worker.call("status")
    except Exception:
        try:
            worker.reconnect()
            return worker.call("status")
        except Exception:
            return None


class LocalShard:
    """An in-process worker shard (one thread-safe :class:`QueryService`)."""

    def __init__(
        self,
        index: int,
        data_dir: str | Path | None = None,
        **database_kwargs,
    ) -> None:
        self.index = index
        self.data_dir = Path(data_dir) if data_dir is not None else None
        if self.data_dir is not None:
            database = Database.open(self.data_dir, **database_kwargs)
        else:
            database = Database(**database_kwargs)
        self.service = QueryService(database=database)

    def call(self, name: str, *args):
        """The op's handler + reply encoder, in-process: the same payload a
        worker process would have sent."""
        op = OPS[name]
        if op.handler is None:
            raise ValueError(f"op {name!r} needs a worker process")
        return op.unwrap(op.encode(op.handler(self.service, *args)))

    def workers(self) -> list[tuple[dict, "LocalShard"]]:
        return [({"role": "primary"}, self)]

    def close(self) -> None:
        close = getattr(self.service.database, "close", None)
        if close is not None:
            close()


class ProcessShard:
    """One worker process: its :class:`WorkerHandle`, its data directory
    and the two channels the front end speaks to it over.

    The channels are multiplexed binary
    :class:`~repro.service.wire.PipelinedClient` connections, picked by
    the op row's ``channel``: a *query* channel, where each scatter is one
    pipelined ``QUERY`` frame, and a *bulk* channel for ingest/register —
    so an MB-sized row frame (or a slow tail recompression) never
    head-of-line blocks the small query frames sharing the shard.

    The object owns its process: :meth:`start` spawns it through the
    supervisor on :attr:`data_dir`, and :meth:`restart` replaces it with a
    fresh process on the same directory, which recovers the shard's
    snapshot + WAL before it listens — restart *is* recovery.  A replica
    (``slot`` set) spawns subscribed to its ``leader``'s port.
    """

    def __init__(
        self,
        index: int,
        supervisor: ShardSupervisor,
        data_dir: str | Path | None = None,
        slot: int | None = None,
        leader: "ProcessShard | None" = None,
        epoch_file: Path | None = None,
        timeout: float | None = 600.0,
    ) -> None:
        self.index = index
        self.supervisor = supervisor
        self.data_dir = Path(data_dir) if data_dir is not None else None
        #: Replica slot within the shard, ``None`` for the primary.
        self.slot = slot
        #: The primary a replica follows (``None`` for the primary).
        self.leader = leader
        #: The shard's epoch (fencing) file, when it is replicated.
        self.epoch_file = epoch_file
        self.timeout = timeout
        self.handle: WorkerHandle | None = None
        self._mutex = threading.Lock()
        self._generation = 0
        self._query_channel = self._bulk_channel = None

    # ------------------------------------------------------------------ #
    # The process

    def argv(self) -> list[str]:
        """The command line :meth:`start` spawns."""
        follow = None if self.leader is None else self.leader.handle
        return self.supervisor.argv(
            self.index, self.data_dir, self.slot, follow, self.epoch_file
        )

    def start(self) -> "ProcessShard":
        """Spawn the worker and connect to it, once it listens."""
        self.handle = self.supervisor.spawn(self.argv(), self.index, self.slot)
        self.reconnect()
        return self

    def kill(self) -> None:
        """``kill -9`` the worker and reap it (fault injection, and the
        first step of :meth:`restart`)."""
        if self.handle.alive:
            self.handle.process.kill()
        self.handle.process.wait(timeout=30)

    def restart(self) -> None:
        """Replace the worker with a fresh process on the same data
        directory and reconnect; any remnant process is killed first."""
        _LOG.warning("worker_restarting", shard=self.index, slot=self.slot)
        self.kill()
        self.start()

    def ping(self, timeout: float = 5.0) -> bool:
        """Liveness through the wire, not just the process table."""
        if self.handle is None or not self.handle.alive:
            return False
        try:
            with PipelinedClient(
                self.supervisor.host, self.handle.port, timeout=timeout
            ) as client:
                return client.ping() == "pong"
        except (OSError, ConnectionError):
            return False

    # ------------------------------------------------------------------ #
    # The channels

    def _connect(self) -> PipelinedClient:
        return PipelinedClient(
            self.supervisor.host, self.handle.port, timeout=self.timeout
        ).connect()

    def _open_channels(self) -> tuple[PipelinedClient, PipelinedClient]:
        query = self._connect()
        try:
            bulk = self._connect()
        except BaseException:
            query.close()
            raise
        return query, bulk

    @property
    def generation(self) -> int:
        """Bumped by every reconnect; revival logic uses it to detect that
        another caller already revived the shard."""
        return self._generation

    def reconnect(self) -> None:
        """Point the channels at the worker's current port.

        In-flight requests on the old channels fail with
        :class:`ConnectionError` when they are closed — their callers
        observe the bumped generation and retry on the new channels.
        """
        query, bulk = self._open_channels()
        with self._mutex:
            self._generation += 1
            stale = (self._query_channel, self._bulk_channel)
            self._query_channel, self._bulk_channel = query, bulk
        for channel in stale:
            if channel is not None:
                channel.close()

    def _channels(self) -> tuple[PipelinedClient, PipelinedClient]:
        with self._mutex:
            return self._query_channel, self._bulk_channel

    def call(self, name: str, *args):
        """One op over the row's channel, wire errors translated back.

        A ``query`` under a propagating span carries the trace trailer,
        so the worker records its spans under the caller's trace id."""
        query_channel, bulk_channel = self._channels()
        channel = bulk_channel if OPS[name].channel == "bulk" else query_channel
        trace = None
        span = tracing.current_span() if name == "query" else None
        if span is not None and span.propagate:
            trace = (bytes.fromhex(span.trace_id), bytes.fromhex(span.span_id))
        try:
            return channel.call(name, *args, trace=trace)
        except WireError as error:
            _raise_wire_error(error)

    def workers(self) -> list[tuple[dict, "ProcessShard"]]:
        return [({"role": "primary"}, self)]

    def close(self) -> None:
        with self._mutex:
            self._generation += 1
            channels = (self._query_channel, self._bulk_channel)
        for channel in channels:
            if channel is not None:
                channel.close()


class ReplicatedShard:
    """One logical shard backed by a primary plus failover replicas.

    Every op — queries included — goes to the primary; the replicas
    follow its WAL so that one of them can take over when it dies (the
    front end fans the op table's ``replicas="all"`` rows, such as
    ``metrics``, out to them as well).
    """

    def __init__(
        self,
        index: int,
        primary: ProcessShard,
        replicas: dict[int, ProcessShard] | None = None,
    ) -> None:
        self.index = index
        self.primary = primary
        self.replicas: dict[int, ProcessShard] = dict(replicas or {})
        self._mutex = threading.Lock()
        self._generation = 0

    # ------------------------------------------------------------------ #
    # Topology: start, revival, promotion

    @property
    def generation(self) -> int:
        """Bumped by reconnect and restart; revival logic uses it to
        detect that another caller already revived the shard."""
        return self._generation

    def replica_slots(self) -> list[int]:
        with self._mutex:
            return sorted(self.replicas)

    def ping(self, timeout: float = 5.0) -> bool:
        return self.primary.ping(timeout)

    def reconnect(self) -> None:
        self.primary.reconnect()
        with self._mutex:
            self._generation += 1

    def restart(self) -> None:
        """Replace a dead primary (the caller holds the shard's revive lock).

        The freshest live replica holds every acknowledged write (acks
        waited for replication), so it is promoted once the bumped epoch
        record fences the deposed primary, and moves into :attr:`primary`
        with its process and directory; the deposed primary takes its
        slot.  With no live replica, or when ``promote`` fails (maybe just
        its reply), the primary restarts on its own directory.  Both end
        in :meth:`_settle`, and the chosen slot is reseeded as a follower.
        """
        from ..replication.fence import read_epoch, write_epoch

        slot = self._freshest()
        if slot is None:
            self.primary.restart()
        else:
            chosen = self.replicas[slot]
            epoch = read_epoch(chosen.epoch_file).epoch + 1
            write_epoch(chosen.epoch_file, epoch, primary=chosen.data_dir.name)
            try:
                chosen.call("promote", epoch)
            except Exception:
                self.primary.restart()
            else:
                with self._mutex:
                    deposed, self.primary = self.primary, chosen
                    self.replicas[slot] = deposed
                chosen.slot = chosen.leader = None
                deposed.slot, deposed.leader = slot, chosen
                deposed.kill()  # fenced; reap a zombie before reseeding
                _LOG.warning("primary_promoted", shard=self.index, slot=slot)
        self._settle()
        if slot is not None:
            try:
                self.reseed(slot, epoch)
            except Exception:
                pass  # a missing replica only costs failover capacity

    def _freshest(self) -> int | None:
        """The live replica slot with the highest durable LSN, if any."""
        candidates = []
        for slot in self.replica_slots():
            status = _status(self.replicas[slot])
            if status is not None and status.get("role") == "replica":
                candidates.append((int(status.get("durable_lsn", 0)), slot))
        return max(candidates)[1] if candidates else None

    def _settle(self) -> None:
        """Name the running primary's directory in the epoch record, and
        point every replica at it (``follow`` reaches the live ones)."""
        from ..replication.fence import read_epoch, write_epoch

        primary = self.primary
        epoch = read_epoch(primary.epoch_file).epoch
        write_epoch(primary.epoch_file, epoch, primary=primary.data_dir.name)
        with self._mutex:
            replicas = list(self.replicas.values())
            self._generation += 1
        for replica in replicas:
            replica.leader = primary
            try:
                replica.call("follow", primary.supervisor.host, primary.handle.port)
            except Exception:
                pass  # a dead one follows the primary once restarted

    def reseed(self, slot: int, epoch: int) -> None:
        """Restart the replica in ``slot`` as a fresh follower.

        Its directory's ``wal/`` and ``snapshots/`` first move into
        ``divergent-{epoch}``: a deposed primary's unreplicated (never
        acknowledged) tail must not resurface, so the follower bootstraps
        from the primary instead — from its WAL, or by snapshot seed once
        the primary has truncated it.
        """
        replica = self.replicas[slot]
        replica.kill()
        quarantine = replica.data_dir / f"divergent-{epoch:06d}"
        for name in ("wal", "snapshots"):
            source = replica.data_dir / name
            if source.exists():
                quarantine.mkdir(parents=True, exist_ok=True)
                os.replace(source, quarantine / name)
        _LOG.warning(
            "replica_state_quarantined",
            shard=self.index,
            slot=slot,
            quarantine=str(quarantine),
        )
        replica.start()

    def call(self, name: str, *args):
        """Every op asks the primary (``replicas="all"`` rows are fanned out
        by the front end over :meth:`workers`)."""
        return self.primary.call(name, *args)

    def workers(self) -> list[tuple[dict, ProcessShard]]:
        """``(labels, worker)`` of the primary, then of every replica."""
        with self._mutex:
            replicas = sorted(self.replicas.items())
        return [({"role": "primary"}, self.primary)] + [
            ({"role": "replica", "slot": str(slot)}, shard) for slot, shard in replicas
        ]

    def close(self) -> None:
        with self._mutex:
            shards = [self.primary, *self.replicas.values()]
            self.replicas.clear()
        for shard in shards:
            shard.close()
