"""Worker-shard backends: in-process for tests, subprocess for deployment.

A shard is one full durable engine owning a disjoint, hash-routed subset
of every table's rows.  The cluster front end talks to shards through one
small interface so the same scatter-gather code drives both flavours:

* :class:`LocalShard` — a :class:`~repro.service.database.QueryService`
  (optionally over a :class:`~repro.storage.durable.DurableDatabase` data
  directory) living in the front end's process.  No serialization, no
  sockets: the configuration unit tests use to pin cluster semantics.
* :class:`ProcessShard` — a :class:`~repro.service.server.QueryServer`
  subprocess managed by a
  :class:`~repro.cluster.supervisor.ShardSupervisor`, spoken to over the
  binary pipelined protocol via
  :class:`~repro.service.wire.PipelinedClient`.  This is the
  multi-process deployment the GIL cannot bound.

Every flavour answers ``call(name, *args)`` for the rows of the op table
(:mod:`repro.service.ops`) with the payload that op has over the wire, so
the front end never cares which flavour it is talking to.  ``execute``
(the scatter path) returns shard answers normalised to
(:data:`"scalar"`, ``[AqpEstimate, ...]``) or (:data:`"groups"`,
``{label: [AqpEstimate, ...]}``) for the gather layer.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from pathlib import Path

from ..core.aggregation import AqpEstimate
from ..obs import metrics as obs_metrics
from ..obs import tracing
from ..service.database import Database, QueryService
from ..service.ops import OPS
from ..service.wire import PipelinedClient, WireError
from ..sql.ast import UnsupportedQueryError
from ..sql.parser import ParseError

_REPLICA_READ_LAG = obs_metrics.gauge(
    "aqp_replica_read_lag_records",
    "Primary durable LSN minus replica applied LSN, as last observed by "
    "the front end's read-eligibility refresh.",
    labelnames=("shard", "slot"),
)
_REPLICA_ELIGIBLE = obs_metrics.gauge(
    "aqp_replica_read_eligible",
    "1 when the replica is in the staleness-bounded read set, else 0.",
    labelnames=("shard", "slot"),
)

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


def _raise_wire_error(error: WireError):
    raised = _WIRE_ERROR_TYPES.get(error.error_type)
    if raised is not None:
        raise raised(error.message) from error
    raise error


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

    def execute(self, sql: str):
        result = self.service.execute(sql)
        if isinstance(result, dict):
            return "groups", {
                label: [r.estimate for r in results] for label, results in result.items()
            }
        return "scalar", [r.estimate for r in result]

    def workers(self) -> list[tuple[dict, "LocalShard"]]:
        return [({"role": "primary"}, self)]

    def close(self) -> None:
        close = getattr(self.service.database, "close", None)
        if close is not None:
            close()


class _QueryBatcher:
    """Coalesce concurrent queries to one shard into batch frames.

    At most one ``OP_QUERY_BATCH`` frame is outstanding at a time;
    queries arriving while it is in flight accumulate and ship as the
    next frame the moment the current one completes.  Under concurrent
    load this drives frames-per-query toward one per shard, while a lone
    query still departs immediately (as a batch of one).
    """

    def __init__(self, channel: PipelinedClient) -> None:
        self._channel = channel
        self._mutex = threading.Lock()
        self._pending: list[tuple[str, Future]] = []
        self._inflight = False

    def submit(self, sql: str) -> Future:
        """Future of this query's per-item outcome dict."""
        future: Future = Future()
        with self._mutex:
            self._pending.append((sql, future))
            if self._inflight:
                return future  # rides the next frame when the current lands
            self._inflight = True
        self._send_next()
        return future

    def _send_next(self) -> None:
        with self._mutex:
            batch, self._pending = self._pending, []
            if not batch:
                self._inflight = False
                return
        try:
            frame = self._channel.submit("query_batch", [sql for sql, _ in batch])
        except BaseException as exc:
            with self._mutex:
                self._inflight = False
            for _, future in batch:
                if not future.done():
                    future.set_exception(exc)
            return
        # Completes on the channel's reader thread, which then ships
        # whatever accumulated in the meantime.
        frame.add_done_callback(lambda done: self._complete(batch, done))

    def _complete(self, batch: list[tuple[str, Future]], frame: Future) -> None:
        try:
            items = frame.result()
        except BaseException as exc:
            for _, future in batch:
                if not future.done():
                    future.set_exception(exc)
        else:
            for (_, future), item in zip(batch, items):
                if not future.done():
                    future.set_result(item)
            for _, future in batch[len(items) :]:
                if not future.done():
                    future.set_exception(
                        ConnectionError("batch response was truncated")
                    )
        self._send_next()


class ProcessShard:
    """A worker shard living in a supervised ``QueryServer`` subprocess.

    The shard is spoken to over two multiplexed binary channels
    (:class:`~repro.service.wire.PipelinedClient`): a *query* channel
    whose concurrent scatters coalesce into batch frames via
    :class:`_QueryBatcher`, and a *bulk* channel for ingest/register —
    so an MB-sized row frame (or a slow tail recompression) never
    head-of-line blocks the small query frames sharing the shard.  Two
    sockets replace the old per-operation connection pool.
    """

    def __init__(
        self, index: int, host: str, port: int, timeout: float | None = 600.0
    ) -> None:
        self.index = index
        self.host = host
        self.port = port
        self.timeout = timeout
        self._mutex = threading.Lock()
        self._generation = 0
        # Connect eagerly so construction fails fast when the worker is
        # not listening.
        self._query_channel, self._bulk_channel = self._open_channels()
        self._batcher = _QueryBatcher(self._query_channel)

    def _connect(self) -> PipelinedClient:
        return PipelinedClient(self.host, self.port, timeout=self.timeout).connect()

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

    def reconnect(self, port: int | None = None) -> None:
        """Point the channels at a restarted worker.

        In-flight requests on the old channels fail with
        :class:`ConnectionError` when they are closed — their callers
        observe the bumped generation and retry on the new channels.
        """
        if port is not None:
            self.port = port
        query, bulk = self._open_channels()
        with self._mutex:
            self._generation += 1
            stale = (self._query_channel, self._bulk_channel)
            self._query_channel, self._bulk_channel = query, bulk
            self._batcher = _QueryBatcher(query)
        for channel in stale:
            channel.close()

    def _channels(self) -> tuple[PipelinedClient, PipelinedClient, _QueryBatcher]:
        with self._mutex:
            return self._query_channel, self._bulk_channel, self._batcher

    def _await(self, future: Future):
        try:
            return future.result(timeout=self.timeout)
        except FutureTimeoutError:
            raise ConnectionError(f"no shard response within {self.timeout}s") from None

    def call(self, name: str, *args):
        """One op over the row's channel, wire errors translated back."""
        query_channel, bulk_channel, _ = self._channels()
        channel = bulk_channel if OPS[name].channel == "bulk" else query_channel
        try:
            return channel.call(name, *args)
        except WireError as error:
            _raise_wire_error(error)

    def workers(self) -> list[tuple[dict, "ProcessShard"]]:
        return [({"role": "primary"}, self)]

    def execute(self, sql: str):
        span = tracing.current_span()
        if span is not None and span.propagate:
            # A client-traced query bypasses the batcher: the single-query
            # frame carries the trace trailer, so the worker records its
            # span under the same trace id.  Untraced queries (the hot
            # path) keep coalescing into batch frames.
            query_channel, _, _ = self._channels()
            trace = (bytes.fromhex(span.trace_id), bytes.fromhex(span.span_id))
            try:
                payload = query_channel.call("query", sql, trace=trace)
            except WireError as error:
                _raise_wire_error(error)
            return self._normalize(payload)
        _, _, batcher = self._channels()
        item = self._await(batcher.submit(sql))
        if not item["ok"]:
            _raise_wire_error(WireError(str(item["error_type"]), str(item["error"])))
        return self._normalize(item["result"])

    @staticmethod
    def _normalize(payload: dict):
        if "groups" in payload:
            return "groups", {
                label: [from_wire(r) for r in results]
                for label, results in payload["groups"].items()
            }
        return "scalar", [from_wire(r) for r in payload["results"]]

    def close(self) -> None:
        with self._mutex:
            self._generation += 1
            channels = (self._query_channel, self._bulk_channel)
        for channel in channels:
            channel.close()


class ReplicatedShard:
    """One logical shard backed by a primary plus read replicas.

    Queries round-robin across the primary and every *eligible* replica —
    a replica is eligible while its worker reports the replica role and
    its applied LSN trails the primary's durable LSN by at most
    ``max_lag_records`` (the bounded-staleness knob).  Eligibility is
    refreshed at most every ``refresh_interval`` seconds by whichever
    query thread gets there first; any failure on a replica read demotes
    it on the spot and the query retries on the primary, so replica
    trouble costs latency, never an error.

    Everything with write or authority semantics — ingest, register,
    drop, checkpoint, persist, stat — goes to the primary only (the op
    table's ``replicas`` column says which is which).
    """

    def __init__(
        self,
        index: int,
        primary: ProcessShard,
        replicas: dict[int, ProcessShard] | None = None,
        max_lag_records: int = 256,
        refresh_interval: float = 0.25,
    ) -> None:
        self.index = index
        self.primary = primary
        self.replicas: dict[int, ProcessShard] = dict(replicas or {})
        self.max_lag_records = max_lag_records
        self.refresh_interval = refresh_interval
        self._mutex = threading.Lock()
        self._refresh_mutex = threading.Lock()
        self._eligible: tuple[int, ...] = ()
        self._next_refresh = 0.0
        self._rr = 0
        self._generation = 0

    # ------------------------------------------------------------------ #
    # Topology

    @property
    def generation(self) -> int:
        """Bumped by reconnect and promotion; revival logic uses it to
        detect that another caller already revived the shard."""
        return self._generation

    def replica_slots(self) -> list[int]:
        with self._mutex:
            return sorted(self.replicas)

    def eligible_slots(self) -> list[int]:
        """Replica slots currently in the read set (within the lag bound)."""
        with self._mutex:
            return sorted(self._eligible)

    def attach_replica(self, slot: int, shard: ProcessShard) -> None:
        """Install (or replace) the replica at ``slot``."""
        with self._mutex:
            old = self.replicas.get(slot)
            self.replicas[slot] = shard
            self._eligible = tuple(s for s in self._eligible if s != slot)
        if old is not None and old is not shard:
            old.close()

    def swap_primary(self, slot: int) -> ProcessShard:
        """Make the (already promoted) replica at ``slot`` the primary.

        Returns the deposed primary's shard, which the caller owns —
        its process is usually already dead.
        """
        with self._mutex:
            promoted = self.replicas.pop(slot)
            deposed, self.primary = self.primary, promoted
            self._eligible = ()
            self._generation += 1
        return deposed

    def reconnect(self, port: int | None = None) -> None:
        self.primary.reconnect(port)
        with self._mutex:
            self._generation += 1

    # ------------------------------------------------------------------ #
    # Staleness-bounded read routing

    def _refresh_eligible(self) -> None:
        """Re-derive the eligible replica set from worker statuses."""
        try:
            durable = int(self.primary.call("status").get("durable_lsn", 0))
        except Exception:
            return  # primary trouble is the revival path's problem
        with self._mutex:
            replicas = dict(self.replicas)
        eligible = []
        shard_label = f"{self.index:05d}"
        for slot, shard in sorted(replicas.items()):
            try:
                status = shard.call("status")
            except Exception:
                try:
                    shard.reconnect()
                    status = shard.call("status")
                except Exception:
                    _REPLICA_ELIGIBLE.set(0, shard=shard_label, slot=str(slot))
                    continue
            if status.get("role") != "replica":
                _REPLICA_ELIGIBLE.set(0, shard=shard_label, slot=str(slot))
                continue
            applied = int(status.get("applied_lsn", 0))
            _REPLICA_READ_LAG.set(
                durable - applied, shard=shard_label, slot=str(slot)
            )
            if durable - applied <= self.max_lag_records:
                eligible.append(slot)
            _REPLICA_ELIGIBLE.set(
                1 if slot in eligible else 0, shard=shard_label, slot=str(slot)
            )
        with self._mutex:
            self._eligible = tuple(s for s in eligible if s in self.replicas)

    def _maybe_refresh(self) -> None:
        now = time.monotonic()
        if now < self._next_refresh:
            return
        if not self._refresh_mutex.acquire(blocking=False):
            return  # someone else is already paying for the refresh
        try:
            if time.monotonic() < self._next_refresh:
                return
            self._refresh_eligible()
            self._next_refresh = time.monotonic() + self.refresh_interval
        finally:
            self._refresh_mutex.release()

    def _pick(self) -> tuple[int | None, ProcessShard]:
        with self._mutex:
            candidates: list[tuple[int | None, ProcessShard]] = [(None, self.primary)]
            candidates += [
                (slot, self.replicas[slot])
                for slot in self._eligible
                if slot in self.replicas
            ]
            self._rr += 1
            return candidates[self._rr % len(candidates)]

    def _demote(self, slot: int) -> None:
        with self._mutex:
            self._eligible = tuple(s for s in self._eligible if s != slot)

    def _read(self, fn):
        """``fn(worker)`` on the primary or an eligible replica."""
        self._maybe_refresh()
        slot, shard = self._pick()
        if slot is None:
            return fn(self.primary)
        try:
            return fn(shard)
        except Exception:
            # Deterministic errors re-raise identically from the primary;
            # replica-only trouble (lag, restart, promotion) is absorbed.
            self._demote(slot)
            return fn(self.primary)

    def execute(self, sql: str):
        return self._read(lambda worker: worker.execute(sql))

    def call(self, name: str, *args):
        """Route by the row's ``replicas`` column: ``any`` reads spread
        over the eligible replicas, everything else asks the primary
        (``all`` rows are fanned out by the front end over :meth:`workers`)."""
        if OPS[name].replicas == "any":
            return self._read(lambda worker: worker.call(name, *args))
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
            self._eligible = ()
        for shard in shards:
            shard.close()
