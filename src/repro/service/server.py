"""Asyncio front end and TCP server for the query service.

:class:`AsyncFacade` is the coroutine face of a synchronous service:
calls hop onto a bounded thread-pool executor, so the event loop stays
responsive while hundreds of dashboard clients multiplex onto a handful
of worker threads.  :class:`AsyncQueryService` adds what a single node
needs on top.  A query its result cache already holds is answered on the
event loop (:meth:`QueryService.cached` is a few dict lookups), and only
misses hop.  Ingests coalesce: each table gets an ingest queue whose
drain task batches everything pending into a single tail-partition
recompression, amortising the synopsis rebuild across writers (the
paper's bounded-cost update, amortised once more).

:class:`QueryServer` puts a TCP protocol in front of it
(``asyncio.start_server``).  **The** protocol is the length-prefixed
binary pipelined one (:mod:`repro.service.framing`): many in-flight
requests per connection, responses matched by request id, binary row and
result payloads for the hot ops and a JSON request object tunnelled in an
``OP_JSON`` frame for the rest.  A connection that does not open with the
binary magic is served by a small newline-delimited-JSON shim in front
of the same dispatcher, handy for ``nc`` and scripts:

    → {"op": "query",  "sql": "SELECT AVG(x) FROM t WHERE y > 3"}
    ← {"ok": true, "result": {"results": [{"value": ..., ...}]}}

The ops themselves — names, validation, handlers, reply encodings — are
the rows of :mod:`repro.service.ops`; this module only moves them.
Errors come back as ``{"ok": false, "error": ..., "error_type": ...}``
(JSON) or a ``STATUS_ERROR`` frame (binary) — never as a dropped
connection or a stack trace.

The server also applies **admission control**: in-flight queries and
ingests are counted against bounded limits, and work beyond them is shed
immediately with an explicit ``Overloaded`` error frame
(``STATUS_OVERLOADED`` in binary) instead of queueing without bound —
the service degrades gracefully at overload rather than collapsing.

Run it as a process with ``python -m repro.service --data-dir
/var/lib/aqp`` (:mod:`repro.service.cli`).
"""

from __future__ import annotations

import asyncio
import contextvars
import json
import socket
import struct
import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial

from ..data.table import Table
from ..obs import metrics as obs_metrics
from ..obs import tracing
from ..storage.faults import maybe_crash
from . import framing, ops
from .database import QueryService
from .ops import encode_result  # noqa: F401  (part of this module's surface)

#: Coalesce at most this many rows into one batched tail recompression.
DEFAULT_MAX_BATCH_ROWS = 65_536

#: How long the ingest coalescer keeps a batch open after the first append
#: arrives (seconds).  0 keeps the legacy behaviour: batch only what is
#: already queued.
DEFAULT_MAX_BATCH_DELAY = 0.0

#: Admission-control defaults: in-flight requests past these limits are
#: shed with an explicit ``Overloaded`` response instead of queueing.
#: ``None`` disables a limit.  One batch frame counts as one query slot.
DEFAULT_MAX_INFLIGHT_QUERIES = 256
DEFAULT_MAX_INFLIGHT_INGESTS = 64

#: Result-cache hits one binary connection's read loop answers back to
#: back before it yields to the event loop, so a client pipelining
#: thousands of hits cannot hold the loop from every other connection.
INLINE_ANSWERS_PER_YIELD = 64

_REQUEST_LATENCY = obs_metrics.histogram(
    "aqp_request_latency_seconds",
    "Wall time serving one admitted request, by admission class.",
    labelnames=("kind",),
)
_REQUESTS_SHED = obs_metrics.counter(
    "aqp_requests_shed_total",
    "Requests refused at admission control, by admission class.",
    labelnames=("kind",),
)

# Pre-bound label cells: the per-request path must not pay kwargs/label
# resolution (see Counter.labels / Histogram.labels).
_LATENCY_CELLS = {
    kind: _REQUEST_LATENCY.labels(kind=kind) for kind in ("query", "ingest")
}
_SHED_CELLS = {
    kind: _REQUESTS_SHED.labels(kind=kind) for kind in ("query", "ingest")
}


class AsyncFacade:
    """Coroutine face of a synchronous service (single-node or cluster).

    :meth:`call` runs an op-table row's handler against the wrapped
    service on a bounded executor — the one executor hop every async face
    shares.  This face has no result cache of its own (a cluster front
    end's caches live in its workers), so every call hops;
    :class:`AsyncQueryService` answers cache hits without it.  Use as an
    async context manager (or call :meth:`close`) so the executor shuts
    down cleanly.
    """

    def __init__(self, inner, max_workers: int = 4) -> None:
        self.inner = inner
        self._executor = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="aqp-worker"
        )
        self._closed = False

    async def __aenter__(self):
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    async def close(self) -> None:
        self._closed = True
        # Waiting for in-flight executor work can take as long as a synopsis
        # rebuild; do it off the event loop so other tasks keep running.
        await asyncio.get_running_loop().run_in_executor(
            None, partial(self._executor.shutdown, wait=True)
        )

    async def _dispatch(self, fn, *args, **kwargs):
        if self._closed:
            raise RuntimeError("the async query service is closed")
        loop = asyncio.get_running_loop()
        # run_in_executor does not carry contextvars into the worker
        # thread; copy the caller's context so the active trace span (if
        # any) is visible to the service's child spans.  Untraced requests
        # skip the copy — it costs about a microsecond per call.
        if tracing.current_span() is not None:
            call = partial(
                contextvars.copy_context().run, partial(fn, *args, **kwargs)
            )
        else:
            call = partial(fn, *args, **kwargs)
        return await loop.run_in_executor(self._executor, call)

    def call(self, op: ops.Op, *args):
        """Awaitable: one op-table row's handler against the wrapped service."""
        return self._dispatch(op.handler, self.inner, *args)

    def cached(self, sql, scalar: bool = False):
        """An answer to serve on the event loop without the hop, or
        ``None``: this face has none, so every query hops."""
        return None


class AsyncQueryService(AsyncFacade):
    """Coroutine face of a :class:`~repro.service.database.QueryService`.

    ``query`` / ``query_scalar`` (and the ``query`` op row) answer a
    result-cache hit on the event loop (:meth:`cached`) and dispatch only
    misses to the bounded executor, as ``register_table`` and every other
    op row are; ``ingest`` goes through a per-table coalescing queue
    unless ``coalesce=False`` (and ``drop_table`` retires that queue).
    """

    def __init__(
        self,
        service: QueryService | None = None,
        max_workers: int = 4,
        max_batch_rows: int = DEFAULT_MAX_BATCH_ROWS,
        max_batch_delay: float = DEFAULT_MAX_BATCH_DELAY,
        **service_kwargs,
    ) -> None:
        if service is not None and service_kwargs:
            raise ValueError("pass either a service or its constructor arguments")
        super().__init__(service or QueryService(**service_kwargs), max_workers)
        self.service = self.inner
        self.max_batch_rows = max_batch_rows
        self.max_batch_delay = max_batch_delay
        self._ingest_queues: dict[str, asyncio.Queue] = {}
        self._drain_tasks: dict[str, asyncio.Task] = {}
        #: Ops this face answers itself instead of hopping the row's handler.
        self._own_ops = {"query": self.query, "ingest": self.ingest, "drop": self._drop}

    async def close(self) -> None:
        """Cancel drain tasks, fail queued ingests and release the executor."""
        if self._closed:
            return
        self._closed = True  # refuse new work before draining what is queued
        for table_name in list(self._drain_tasks):
            await self._retire_queue(table_name)
        await super().close()

    def call(self, op: ops.Op, *args):
        own = self._own_ops.get(op.name)
        if own is not None:
            return own(*args)
        return self._dispatch(op.handler, self.inner, *args)

    def cached(self, sql, scalar: bool = False):
        """The result cache's answer to ``sql`` (see
        :meth:`QueryService.cached`), or ``None`` on a miss or once closed."""
        return None if self._closed else self.service.cached(sql, scalar)

    async def query(self, query):
        """Execute a query (list of results, or a dict for GROUP BY)."""
        result = self.cached(query)
        if result is None:
            result = await self._dispatch(self.service.execute, query)
        return result

    async def query_scalar(self, query):
        """Execute a non-GROUP BY query, returning the first aggregation."""
        result = self.cached(query, scalar=True)
        if result is None:
            result = await self._dispatch(self.service.execute_scalar, query)
        return result

    def register_table(self, table: Table, params=None, partition_size=None):
        return self._dispatch(
            self.service.register_table, table, params, partition_size
        )

    async def ingest(self, table_name: str, rows: Table, coalesce: bool = True):
        """Append rows; small concurrent appends coalesce into one rebuild.

        All callers whose rows land in the same drained batch share a
        single :class:`IngestResult` (one tail recompression).  Validation
        errors (unknown table, schema mismatch) raise immediately in the
        caller, before anything is enqueued, so one bad writer cannot
        poison a batch.
        """
        if self._closed:
            raise RuntimeError("the async query service is closed")
        self.service.database.validate_ingest(table_name, rows)
        if not coalesce:
            return await self._dispatch(self.service.ingest, table_name, rows)
        queue = self._queue_for(table_name)
        future = asyncio.get_running_loop().create_future()
        queue.put_nowait((rows, future))
        return await future

    @property
    def table_names(self) -> list[str]:
        return self.service.table_names

    async def drop_table(self, table_name: str) -> None:
        """Drop a table, retiring its coalescing queue and drain task.

        Without this cleanup, every register/ingest/drop cycle under a new
        name would leak a parked drain task and its queue until close().
        Queued-but-undrained ingests for the table are cancelled.
        """
        if self._closed:
            raise RuntimeError("the async query service is closed")
        await self._retire_queue(table_name)
        await self._dispatch(self.service.drop_table, table_name)
        # An ingest that passed validation while the drop was in flight may
        # have recreated the queue; now that the catalog entry is gone no
        # further ingest can, so one more retirement closes the race (the
        # validate-and-enqueue step is atomic on the event loop).
        await self._retire_queue(table_name)

    async def _drop(self, table_name: str) -> dict:
        await self.drop_table(table_name)
        return {"table": table_name, "dropped": True}

    async def _retire_queue(self, table_name: str) -> None:
        task = self._drain_tasks.pop(table_name, None)
        queue = self._ingest_queues.pop(table_name, None)
        if task is not None:
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
        # Anything still sitting in the queue was never dequeued by the
        # drain task; cancel those futures so their callers don't hang.
        if queue is not None:
            while not queue.empty():
                _, future = queue.get_nowait()
                if not future.done():
                    future.cancel()

    # ------------------------------------------------------------------ #
    # Ingest coalescing

    def _queue_for(self, table_name: str) -> asyncio.Queue:
        if table_name not in self._ingest_queues:
            self._ingest_queues[table_name] = asyncio.Queue()
            self._drain_tasks[table_name] = asyncio.ensure_future(
                self._drain(table_name)
            )
        return self._ingest_queues[table_name]

    async def _drain(self, table_name: str) -> None:
        """Per-table drain loop: batch whatever is pending, ingest once.

        With ``max_batch_delay > 0`` the batch stays open that long after
        its first append arrives, so writers landing within the window
        share one tail recompression even when they don't overlap a
        rebuild; the timer bounds how long a lone small append can wait.
        ``max_batch_rows`` caps the batch regardless of the timer.
        """
        queue = self._ingest_queues[table_name]
        loop = asyncio.get_running_loop()
        carried: tuple | None = None  # dequeued but over-budget for the last batch
        while True:
            rows, future = carried if carried is not None else await queue.get()
            carried = None
            parts = [rows]
            batch_rows = rows.num_rows
            futures = [future]
            try:
                if self.max_batch_delay > 0:
                    deadline = loop.time() + self.max_batch_delay
                    while batch_rows < self.max_batch_rows and carried is None:
                        remaining = deadline - loop.time()
                        if remaining <= 0:
                            break
                        try:
                            more_rows, more_future = await asyncio.wait_for(
                                queue.get(), timeout=remaining
                            )
                        except asyncio.TimeoutError:
                            break
                        if batch_rows + more_rows.num_rows > self.max_batch_rows:
                            carried = (more_rows, more_future)
                        else:
                            parts.append(more_rows)
                            batch_rows += more_rows.num_rows
                            futures.append(more_future)
                while carried is None and not queue.empty():
                    more_rows, more_future = queue.get_nowait()
                    if batch_rows + more_rows.num_rows > self.max_batch_rows:
                        carried = (more_rows, more_future)
                        break
                    parts.append(more_rows)
                    batch_rows += more_rows.num_rows
                    futures.append(more_future)
                rows = Table.concat_all(parts)
                result = await self._dispatch(self.service.ingest, table_name, rows)
            except asyncio.CancelledError:
                if carried is not None and not carried[1].done():
                    carried[1].cancel()
                for f in futures:
                    if not f.done():
                        f.cancel()
                raise
            except Exception as exc:
                for f in futures:
                    if not f.done():
                        f.set_exception(exc)
            else:
                for f in futures:
                    if not f.done():
                        f.set_result(result)


def _error_frame(request_id: int, exc: BaseException) -> bytes:
    fields = ops.error_fields(exc)
    return framing.encode_frame(
        framing.STATUS_ERROR,
        request_id,
        framing.encode_error(fields["error_type"], fields["error"]),
    )


class QueryServer:
    """TCP server over an :class:`AsyncFacade`, one dispatcher for every op.

    Each connection is sniffed: the :data:`~repro.service.framing.MAGIC`
    preamble selects the binary pipelined protocol, anything else the
    JSON-lines shim (see the module docstring).

    >>> server = QueryServer(async_service)          # doctest: +SKIP
    >>> await server.start()                         # doctest: +SKIP
    >>> host, port = server.address                  # doctest: +SKIP
    """

    def __init__(
        self,
        service: AsyncFacade,
        host: str = "127.0.0.1",
        port: int = 0,
        line_limit: int = framing.DEFAULT_LINE_LIMIT,
        max_inflight_queries: int | None = DEFAULT_MAX_INFLIGHT_QUERIES,
        max_inflight_ingests: int | None = DEFAULT_MAX_INFLIGHT_INGESTS,
        replication=None,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.line_limit = line_limit
        self.max_inflight_queries = max_inflight_queries
        self.max_inflight_ingests = max_inflight_ingests
        #: Optional :class:`repro.replication.ReplicationState`: which
        #: replication role this process plays (None = no replication;
        #: the ``status`` op then reports role "standalone").
        self.replication = replication
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[asyncio.StreamWriter] = set()
        #: In-flight request counts per admission class (event-loop-local,
        #: so plain ints suffice — no locking).
        self._inflight = {"query": 0, "ingest": 0}
        #: Requests shed with an ``Overloaded`` response, per class.
        self.shed_counts = {"query": 0, "ingest": 0}

    # ------------------------------------------------------------------ #
    # Admission control

    def _limit_for(self, kind: str) -> int | None:
        return (
            self.max_inflight_ingests
            if kind == "ingest"
            else self.max_inflight_queries
        )

    def _admit(self, kind: str) -> bool:
        """Reserve one in-flight slot, or refuse (caller sheds the request)."""
        limit = self._limit_for(kind)
        if limit is not None and self._inflight[kind] >= limit:
            # shed_counts stays the per-server source of truth for the
            # status payload; the registry mirrors it for the metrics op
            # and the /metrics scrape.
            self.shed_counts[kind] += 1
            _SHED_CELLS[kind].inc()
            return False
        self._inflight[kind] += 1
        return True

    def _release(self, kind: str, started: float) -> None:
        _LATENCY_CELLS[kind].observe(time.perf_counter() - started)
        self._inflight[kind] -= 1

    def _overloaded_message(self, kind: str) -> str:
        return (
            f"server is at its in-flight {kind} limit "
            f"({self._limit_for(kind)}); retry later"
        )

    # ------------------------------------------------------------------ #
    # Lifecycle

    async def start(self) -> "QueryServer":
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port, limit=self.line_limit
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    @property
    def address(self) -> tuple[str, int]:
        if self._server is None:
            raise RuntimeError("the server has not been started")
        return self.host, self.port

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            # wait_closed() (Python >= 3.12.1) waits for every connection
            # handler to return, and _handle blocks in readline() until its
            # client hangs up — so close lingering connections ourselves
            # instead of hanging on an idle client.
            for writer in list(self._connections):
                writer.close()
            await self._server.wait_closed()
            self._server = None

    async def __aenter__(self) -> "QueryServer":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # ------------------------------------------------------------------ #
    # The dispatcher

    async def _execute(
        self, op: ops.Op, request: dict | None, payload: bytes = b"", trace=None
    ):
        """Run one admitted request of either dialect; returns the reply body.

        ``request`` is the JSON request object, or ``None`` for a
        fast-path frame whose arguments are in ``payload`` (and whose
        trace ids, if any, came in the frame trailer).
        """
        if op.mutating:
            self._require_writable()
        if request is None:
            args = op.binary.decode_request(payload)
            if trace is not None:
                trace = (trace[0].hex(), trace[1].hex())
        else:
            args = op.extract(self.service.inner, request) if op.extract else ()
            trace = self._trace_from_request(request)
        if op.serve is not None:
            result = await op.serve(self, args, trace)
        else:
            result = await self.service.call(op, *args)
        if op.mutating:
            await self._commit_gate()
            if op.before_ack is not None:
                maybe_crash(op.before_ack)
        return op.encode(result)

    def _require_writable(self) -> None:
        """Reject external mutations on a replica (the apply loop
        bypasses the wire entirely, so it is unaffected)."""
        rep = self.replication
        if rep is not None and rep.role == "replica":
            upstream = (
                rep.follower.status["upstream"] if rep.follower is not None else "?"
            )
            raise ValueError(
                f"this worker is a read-only replica (following {upstream}); "
                "send writes to the primary"
            )

    async def _commit_gate(self) -> None:
        """Between committing a mutation and acknowledging it: re-check the
        epoch fence, then wait for the semi-synchronous replication barrier.

        The order matters — a fenced zombie must not ack even a mutation
        its followers already replicated, because the new primary's history
        may be about to diverge from it.
        """
        rep = self.replication
        if rep is None:
            return
        if rep.epoch_file is not None:
            from ..replication.fence import check_fence

            check_fence(rep.epoch_file, rep.epoch)
        hub = rep.hub
        if hub is not None and hub.ack_replicas > 0:
            lsn = hub.database.wal.last_lsn
            if not await hub.wait_replicated(lsn):
                raise RuntimeError(
                    f"replication barrier timed out: lsn {lsn} was not "
                    f"acknowledged by {hub.ack_replicas} follower(s); the "
                    "mutation is durable locally but deliberately "
                    "unacknowledged — retry"
                )

    def _query_attrs(self, sql) -> dict:
        rep = self.replication
        return {
            "sql": sql if isinstance(sql, str) and len(sql) <= 200 else str(sql)[:200],
            "server_role": rep.role if rep is not None else "standalone",
        }

    def query_span(
        self, sql, trace: tuple[str, str] | None, since: float | None = None
    ):
        """Root span for one query request.

        When the client supplied trace ids (binary trailer / JSON
        ``"trace"`` key) the span adopts them and is marked for wire
        propagation, so a cluster front end forwards the trace to its
        shard workers and a worker joins its parse/cache spans to the
        caller's tree.  Untraced requests take the span-free
        :func:`~repro.obs.tracing.slow_watch` path: no span tree is
        built unless the query crosses the slow-query threshold, in
        which case a completed root span is synthesised for the log and
        the ring buffer; ``since`` backdates that watch.
        """
        if trace is not None:
            return tracing.root_span(
                "query",
                trace_id=trace[0],
                parent_id=trace[1],
                attrs=self._query_attrs(sql),
            )
        return tracing.slow_watch("query", lambda: self._query_attrs(sql), since)

    # ------------------------------------------------------------------ #
    # Connections

    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self._connections.add(writer)
        sock = writer.get_extra_info("socket")
        if sock is not None:
            # Small request/response frames + Nagle's algorithm = up to
            # ~40 ms artificial stalls; this workload is exactly that.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            # Negotiation sniff: binary clients lead with the 4-byte magic,
            # JSON-lines requests start with '{'.  Read one byte at a time
            # so a degenerate short first line (e.g. "{}\n") can never
            # stall the sniff waiting for a fourth byte.
            preamble = b""
            while len(preamble) < len(framing.MAGIC):
                byte = await reader.read(1)
                if not byte:
                    return
                preamble += byte
                if preamble == framing.MAGIC[: len(preamble)]:
                    continue
                break
            if preamble == framing.MAGIC:
                await self._serve_binary(reader, writer)
            else:
                await self._serve_json(reader, writer, first=preamble)
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        finally:
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    # ---- JSON-lines shim: one request object per line, one reply per line

    async def _serve_json(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        first: bytes = b"",
    ) -> None:
        """``first`` is whatever the negotiation sniff consumed; if it
        already ends the first line, that request is served before reading
        again — blocking in ``readline()`` first would deadlock a client
        awaiting its first response."""
        pending = first
        while True:
            if pending.endswith(b"\n"):
                line, pending = pending, b""
            else:
                try:
                    rest = await reader.readline()
                except ValueError as exc:
                    # Line exceeded the buffer limit; the stream cannot be
                    # re-synchronised, so answer with an error frame and
                    # drop this connection only.
                    refusal = {"ok": False, **ops.error_fields(exc)}
                    writer.write(json.dumps(refusal).encode("utf-8") + b"\n")
                    await writer.drain()
                    break
                if not rest:
                    break
                line, pending = pending + rest, b""
                if not line.endswith(b"\n"):
                    break  # EOF mid-line
            response = await self._respond(line)
            writer.write(json.dumps(response).encode("utf-8") + b"\n")
            await writer.drain()

    async def _respond(self, line: bytes) -> dict:
        try:
            request = json.loads(line)
            op = ops.lookup(request)
        except ValueError as exc:  # includes JSONDecodeError
            return {"ok": False, **ops.error_fields(exc)}
        if not self._admit(op.kind):
            return {
                "ok": False,
                "error": self._overloaded_message(op.kind),
                "error_type": framing.OVERLOADED_ERROR_TYPE,
            }
        started = time.perf_counter()
        try:
            return {"ok": True, "result": await self._execute(op, request)}
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            # The documented contract: errors are frames, never dropped
            # connections or stack traces (e.g. a query racing close()).
            return {"ok": False, **ops.error_fields(exc)}
        finally:
            self._release(op.kind, started)

    @staticmethod
    def _trace_from_request(request: dict) -> tuple[str, str] | None:
        """(trace_id, span_id) from a request's ``"trace"`` key, if sane."""
        trace = request.get("trace")
        if isinstance(trace, dict):
            ids = (trace.get("trace_id"), trace.get("span_id"))
            if isinstance(ids[0], str) and isinstance(ids[1], str):
                return ids
        return None

    # ---- binary pipelined protocol

    async def _serve_binary(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """The pipelined binary loop: frames admitted in order, answers by id.

        Frames are admitted (or shed) synchronously in arrival order.  An
        untraced ``OP_QUERY`` the result cache holds is answered right
        here (:meth:`_answer_cached`); every other frame becomes a task
        and runs concurrently.  Each response is written as a single
        ``write()`` as soon as its work completes, in whatever order that
        happens — clients match responses to requests by id.  The loop
        yields every :data:`INLINE_ANSWERS_PER_YIELD` inline answers and
        waits for the transport to drain past its high-water mark, so a
        client that pipelines hits without reading holds neither the
        event loop nor unbounded reply memory.
        """
        tasks: set[asyncio.Task] = set()
        #: follower_id of the subscription (if any) living on this
        #: connection — OP_WAL_ACK frames carry only an LSN and are
        #: attributed to it.
        subscriber_id: str | None = None
        high_water = writer.transport.get_write_buffer_limits()[1]
        inline = 0

        def spawn(coroutine) -> None:
            task = asyncio.ensure_future(coroutine)
            tasks.add(task)
            task.add_done_callback(tasks.discard)

        try:
            while True:
                try:
                    header = await reader.readexactly(framing.HEADER_SIZE)
                except asyncio.IncompleteReadError:
                    break
                opcode, request_id, payload_len = framing.decode_header(header)
                traced = bool(opcode & framing.TRACE_FLAG)
                opcode &= ~framing.TRACE_FLAG
                if payload_len > self.line_limit:
                    # readexactly() is not bounded by the stream limit the
                    # way readline() is, so enforce it explicitly; the
                    # stream cannot be re-synchronised after refusing.
                    oversized = ValueError(
                        f"frame payload of {payload_len} bytes exceeds "
                        f"the {self.line_limit} byte limit"
                    )
                    writer.write(_error_frame(request_id, oversized))
                    await writer.drain()
                    break
                payload = await reader.readexactly(payload_len)
                trace: tuple[bytes, bytes] | None = None
                if traced:
                    trailer = await reader.readexactly(framing.TRACE_TRAILER_SIZE)
                    trace = framing.decode_trace_trailer(trailer)
                op = ops.BINARY.get(opcode)
                request = None
                try:
                    if op is ops.TUNNEL:
                        request = framing.decode_json(payload)
                        op = ops.lookup(request)
                    elif op is None:
                        if opcode == framing.OP_WAL_ACK:
                            # One-way: no response frame, no admission slot.
                            hub = getattr(self.replication, "hub", None)
                            if subscriber_id is not None and hub is not None:
                                hub.update_ack(
                                    subscriber_id, framing.decode_wal_ack(payload)
                                )
                            continue
                        if opcode == framing.OP_SUBSCRIBE:
                            after_lsn, subscriber_id = framing.decode_subscribe(payload)
                            spawn(
                                self._serve_subscription(
                                    writer, request_id, after_lsn, subscriber_id
                                )
                            )
                            continue
                        raise ValueError(f"unknown binary op {opcode}")
                except (ValueError, struct.error) as exc:
                    # Malformed before admission (bad JSON, unknown op):
                    # an error frame, and the connection carries on.
                    writer.write(_error_frame(request_id, exc))
                    await writer.drain()
                    continue
                if not self._admit(op.kind):
                    writer.write(
                        framing.encode_frame(
                            framing.STATUS_OVERLOADED,
                            request_id,
                            framing.encode_error(
                                framing.OVERLOADED_ERROR_TYPE,
                                self._overloaded_message(op.kind),
                            ),
                        )
                    )
                    await writer.drain()
                    continue
                if (
                    op is ops.QUERY
                    and request is None
                    and trace is None
                    and self._answer_cached(writer, op, request_id, payload)
                ):
                    inline += 1
                    if writer.transport.get_write_buffer_size() > high_water:
                        await writer.drain()
                    elif inline % INLINE_ANSWERS_PER_YIELD == 0:
                        await asyncio.sleep(0)
                    continue
                spawn(self._serve_frame(writer, op, request_id, request, payload, trace))
        finally:
            if tasks:
                for task in tasks:
                    task.cancel()
                await asyncio.gather(*tasks, return_exceptions=True)

    def _answer_cached(
        self, writer: asyncio.StreamWriter, op: ops.Op, request_id: int, payload: bytes
    ) -> bool:
        """Answer an admitted, untraced ``OP_QUERY`` frame from the result
        cache in the read loop: no task, no executor hop.

        The reply, the admission release and the slow-query watch are the
        ones :meth:`_serve_frame` gives the same frame.  Returns ``False``
        on a miss (or a payload that does not decode) with the admission
        slot still held; the frame then takes :meth:`_serve_frame`, which
        reports any error.
        """
        started = time.perf_counter()
        try:
            (sql,) = op.binary.decode_request(payload)
        except (ValueError, struct.error):
            return False
        try:
            result = self.service.cached(sql)
            if result is None:
                return False
            with self.query_span(sql, None, since=started):
                reply = op.binary.encode_reply(op.encode(result))
            frame = framing.encode_frame(framing.STATUS_OK, request_id, reply)
        except Exception as exc:
            frame = _error_frame(request_id, exc)
        writer.write(frame)
        self._release(op.kind, started)
        return True

    async def _serve_frame(
        self,
        writer: asyncio.StreamWriter,
        op: ops.Op,
        request_id: int,
        request: dict | None,
        payload: bytes,
        trace: tuple[bytes, bytes] | None,
    ) -> None:
        """Execute one admitted binary frame and write its response."""
        started = time.perf_counter()
        try:
            try:
                body = await self._execute(op, request, payload, trace)
                if request is None:
                    reply = op.binary.encode_reply(body)
                else:
                    reply = framing.encode_json(body)
                frame = framing.encode_frame(framing.STATUS_OK, request_id, reply)
            except asyncio.CancelledError:
                raise
            except Exception as exc:
                # Same contract as JSON: errors are frames, never dropped
                # connections or stack traces.
                frame = _error_frame(request_id, exc)
            try:
                writer.write(frame)
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError, RuntimeError):
                pass  # client went away; nothing to answer
        finally:
            self._release(op.kind, started)

    async def _serve_subscription(
        self, writer: asyncio.StreamWriter, request_id: int, after_lsn: int, follower_id: str
    ) -> None:
        """Run one replication subscription for the connection's lifetime."""
        rep = self.replication
        try:
            if rep is None or rep.hub is None:
                raise ValueError(
                    "this server does not accept replication subscriptions"
                )
            await rep.hub.stream(writer, request_id, after_lsn, follower_id)
        except asyncio.CancelledError:
            raise
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass  # the follower went away; its grace-period floor remains
        except Exception as exc:
            try:
                writer.write(_error_frame(request_id, exc))
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError, RuntimeError):
                pass
