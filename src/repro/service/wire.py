"""The wire client of :class:`~repro.service.server.QueryServer`.

:class:`PipelinedClient` is the blocking binary-protocol client
(:mod:`repro.service.framing`): many requests in flight per connection,
and a background reader thread matches response frames to requests by
id.  It answers ``client.<name>(*args)`` for every row of the op table
(:mod:`repro.service.ops`) — the row builds the request and unwraps the
reply, so the client does not list the ops.  The cluster front end
(:mod:`repro.cluster`) multiplexes its scatters over it.
"""

from __future__ import annotations

import socket
import threading
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError

from . import framing
from .ops import OPS, stubs


class WireError(RuntimeError):
    """A ``STATUS_ERROR`` response frame, surfaced as an exception."""

    def __init__(self, error_type: str, message: str) -> None:
        super().__init__(f"{error_type}: {message}")
        self.error_type = error_type
        self.message = message


class OverloadedError(WireError):
    """The server shed this request at admission (``STATUS_OVERLOADED``).

    The request was refused *before* any work started, so retrying later
    is always safe — including for ingest.
    """


class UnsentRequestError(ConnectionError):
    """The connection failed before the request hit the socket.

    The server definitely never saw the request, so retrying it (on a
    fresh connection) cannot double-apply anything — the distinction a
    non-idempotent caller (ingest) needs.  A failure *after* the send is
    a plain :class:`ConnectionError`: the server may or may not have
    applied the request.
    """


# --------------------------------------------------------------------------- #
# Pipelined binary client


@stubs
class PipelinedClient:
    """Blocking binary-protocol client with true pipelining.

    :meth:`submit` writes one frame and returns a
    :class:`~concurrent.futures.Future` immediately — many requests ride
    one connection concurrently, and a background reader thread resolves
    each future as its response frame arrives (responses may come back in
    any order; they are matched by request id).  ``client.<op>(...)`` and
    :meth:`call` simply wait on their own future.

    A failure *before* the frame hits the socket raises
    :class:`UnsentRequestError` (safe to retry verbatim); a connection
    failure afterwards fails the future with a plain
    :class:`ConnectionError` (the server may have applied the request).
    Error frames raise :class:`WireError`; admission-shed frames raise
    :class:`OverloadedError`.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float | None = 30.0,
        line_limit: int = framing.DEFAULT_LINE_LIMIT,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.line_limit = line_limit
        self._sock: socket.socket | None = None
        self._rfile = None
        self._reader: threading.Thread | None = None
        self._send_lock = threading.Lock()
        self._pending_lock = threading.Lock()
        #: request id → (future, reply payload decoder)
        self._pending: dict[int, tuple[Future, object]] = {}
        self._next_id = 0
        self._closed = False
        #: Set (under ``_pending_lock``) when the reader thread dies; any
        #: later submit must refuse instead of writing into a socket whose
        #: responses nobody will ever read.
        self._dead_exc: Exception | None = None

    # ------------------------------------------------------------------ #
    # Lifecycle

    def connect(self) -> "PipelinedClient":
        sock = socket.create_connection((self.host, self.port), timeout=self.timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        # The connect timeout must not apply to the reader's blocking
        # read — an idle connection is not an error.  Per-request
        # timeouts are enforced on the futures instead.
        sock.settimeout(None)
        sock.sendall(framing.MAGIC)
        self._sock = sock
        self._rfile = sock.makefile("rb")
        self._closed = False
        self._dead_exc = None
        self._reader = threading.Thread(
            target=self._read_loop, name="aqp-pipeline-reader", daemon=True
        )
        self._reader.start()
        return self

    def close(self) -> None:
        self._closed = True
        sock, rfile, reader = self._sock, self._rfile, self._reader
        self._sock = self._rfile = self._reader = None
        if sock is not None:
            # Unblock the reader thread *before* closing the buffered
            # file: rfile.close() needs the buffer lock the reader holds
            # while blocked in readinto(), so closing it first deadlocks.
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        if reader is not None and reader is not threading.current_thread():
            reader.join(timeout=1.0)
        for closable in (rfile, sock):
            if closable is not None:
                try:
                    closable.close()
                except OSError:
                    pass
        self._fail_pending(ConnectionError("client closed"))

    @property
    def connected(self) -> bool:
        return self._sock is not None and not self._closed

    def __enter__(self) -> "PipelinedClient":
        return self.connect()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Frame plumbing

    def _submit(
        self,
        opcode: int,
        payload: bytes,
        decode,
        trace: tuple[bytes, bytes] | None = None,
    ) -> Future:
        """Write one request frame; its future resolves with
        ``decode(response payload)``.

        ``trace=(trace_id16, span_id8)`` appends the trace trailer so the
        server joins this request to an existing trace.
        """
        future: Future = Future()
        with self._send_lock:
            sock = self._sock
            if sock is None or self._closed:
                raise UnsentRequestError("client is not connected")
            self._next_id += 1
            request_id = self._next_id
            # Register before sending so a same-thread-fast response can
            # never race past its pending entry.  The dead-reader check
            # shares the lock with _fail_pending, so either this entry is
            # registered before the reader's drain (and gets failed by
            # it), or the death is observed here — a future can never be
            # orphaned between a dead reader and a successful send.
            with self._pending_lock:
                if self._dead_exc is not None:
                    raise UnsentRequestError(
                        f"wire reader died: {self._dead_exc}"
                    ) from self._dead_exc
                self._pending[request_id] = (future, decode)
            try:
                sock.sendall(framing.encode_frame(opcode, request_id, payload, trace))
            except OSError as exc:
                with self._pending_lock:
                    self._pending.pop(request_id, None)
                raise UnsentRequestError(f"wire send failed: {exc}") from exc
        return future

    def _read_loop(self) -> None:
        rfile = self._rfile
        try:
            while True:
                header = rfile.read(framing.HEADER_SIZE)
                if len(header) < framing.HEADER_SIZE:
                    raise ConnectionError("server closed the connection")
                status, request_id, payload_len = framing.decode_header(header)
                if payload_len > self.line_limit:
                    raise ConnectionError(
                        f"response frame of {payload_len} bytes exceeds the "
                        f"{self.line_limit} byte limit"
                    )
                payload = rfile.read(payload_len) if payload_len else b""
                if len(payload) < payload_len:
                    raise ConnectionError("server closed the connection mid-frame")
                with self._pending_lock:
                    entry = self._pending.pop(request_id, None)
                if entry is None:
                    continue  # e.g. a duplicate/late frame; nobody waits on it
                future, decode = entry
                if status == framing.STATUS_OK:
                    try:
                        result = decode(payload)
                    except Exception as exc:
                        future.set_exception(exc)
                    else:
                        future.set_result(result)
                else:
                    error_type, message = framing.decode_error(payload)
                    cls = (
                        OverloadedError
                        if status == framing.STATUS_OVERLOADED
                        else WireError
                    )
                    future.set_exception(cls(error_type, message))
        except Exception as exc:
            if not isinstance(exc, ConnectionError):
                exc = ConnectionError(f"wire reader failed: {exc}")
            self._fail_pending(exc)

    def _fail_pending(self, exc: Exception) -> None:
        with self._pending_lock:
            self._dead_exc = exc
            pending = list(self._pending.values())
            self._pending.clear()
        for future, _ in pending:
            if not future.done():
                future.set_exception(exc)

    # ------------------------------------------------------------------ #
    # Ops

    def submit(
        self, name: str, *args, trace: tuple[bytes, bytes] | None = None, **kwargs
    ) -> Future:
        """Send op ``name``; the future resolves with what ``client.<name>``
        returns.  The op's fast-path frame is used when its arguments fit
        one, the JSON request object in an ``OP_JSON`` frame otherwise;
        ``trace`` rides the frame trailer either way."""
        op = OPS[name]
        opcode, decode, payload = framing.OP_JSON, framing.decode_json, None
        if op.binary is not None:
            payload = op.binary.encode_request(*args, **kwargs)
            if payload is not None:
                opcode, decode = op.binary.opcode, op.binary.decode_reply
        if payload is None:
            payload = framing.encode_json(op.build_request(*args, **kwargs))
        return self._submit(
            opcode, payload, lambda reply: op.unwrap(decode(reply)), trace
        )

    def submit_query(
        self, sql: str, trace: tuple[bytes, bytes] | None = None
    ) -> Future:
        """The hot path spelled out: future of a decoded result payload."""
        return self._submit(
            framing.OP_QUERY, framing.encode_query(sql), framing.decode_result, trace
        )

    def call(self, name: str, *args, **kwargs):
        """Send op ``name`` and wait for its (unwrapped) reply."""
        future = self.submit(name, *args, **kwargs)
        try:
            return future.result(timeout=self.timeout)
        except FutureTimeoutError:
            # The request was sent; whether the server applied it is
            # unknown — the ambiguous-outcome error, like a mid-flight
            # connection loss.
            raise ConnectionError(
                f"no response within {self.timeout}s"
            ) from None
