"""Request tracing: trace/span ids, span trees, and the slow-query log.

A trace is identified by a 16-byte id (32 hex chars) and each span by an
8-byte id (16 hex chars).  The front end opens a **root span** per query
(adopting the client's ids when the request carried a trace trailer /
``"trace"`` key); lower layers open **child spans** that inherit the
current trace through a :mod:`contextvars` variable, which the async
facades copy into their thread pools so spans survive executor hops.

Spans whose trace was supplied by the client are marked ``propagate`` —
the cluster scatter path forwards those ids to shard workers in the
AQP1 frame trailer (see ``framing.TRACE_FLAG``) so the worker's own
parse/cache/execute spans join the same tree, including replica reads.

Finished spans land in a fixed-size ring buffer per process, queryable
by trace id via the ``trace`` wire op.  Completed root spans slower than
``REPRO_SLOW_QUERY_MS`` are emitted as structured JSON lines through
:mod:`repro.obs.log`.

Sampling policy: full span trees are built only for requests that carry
client-supplied trace ids.  Untraced requests take a span-free fast path
(:func:`slow_watch`) that synthesises a completed root span post-hoc
only when the request exceeds the slow-query threshold — so slow
queries are always logged and retrievable, while fast untraced queries
pay essentially nothing.
"""

from __future__ import annotations

import contextvars
import os
import random
import threading
import time
from collections import deque
from contextlib import nullcontext

from . import metrics as _metrics

__all__ = [
    "Span",
    "TRACER",
    "Tracer",
    "child_span",
    "current_span",
    "new_span_id",
    "new_trace_id",
    "root_span",
    "slow_watch",
    "spans_for",
]

TRACE_ID_BYTES = 16
SPAN_ID_BYTES = 8

_current: contextvars.ContextVar["Span | None"] = contextvars.ContextVar(
    "repro_obs_current_span", default=None
)


# Ids need uniqueness, not unpredictability: a Mersenne Twister seeded
# from the OS beats an os.urandom syscall per span on the hot path.
# ``getrandbits`` is a single C call, so it is atomic under the GIL.
_id_source = random.Random(os.urandom(16))
if hasattr(os, "register_at_fork"):  # forked children must not replay ids
    os.register_at_fork(after_in_child=lambda: _id_source.seed(os.urandom(16)))


def new_trace_id() -> str:
    return f"{_id_source.getrandbits(8 * TRACE_ID_BYTES):0{2 * TRACE_ID_BYTES}x}"


def new_span_id() -> str:
    return f"{_id_source.getrandbits(8 * SPAN_ID_BYTES):0{2 * SPAN_ID_BYTES}x}"


class Span:
    """One timed operation inside a trace.

    A span is its own context manager (no generator wrapper — this sits
    on the per-request hot path): entering installs it as the current
    span, exiting stamps the duration, restores the parent, and records
    the finished span in the ring buffer.
    """

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "start",
        "duration",
        "attrs",
        "root",
        "propagate",
        "_t0",
        "_token",
    )

    def __init__(
        self,
        trace_id: str,
        span_id: str,
        parent_id: str | None,
        name: str,
        attrs: dict | None,
        root: bool,
        propagate: bool,
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = time.time()
        self.duration: float | None = None
        self.attrs = dict(attrs) if attrs else {}
        self.root = root
        self.propagate = propagate
        self._t0 = time.perf_counter()
        self._token = None

    def __enter__(self) -> "Span":
        self._token = _current.set(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.duration = time.perf_counter() - self._t0
        _current.reset(self._token)
        TRACER.record(self)

    def set_attr(self, key: str, value) -> None:
        self.attrs[key] = value

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "attrs": dict(self.attrs),
        }


def _env_slow_threshold() -> float | None:
    raw = os.environ.get("REPRO_SLOW_QUERY_MS", "").strip()
    if not raw:
        return None
    try:
        millis = float(raw)
    except ValueError:
        return None
    return millis / 1000.0 if millis >= 0 else None


#: Default size cap (MB) on the slow-query log file before rotation.
DEFAULT_SLOW_LOG_MAX_MB = 16.0
#: Rotated generations kept next to the live file (``path.1`` … ``path.N``).
SLOW_LOG_KEEP = 3


def _env_slow_log_max_mb() -> float:
    raw = os.environ.get("REPRO_SLOW_LOG_MAX_MB", "").strip()
    if not raw:
        return DEFAULT_SLOW_LOG_MAX_MB
    try:
        max_mb = float(raw)
    except ValueError:
        return DEFAULT_SLOW_LOG_MAX_MB
    return max_mb if max_mb > 0 else DEFAULT_SLOW_LOG_MAX_MB


class Tracer:
    """Ring buffer of finished spans plus the slow-query hook."""

    def __init__(self, capacity: int = 512) -> None:
        self._lock = threading.Lock()
        self._finished: deque[Span] = deque(maxlen=capacity)
        #: Root spans at or above this duration (seconds) hit the
        #: slow-query log; ``None`` disables it.
        self.slow_threshold_seconds: float | None = _env_slow_threshold()
        #: Dedicated slow-query sink (size-rotated file); ``None`` means
        #: slow-query lines go to stderr via the shared logger.
        self._slow_logger = None
        slow_log_file = os.environ.get("REPRO_SLOW_LOG_FILE", "").strip()
        if slow_log_file:
            self.configure_slow_log(slow_log_file, _env_slow_log_max_mb())

    def configure_slow_log(
        self,
        path: str | None,
        max_mb: float = DEFAULT_SLOW_LOG_MAX_MB,
        keep: int = SLOW_LOG_KEEP,
    ) -> None:
        """Route slow-query lines to a size-rotated file (``None`` → stderr).

        ``max_mb`` bounds each generation; at most ``keep`` rotated files
        are retained (``REPRO_SLOW_LOG_MAX_MB`` / ``--slow-log-max-mb``),
        so a slow-heavy workload cannot fill the disk.
        """
        from . import log as _log  # late import: log imports tracing

        if path is None:
            self._slow_logger = None
            return
        stream = _log.RotatingFileStream(
            path, max_bytes=int(max_mb * 1024 * 1024), keep=keep
        )
        self._slow_logger = _log.JsonLogger("slow_query", stream=stream)

    def record(self, span: Span) -> None:
        # Finished Span objects go in as-is; the dict conversion is paid
        # at query time (``spans_for``), not on the request hot path.
        with self._lock:
            self._finished.append(span)
        threshold = self.slow_threshold_seconds
        if (
            span.root
            and threshold is not None
            and span.duration is not None
            and span.duration >= threshold
        ):
            self._log_slow(span.to_dict())

    def _log_slow(self, entry: dict) -> None:
        from . import log as _log  # late import: log imports tracing

        logger = self._slow_logger or _log.get_logger("slow_query")
        logger.warning(
            "slow_query",
            trace_id=entry["trace_id"],
            span_id=entry["span_id"],
            name=entry["name"],
            duration_seconds=entry["duration"],
            attrs=entry["attrs"],
        )

    def spans_for(self, trace_id: str) -> list[dict]:
        with self._lock:
            spans = [s for s in self._finished if s.trace_id == trace_id]
        return [s.to_dict() for s in spans]


#: Process-wide tracer backing the ``trace`` wire op.
TRACER = Tracer()


def current_span() -> Span | None:
    return _current.get()


_NULL_SPAN = nullcontext(None)  # reusable: nullcontext is reentrant


class _SlowWatch:
    """Span-free timing for untraced requests (the hot-path default).

    Building a real span tree costs several microseconds per request —
    too much to pay for every query when nobody asked for a trace.  A
    watch only measures wall time; if the request turns out slower than
    the slow-query threshold it synthesises a completed root span
    post-hoc, so the slow-query log and the ``trace`` op still capture
    every slow query without taxing the fast ones.
    """

    __slots__ = ("name", "attrs_fn", "_t0")

    def __init__(self, name: str, attrs_fn, since: float | None = None) -> None:
        self.name = name
        self.attrs_fn = attrs_fn
        self._t0 = since

    def __enter__(self) -> None:
        if self._t0 is None:
            self._t0 = time.perf_counter()
        return None

    def __exit__(self, exc_type, exc, tb) -> None:
        threshold = TRACER.slow_threshold_seconds
        if threshold is None:
            return
        elapsed = time.perf_counter() - self._t0
        if elapsed < threshold:
            return
        span = Span(
            trace_id=new_trace_id(),
            span_id=new_span_id(),
            parent_id=None,
            name=self.name,
            attrs=self.attrs_fn() if self.attrs_fn is not None else None,
            root=True,
            propagate=False,
        )
        span.start = time.time() - elapsed
        span.duration = elapsed
        TRACER.record(span)


def slow_watch(name: str, attrs_fn=None, since: float | None = None):
    """Watch an untraced request; see :class:`_SlowWatch`.

    ``attrs_fn`` is only called when the request is actually slow, so
    attribute building costs nothing on the fast path.  ``since`` (a
    :func:`time.perf_counter` reading) backdates the watch to when the
    request's work began, for a request that learns only part-way
    through that it is the one to watch.  Returns a no-op context when
    observability is off or no slow threshold is set.
    """
    if TRACER.slow_threshold_seconds is None or not _metrics.REGISTRY.enabled:
        return _NULL_SPAN
    return _SlowWatch(name, attrs_fn, since)


def root_span(
    name: str,
    *,
    trace_id: str | None = None,
    parent_id: str | None = None,
    attrs: dict | None = None,
):
    """Open a root span, adopting client-supplied ids when given.

    A span with client-supplied ids is marked ``propagate`` so the
    scatter layer ships the trace over the wire to shard workers.
    No-op (yields ``None``) when observability is disabled.
    """
    if not _metrics.REGISTRY.enabled:
        return _NULL_SPAN
    return Span(
        trace_id=trace_id or new_trace_id(),
        span_id=new_span_id(),
        parent_id=parent_id,
        name=name,
        attrs=attrs,
        root=True,
        propagate=trace_id is not None,
    )


def child_span(name: str, *, attrs: dict | None = None):
    """Open a child of the current span; no-op when not inside a trace."""
    parent = _current.get()
    if parent is None or not _metrics.REGISTRY.enabled:
        return _NULL_SPAN
    return Span(
        trace_id=parent.trace_id,
        span_id=new_span_id(),
        parent_id=parent.span_id,
        name=name,
        attrs=attrs,
        root=False,
        propagate=parent.propagate,
    )


def spans_for(trace_id: str) -> list[dict]:
    return TRACER.spans_for(trace_id)
