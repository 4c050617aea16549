"""Multi-table query service over partitioned, incrementally-updatable engines.

:class:`Database` owns registration, partitioned compression, parallel
synopsis construction and streaming ingestion; :class:`QueryService` is the
SQL front end routing queries by table name, safe under parallel clients:
each published table is an immutable engine that queries read without a
lock, and the database serialises its own writers (a catalog mutex for
register, a writer mutex per table for ingest and drop).
:class:`AsyncQueryService` exposes the same API as coroutines (with a
coalescing ingest queue), and :class:`QueryServer` serves it over TCP in
the binary pipelined protocol (:mod:`repro.service.framing`, spoken by
:class:`PipelinedClient`).  Every op it serves is one row of the op
table in :mod:`repro.service.ops`, and every flag of the
``python -m repro.service`` process that serves them is one field of
:class:`ServeConfig` (:mod:`repro.service.config`), from which the
parser and a cluster worker's command line are derived.
"""

# Exported only for repro to re-export to benchmarks/e2e/layers.py, which times both.
from .concurrency import ConcurrentQueryService, ReadWriteLock
from .config import ServeConfig
from .database import (
    Database,
    IngestResult,
    ManagedTable,
    QueryService,
    StagedIngest,
)
from .server import AsyncQueryService, QueryServer
from .wire import OverloadedError, PipelinedClient, WireError

__all__ = [
    "AsyncQueryService",
    "OverloadedError",
    "PipelinedClient",
    "WireError",
    "ConcurrentQueryService",
    "Database",
    "IngestResult",
    "ManagedTable",
    "QueryServer",
    "QueryService",
    "ReadWriteLock",
    "ServeConfig",
    "StagedIngest",
]
