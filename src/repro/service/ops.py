"""The op table: every wire op is declared once, here.

One :class:`Op` row carries everything the layers between a socket and
the engine need to know about an op, so none of them re-declares the
list:

* :class:`~repro.service.server.QueryServer` looks a request up
  (:func:`lookup` for a JSON object, :data:`BINARY` for a fast-path
  opcode), admits it under ``kind``, validates it with ``extract``, runs
  ``handler`` on the executor (or ``serve`` on the event loop), brackets
  ``mutating`` rows with the replica gate and the commit gate, and
  answers ``encode(result)``.  A ``query`` the single node's result
  cache holds never reaches the executor: the async face answers it on
  the event loop, and an untraced ``QUERY`` frame is answered in the
  connection's read loop itself.
* :class:`~repro.service.wire.PipelinedClient` and
  :class:`~repro.service.wire.AsyncQueryClient` answer ``client.<name>(...)``
  for every row: ``request`` builds the request object, ``key`` unwraps
  the reply, ``binary`` (when the arguments fit it) skips JSON entirely.
* The cluster's shard proxies are ``shard.call(name, *args)``: a process
  shard sends the row over its ``channel``, a replicated shard asks its
  primary, a local shard runs ``handler`` + ``encode`` in-process — so
  local and process payloads are equal by construction — and the front
  end's fan-outs (``replicas="all"``) combine worker payloads with ``merge``.

Adding an op is :func:`register` of one row.
"""

from __future__ import annotations

import asyncio
import math
from dataclasses import dataclass
from functools import partialmethod
from typing import Callable

import numpy as np

from ..core.engine import AqpResult
from ..core.params import PairwiseHistParams
from ..data.schema import ColumnSchema, ColumnType, TableSchema
from ..data.table import Table
from ..obs import metrics as obs_metrics
from . import framing


@dataclass
class Binary:
    """Fast-path codec of a hot op: its own opcode, no JSON on either side."""

    opcode: int
    #: Client: stub arguments → request payload (``None``: these arguments
    #: need the JSON form, e.g. rows given as a dict).
    encode_request: Callable[..., bytes | None]
    #: Server: request payload → handler arguments.
    decode_request: Callable[[bytes], tuple]
    #: Server: the JSON dialect's reply body → reply payload.
    encode_reply: Callable[[object], bytes]
    #: Client: reply payload → the JSON dialect's reply body.
    decode_reply: Callable[[bytes], object]


@dataclass
class Op:
    """One row of the op table (columns as in the module docstring)."""

    name: str
    #: Admission class: which in-flight limit the request counts against.
    kind: str = "query"
    #: Refused on a replica; acknowledged only past the commit gate.
    mutating: bool = False
    #: Request fields, in stub-argument order.
    params: tuple[str, ...] = ()
    #: Client: stub arguments → request fields, where zipping ``params``
    #: is not enough (optional arguments, payload encodings).
    request: Callable[..., dict] | None = None
    #: Server: ``(service, request) -> handler arguments``, raising the
    #: error that names a missing or mistyped field.
    extract: Callable[[object, dict], tuple] | None = None
    #: ``(service, *args) -> result`` against the synchronous service
    #: interface (:class:`QueryService` and :class:`ClusterQueryService`);
    #: defaults to the service method named like the op.
    handler: Callable | None = None
    #: ``async (server, args, trace) -> result`` for rows that need the
    #: server itself (its replication role) or must stay on the event loop.
    serve: Callable | None = None
    #: Handler result → reply body; defaults to ``{key: result}``.
    encode: Callable | None = None
    #: Reply-body key the client stubs return (``None``: the whole body).
    key: str | None = None
    binary: Binary | None = None
    #: Which of a process shard's two connections carries the op.
    channel: str = "query"
    #: Workers of a replicated shard that serve the op: ``primary`` or
    #: ``all`` (fanned out by the front end; replicas serve no queries).
    replicas: str = "primary"
    #: Cluster fan-out: ``[(worker labels, payload)] -> payload``.
    merge: Callable[[list], object] | None = None
    #: Crash point armed between the commit gate and the acknowledgement.
    before_ack: str | None = None

    def __post_init__(self) -> None:
        name, key = self.name, self.key
        if self.handler is None and self.serve is None:
            self.handler = lambda service, *args: getattr(service, name)(*args)
        if self.encode is None:
            self.encode = _identity if key is None else (lambda result: {key: result})

    def build_request(self, *args, **kwargs) -> dict:
        """The JSON request object of ``client.<name>(*args, **kwargs)``."""
        if self.request is not None:
            fields = self.request(*args, **kwargs)
        else:
            fields = {**dict(zip(self.params, args)), **kwargs}
        return {"op": self.name, **fields}

    def unwrap(self, body):
        """What ``client.<name>()`` returns for a reply body."""
        return body if self.key is None else body[self.key]


def _identity(value):
    return value


#: name → row, in documentation order.
OPS: dict[str, Op] = {}
#: opcode → row, for the ops with a fast-path codec; :data:`TUNNEL` marks
#: ``OP_JSON``, whose payload is a JSON request object for :func:`lookup`.
TUNNEL = object()
BINARY: dict[int, object] = {framing.OP_JSON: TUNNEL}


def register(op: Op) -> None:
    """Add one row; every dispatcher, client ``call`` and proxy picks it up."""
    OPS[op.name] = op
    if op.binary is not None:
        BINARY[op.binary.opcode] = op


def stubs(cls):
    """Class decorator: ``obj.<name>(*args)`` is ``obj.call(name, *args)``
    for every row in the table at import.  (Methods, not ``__getattr__``:
    a class with ``__getattr__`` pays for it on every attribute access.)"""
    for name in OPS:
        setattr(cls, name, partialmethod(cls.call, name))
    return cls


def lookup(request) -> Op:
    """The row a JSON request object names."""
    if not isinstance(request, dict):
        raise ValueError("requests must be JSON objects")
    op = OPS.get(request.get("op"))
    if op is None:
        raise ValueError(f"unknown op {request.get('op')!r}")
    sql = request.get("sql")
    if op is QUERY and isinstance(sql, str) and _split_explain(sql):
        # "EXPLAIN [ANALYZE] <query>" through the ordinary query op
        # answers the structured plan instead.
        return OPS["explain"]
    return op


def _split_explain(sql: str):
    from ..audit.explain import split_explain  # audit imports the cluster

    return split_explain(sql)


def error_fields(exc: BaseException) -> dict:
    """``error`` / ``error_type`` of a failure, as both dialects report it."""
    message = exc.args[0] if exc.args else str(exc)
    return {"error": str(message), "error_type": type(exc).__name__}


# --------------------------------------------------------------------------- #
# Payload encodings (shared by the server and every client)


def table_payload(table: Table) -> dict:
    """JSON-encodable column mapping for ``register`` / ``ingest`` requests."""
    payload: dict[str, list] = {}
    for column in table.schema:
        values = table.column(column.name)
        if column.is_categorical:
            payload[column.name] = [None if v is None else str(v) for v in values]
        else:
            floats = np.asarray(values, dtype=float)
            payload[column.name] = [
                None if not math.isfinite(v) else v for v in floats.tolist()
            ]
    return payload


def schema_payload(schema: TableSchema) -> list[dict]:
    """JSON-encodable schema for ``register`` requests (skips inference)."""
    return [
        {
            "name": column.name,
            "type": column.ctype.value,
            "decimals": column.decimals,
            "nullable": bool(column.nullable),
            "categories": column.categories,
        }
        for column in schema
    ]


def schema_from_payload(payload: list[dict]) -> TableSchema:
    """Inverse of :func:`schema_payload`."""
    if not isinstance(payload, list) or not all(isinstance(c, dict) for c in payload):
        raise ValueError("schema payloads must be a list of column objects")
    return TableSchema(
        [
            ColumnSchema(
                name=str(entry["name"]),
                ctype=ColumnType(entry["type"]),
                decimals=int(entry.get("decimals", 0)),
                categories=entry.get("categories"),
                nullable=bool(entry.get("nullable", True)),
            )
            for entry in payload
        ]
    )


_PARAMS_FIELDS = (
    "sample_size",
    "min_points",
    "alpha",
    "min_spacing",
    "max_initial_bins",
    "max_refine_depth",
    "seed",
    "max_merged_cells",
)


def params_payload(params: PairwiseHistParams) -> dict:
    """JSON-encodable construction parameters for ``register`` requests."""
    return {field: getattr(params, field) for field in _PARAMS_FIELDS}


def params_from_payload(payload: dict) -> PairwiseHistParams:
    """Inverse of :func:`params_payload` (unknown keys are rejected)."""
    if not isinstance(payload, dict):
        raise ValueError("params payloads must be a JSON object")
    unknown = set(payload) - set(_PARAMS_FIELDS)
    if unknown:
        raise ValueError(f"unknown params fields: {sorted(unknown)}")
    return PairwiseHistParams(**payload)


def encode_result(result) -> dict:
    """JSON-encodable payload for one execute() return value."""
    if isinstance(result, dict):  # GROUP BY: label -> [AqpResult]
        return {
            "groups": {
                label: [_encode_aqp(r) for r in results]
                for label, results in result.items()
            }
        }
    return {"results": [_encode_aqp(r) for r in result]}


def _encode_aqp(result: AqpResult) -> dict:
    aggregation = result.aggregation
    column = aggregation.column if aggregation.column is not None else "*"
    return {
        "aggregation": f"{aggregation.func.value}({column})",
        "value": _json_float(result.value),
        "lower": _json_float(result.lower),
        "upper": _json_float(result.upper),
        "group": result.group,
    }


def _json_float(value: float) -> float | None:
    """NaN / inf are not valid JSON; encode them as null."""
    return value if isinstance(value, (int, float)) and math.isfinite(value) else None


def _encode_table(entry) -> dict:
    """A catalog entry (single-node or cluster) as ``stat``/``register`` report it."""
    return {"table": entry.name, "rows": entry.num_rows, "partitions": entry.num_partitions}


def _encode_ingest(result) -> dict:
    return {
        "table": result.table_name,
        "appended_rows": result.appended_rows,
        "rebuilt_partitions": result.rebuilt_partitions,
        "total_partitions": result.total_partitions,
        "seconds": result.seconds,
    }


def _encode_checkpoint(result) -> dict:
    return {
        "checkpoint_lsn": result.checkpoint_lsn,
        "snapshot": result.path.name if result.path is not None else None,
        "tables": result.tables,
        "seconds": result.seconds,
        "skipped": result.skipped,
    }


def _encode_persist(lsn) -> dict:
    # A cluster persists every shard; it reports the fleet's newest LSN.
    return {"last_lsn": max(lsn) if isinstance(lsn, list) else lsn}


# --------------------------------------------------------------------------- #
# Request builders (client) and extractors (server)


def _need(request: dict, field: str, types, message: str):
    value = request.get(field)
    if not isinstance(value, types):
        raise ValueError(message)
    return value


def _table_of(op: str):
    return lambda service, request: (
        _need(request, "table", str, f"{op} requests need a 'table' name"),
    )


def _extract_query(service, request: dict) -> tuple:
    if "sql" not in request:
        raise ValueError("query requests need a 'sql' field")
    return (request["sql"],)


def _extract_explain(service, request: dict) -> tuple:
    sql = _need(request, "sql", str, "explain requests need a 'sql' string")
    analyze = bool(request.get("analyze", False))
    prefixed = _split_explain(sql)
    if prefixed is not None:  # the SQL-prefix form states ANALYZE itself
        analyze, sql = prefixed[0] or analyze, prefixed[1]
    return sql, analyze


def _rows_of(service, request: dict, schema_field: bool) -> Table:
    table_name = _need(
        request, "table", str, "ingest/register requests need a 'table' name"
    )
    payload = request.get("rows")
    if not isinstance(payload, dict) or not payload:
        raise ValueError("ingest/register requests need a 'rows' mapping")
    if not schema_field:
        # Decode against the registered schema so numeric columns arrive
        # typed the way the store expects (raises KeyError if unknown).
        schema = service.schema_for(table_name)
    elif request.get("schema") is not None:
        # Registrations may carry an explicit schema (the cluster front
        # end does), skipping column-type inference entirely.
        schema = schema_from_payload(request["schema"])
    else:
        schema = None
    return Table.from_dict(payload, name=table_name, schema=schema)


def _ingest_request(table: str, rows: Table | dict, coalesce: bool = True) -> dict:
    payload = table_payload(rows) if isinstance(rows, Table) else rows
    return {"table": table, "rows": payload, "coalesce": coalesce}


def _extract_ingest(service, request: dict) -> tuple:
    rows = _rows_of(service, request, schema_field=False)
    return rows.name, rows, bool(request.get("coalesce", True))


def _register_request(
    table: Table,
    params: PairwiseHistParams | None = None,
    partition_size: int | None = None,
) -> dict:
    request: dict = {
        "table": table.name,
        "rows": table_payload(table),
        "schema": schema_payload(table.schema),
    }
    if params is not None:
        request["params"] = params_payload(params)
    if partition_size is not None:
        request["partition_size"] = partition_size
    return request


def _extract_register(service, request: dict) -> tuple:
    rows = _rows_of(service, request, schema_field=True)
    params = request.get("params")
    return (
        rows,
        params_from_payload(params) if params is not None else None,
        request.get("partition_size"),
    )


# --------------------------------------------------------------------------- #
# Handlers: once, against the synchronous service interface


def _drop(service, table_name: str) -> dict:
    service.drop_table(table_name)
    return {"table": table_name, "dropped": True}


def _trace(service, trace_id: str) -> dict:
    return {"trace_id": trace_id, "spans": service.trace(trace_id)}


async def _serve_ping(server, args, trace) -> str:
    return "pong"


async def _serve_query(server, args, trace):
    with server.query_span(args[0], trace):
        return await server.service.call(QUERY, *args)


async def _serve_query_batch(server, args, trace) -> list[dict]:
    """Every statement concurrently; a failure is that item's outcome."""

    async def run_one(sql: str) -> dict:
        try:
            result = await server.service.call(QUERY, sql)
            return {"ok": True, "result": encode_result(result)}
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            return {"ok": False, **error_fields(exc)}

    return list(await asyncio.gather(*(run_one(sql) for sql in args[0])))


async def _serve_status(server, args, trace) -> dict:
    """LSNs, replication role/lag, shed + cache stats."""
    rep = server.replication
    payload: dict = {
        "role": rep.role if rep is not None else "standalone",
        "epoch": rep.epoch if rep is not None else 0,
        "shed_counts": dict(server.shed_counts),
    }
    # The service's share (cache stats, LSN positions); a cluster front
    # end fans it out to its workers.
    payload.update(await server.service.call(OPS["status"]))
    if rep is not None and rep.hub is not None:
        followers = rep.hub.subscriber_snapshot()
        payload["followers"] = followers
        payload["replicated_lsn"] = rep.hub.replicated_lsn()
        if followers and "durable_lsn" in payload:
            payload["replication_lag"] = payload["durable_lsn"] - min(
                f["acked_lsn"] for f in followers.values()
            )
    if rep is not None and rep.follower is not None:
        payload["follower"] = dict(rep.follower.status)
    return payload


async def _serve_promote(server, args, trace) -> dict:
    """Turn this replica into the shard's primary at a new epoch.

    The caller (the cluster front end) has already bumped the epoch
    file, fencing the old primary; this end stops the follower loop
    and starts a replication hub so the surviving replicas can
    re-subscribe here.
    """
    rep = server.replication
    if rep is None or rep.role != "replica" or rep.follower is None:
        raise ValueError("only a running replica can be promoted")
    (epoch,) = args
    if not isinstance(epoch, int):
        raise ValueError("promote requests need an integer 'epoch'")
    from ..replication.primary import ReplicationHub

    follower, rep.follower = rep.follower, None
    await asyncio.get_running_loop().run_in_executor(None, follower.shutdown)
    database = server.service.inner.database
    hub = ReplicationHub(database, ack_replicas=rep.ack_replicas)
    hub.attach()
    rep.hub = hub
    rep.role = "primary"
    rep.epoch = epoch
    return {"role": "primary", "epoch": epoch, "applied_lsn": database.wal.last_lsn}


async def _serve_follow(server, args, trace) -> dict:
    """Repoint this replica's subscription at a new primary."""
    rep = server.replication
    if rep is None or rep.follower is None:
        raise ValueError("this worker is not following anyone")
    host, port = args
    if not isinstance(host, str) or not isinstance(port, int):
        raise ValueError("follow requests need 'host' and an integer 'port'")
    rep.follower.retarget(host, port)
    return {
        "upstream": f"{host}:{port}",
        "applied_lsn": server.service.inner.database.wal.last_lsn,
    }


# --------------------------------------------------------------------------- #
# Cluster fan-out merge rules: [(worker labels, payload)] -> payload


def _merge_metrics(sources: list) -> dict:
    """Every series, labelled with the worker it came from."""
    merged: dict = {}
    for labels, snapshot in sources:
        obs_metrics.merge_snapshot(merged, snapshot, labels)
    return merged


def _merge_spans(sources: list) -> list[dict]:
    """Union on span id (a span can be reachable twice), by start time."""
    spans: dict[str, dict] = {}
    for _, collected in sources:
        for span in collected:
            spans.setdefault(span["span_id"], span)
    return sorted(spans.values(), key=lambda s: s.get("start", 0.0))


def _merge_workload(sources: list) -> dict:
    """Per-template frequencies and rollups summed."""
    from ..audit.workload import WorkloadLog

    return WorkloadLog.merge_snapshots([snapshot for _, snapshot in sources])


def _merge_audit(sources: list) -> dict:
    """Counters summed, error mean weighted, recent violations pooled."""
    from ..audit.auditor import AccuracyAuditor

    merged = AccuracyAuditor.merge_stats([stats for _, stats in sources])
    merged["shards"] = len({labels["shard"] for labels, _ in sources})
    return merged


def _merge_status(sources: list) -> dict:
    """Per-table cache hit/miss counts summed (the caches live in the workers)."""
    totals: dict[str, dict[str, int]] = {}
    found = False
    for _, status in sources:
        stats = status.get("cache_stats")
        if stats is None:
            continue
        found = True
        for table, counts in stats.items():
            bucket = totals.setdefault(table, {})
            for outcome, count in counts.items():
                bucket[outcome] = bucket.get(outcome, 0) + int(count)
    return {"cache_stats": totals} if found else {}


def _merge_checkpoints(sources: list) -> dict:
    """Newest LSN, largest catalog, skipped only if every shard skipped."""
    reports = [report for _, report in sources]
    return {
        "checkpoint_lsn": max(r["checkpoint_lsn"] for r in reports),
        "tables": max(r["tables"] for r in reports),
        "skipped": all(r["skipped"] for r in reports),
    }


# --------------------------------------------------------------------------- #
# The table

_ROWS = [
    Op(
        "ping",
        serve=_serve_ping,
        binary=Binary(
            framing.OP_PING,
            encode_request=lambda: b"",
            decode_request=lambda payload: (),
            encode_reply=lambda body: b"",
            decode_reply=lambda payload: "pong",
        ),
    ),
    Op(
        "query",
        params=("sql",),
        extract=_extract_query,
        handler=lambda service, sql: service.execute(sql),
        serve=_serve_query,
        encode=encode_result,
        # The binary result block cannot carry a structured plan, so the
        # SQL-prefix EXPLAIN form rides the JSON form instead.
        binary=Binary(
            framing.OP_QUERY,
            encode_request=lambda sql: (
                None if _split_explain(sql) else framing.encode_query(sql)
            ),
            decode_request=lambda payload: (framing.decode_query(payload),),
            encode_reply=framing.encode_result,
            decode_reply=framing.decode_result,
        ),
    ),
    Op(
        "query_batch",
        params=("sqls",),
        extract=lambda service, request: (
            _need(request, "sqls", list, "query_batch requests need a 'sqls' list"),
        ),
        serve=_serve_query_batch,
        binary=Binary(
            framing.OP_QUERY_BATCH,
            encode_request=framing.encode_query_batch,
            decode_request=lambda payload: (framing.decode_query_batch(payload),),
            encode_reply=framing.encode_batch_response,
            decode_reply=framing.decode_batch_response,
        ),
    ),
    Op(
        "ingest",
        kind="ingest",
        mutating=True,
        request=_ingest_request,
        extract=_extract_ingest,
        handler=lambda service, table, rows, coalesce=True: service.ingest(table, rows),
        encode=_encode_ingest,
        # Rows given as a Table travel as the codec table format, not JSON.
        binary=Binary(
            framing.OP_INGEST,
            encode_request=lambda table, rows, coalesce=True: (
                framing.encode_ingest(table, rows, coalesce)
                if isinstance(rows, Table)
                else None
            ),
            decode_request=framing.decode_ingest,
            encode_reply=framing.encode_json,
            decode_reply=framing.decode_json,
        ),
        channel="bulk",
        # The nastiest distributed window: the batch is WAL-committed but
        # the acknowledgement never leaves the process.  Cluster tests arm
        # this to pin the front end's exactly-once recovery.
        before_ack="server.ingest.before_ack",
    ),
    Op(
        "register",
        mutating=True,
        request=_register_request,
        extract=_extract_register,
        handler=lambda service, table, params=None, partition_size=None: (
            service.register_table(table, params=params, partition_size=partition_size)
        ),
        encode=_encode_table,
        channel="bulk",
    ),
    Op("drop", mutating=True, params=("table",), extract=_table_of("drop"), handler=_drop),
    Op("tables", handler=lambda service: service.table_names, key="tables"),
    Op(
        "stat",
        params=("table",),
        extract=_table_of("stat"),
        handler=lambda service, table: service.table(table),
        encode=_encode_table,
    ),
    Op("explain", params=("sql", "analyze"), extract=_extract_explain, key="explain"),
    Op(
        "status",
        handler=lambda service: service.status_extra(),
        serve=_serve_status,
        merge=_merge_status,
    ),
    Op("metrics", key="metrics", replicas="all", merge=_merge_metrics),
    Op(
        "trace",
        params=("trace_id",),
        extract=lambda service, request: (
            _need(request, "trace_id", str, "trace requests need a 'trace_id' string"),
        ),
        handler=_trace,
        encode=_identity,
        key="spans",
        replicas="all",
        merge=_merge_spans,
    ),
    Op("workload", key="workload", replicas="all", merge=_merge_workload),
    Op("audit", key="audit", replicas="all", merge=_merge_audit),
    Op("checkpoint", encode=_encode_checkpoint, merge=_merge_checkpoints),
    Op(
        "persist",
        encode=_encode_persist,
        key="last_lsn",
        merge=lambda sources: [lsn for _, lsn in sources],  # one per shard
    ),
    # promote/follow validate their fields after the role check, so a
    # non-replica refuses the op itself rather than complaining about a field.
    Op(
        "promote",
        params=("epoch",),
        extract=lambda service, request: (request.get("epoch"),),
        serve=_serve_promote,
    ),
    Op(
        "follow",
        params=("host", "port"),
        extract=lambda service, request: (request.get("host"), request.get("port")),
        serve=_serve_follow,
    ),
]
for _row in _ROWS:
    register(_row)
QUERY = OPS["query"]
