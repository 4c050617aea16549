"""Binary wire frames: the query server's one protocol.

Length-prefixed frames carry many in-flight requests per connection,
with binary payloads for the hot ops and a tunnelled JSON request object
for the rest.  They are built on the framing primitives consolidated in
:mod:`repro.storage.codec`, so the wire format shares one source of
framing truth with the on-disk formats.

Preamble
--------
A client opens its connection by sending the 4-byte magic
:data:`MAGIC`; the server closes, without a reply, a connection that
opens with anything else.

Frame layout (all integers little-endian)
-----------------------------------------
Request frame::

    <B op> <Q request_id> <I payload_len> payload

Response frame::

    <B status> <Q request_id> <I payload_len> payload

Responses are matched to requests by ``request_id`` and may arrive in
any order — clients issue many in-flight requests per connection (true
pipelining) and the server answers each as soon as its work completes.

Ops / payloads
--------------
* ``OP_PING`` (1) — empty payload; OK response payload is empty.
* ``OP_QUERY`` (2) — ``pack_string(sql)``; OK payload is a result block.
* ``OP_QUERY_BATCH`` (3) — ``<I n>`` then n × ``pack_string(sql)``; OK
  payload is ``<I n>`` then n × (``<B ok>`` + result block | error
  block).  One frame carries many queries.
* ``OP_INGEST`` (4) — ``<B coalesce>`` + ``pack_string(table)`` +
  ``codec.encode_table(rows)`` (the lossless binary table codec — no
  JSON round trip for row payloads); OK payload is a JSON object.
* ``OP_JSON`` (5) — a JSON-encoded request object (``{"op": name,
  ...fields}``), for every op without a codec of its own — the op table
  in :mod:`repro.service.ops` says which; OK payload is the JSON result.
* ``OP_SUBSCRIBE`` (6) — ``<Q after_lsn>`` + ``pack_string(follower_id)``.
  A replication follower sends this once; the server then streams
  ``STATUS_OK`` frames tagged with the subscribe request id for the life
  of the connection.  Each stream payload starts with a kind byte:
  :data:`REPL_WAL_BATCH` (a compressed run of WAL records) or
  :data:`REPL_SNAPSHOT_SEED` (a full snapshot, sent first when the
  follower's position is behind the WAL truncation horizon).
* ``OP_WAL_ACK`` (7) — ``<Q lsn>``: the follower's durably-applied
  position.  One-way; the server never responds to it.  Feeds the
  primary's retention floor and the semi-synchronous ack barrier.

Result block::

    <B kind>            0 = scalar list, 1 = GROUP BY
    scalar list: <I n> then per result:
        pack_string(aggregation label)
        <3d> value, lower, upper   (NaN encodes JSON null)
        pack_optional_string(group)
    groups: <I n> then per group: pack_string(label) + scalar list

Error block: ``pack_string(error_type) + pack_string(message)``.

Statuses: ``STATUS_OK`` (0), ``STATUS_ERROR`` (1) and
``STATUS_OVERLOADED`` (2) — the admission-control shed response, whose
payload is an error block with type ``"Overloaded"``.
"""

from __future__ import annotations

import json
import math
import struct
import zlib

from ..data.table import Table
from ..storage.codec import (
    decode_table,
    encode_table,
    pack_optional_string,
    pack_string,
    unpack_optional_string,
    unpack_string,
)

#: Connection preamble a binary client sends once after connecting.
MAGIC = b"AQP1"

#: Largest request line / frame payload either end accepts (asyncio's
#: 64 KiB stream default is far smaller than a realistic ingest frame).
DEFAULT_LINE_LIMIT = 32 * 1024 * 1024

#: Frame header: op/status byte, request id, payload length.
HEADER = struct.Struct("<BQI")
HEADER_SIZE = HEADER.size

# Request ops
OP_PING = 1
OP_QUERY = 2
OP_QUERY_BATCH = 3
OP_INGEST = 4
OP_JSON = 5
OP_SUBSCRIBE = 6
OP_WAL_ACK = 7

# Replication stream payload kinds (first byte of every stream frame a
# subscription receives).
REPL_WAL_BATCH = 1
REPL_SNAPSHOT_SEED = 2

# Response statuses
STATUS_OK = 0
STATUS_ERROR = 1
STATUS_OVERLOADED = 2

#: error_type carried by STATUS_OVERLOADED frames.
OVERLOADED_ERROR_TYPE = "Overloaded"

#: High bit of the op byte: a 24-byte trace trailer (16-byte trace id +
#: 8-byte span id) follows the payload.  ``payload_len`` still counts
#: the payload alone, so readers that mask the flag off parse the frame
#: exactly as before; clients that never set the flag are byte-identical
#: to the pre-trace protocol.
TRACE_FLAG = 0x80

#: Trace trailer: raw trace id then parent span id.
TRACE_TRAILER = struct.Struct("<16s8s")
TRACE_TRAILER_SIZE = TRACE_TRAILER.size


def encode_frame(
    tag: int,
    request_id: int,
    payload: bytes = b"",
    trace: tuple[bytes, bytes] | None = None,
) -> bytes:
    """One complete frame (request or response — the layout is shared).

    ``trace=(trace_id16, span_id8)`` appends the trace trailer and sets
    :data:`TRACE_FLAG` on the tag byte.
    """
    if trace is None:
        return HEADER.pack(tag, request_id, len(payload)) + payload
    trace_id, span_id = trace
    return (
        HEADER.pack(tag | TRACE_FLAG, request_id, len(payload))
        + payload
        + TRACE_TRAILER.pack(trace_id, span_id)
    )


def decode_trace_trailer(trailer: bytes) -> tuple[bytes, bytes]:
    """(trace_id16, span_id8) from the 24-byte trailer."""
    trace_id, span_id = TRACE_TRAILER.unpack(trailer)
    return trace_id, span_id


def decode_header(header: bytes) -> tuple[int, int, int]:
    """(op_or_status, request_id, payload_len) from a 13-byte header."""
    return HEADER.unpack(header)


# --------------------------------------------------------------------------- #
# Request payloads


def encode_query(sql: str) -> bytes:
    return pack_string(sql)


def decode_query(payload: bytes) -> str:
    sql, _ = unpack_string(memoryview(payload), 0)
    return sql


def encode_query_batch(sqls: list[str]) -> bytes:
    return struct.pack("<I", len(sqls)) + b"".join(pack_string(s) for s in sqls)


def decode_query_batch(payload: bytes) -> list[str]:
    buffer = memoryview(payload)
    (count,) = struct.unpack_from("<I", buffer, 0)
    offset = 4
    sqls: list[str] = []
    for _ in range(count):
        sql, offset = unpack_string(buffer, offset)
        sqls.append(sql)
    return sqls


def encode_ingest(table_name: str, rows: Table, coalesce: bool = True) -> bytes:
    return (
        struct.pack("<B", bool(coalesce))
        + pack_string(table_name)
        + encode_table(rows)
    )


def decode_ingest(payload: bytes) -> tuple[str, Table, bool]:
    buffer = memoryview(payload)
    (coalesce,) = struct.unpack_from("<B", buffer, 0)
    table_name, offset = unpack_string(buffer, 1)
    rows, _ = decode_table(buffer, offset)
    return table_name, rows, bool(coalesce)


def encode_json(obj) -> bytes:
    return json.dumps(obj).encode("utf-8")


def decode_json(payload: bytes):
    return json.loads(payload)


# --------------------------------------------------------------------------- #
# Result / error payloads

_KIND_SCALAR = 0
_KIND_GROUPS = 1


def _pack_double(value) -> bytes:
    """A float slot; ``None`` (JSON null) is carried as NaN."""
    return struct.pack("<d", float("nan") if value is None else float(value))


def _unpack_double(buffer: memoryview, offset: int):
    (value,) = struct.unpack_from("<d", buffer, offset)
    return (None if math.isnan(value) else value), offset + 8


def _encode_result_list(results: list[dict]) -> bytes:
    parts = [struct.pack("<I", len(results))]
    for result in results:
        parts.append(pack_string(result["aggregation"]))
        parts.append(_pack_double(result["value"]))
        parts.append(_pack_double(result["lower"]))
        parts.append(_pack_double(result["upper"]))
        parts.append(pack_optional_string(result.get("group")))
    return b"".join(parts)


def _decode_result_list(buffer: memoryview, offset: int) -> tuple[list[dict], int]:
    (count,) = struct.unpack_from("<I", buffer, offset)
    offset += 4
    results: list[dict] = []
    for _ in range(count):
        aggregation, offset = unpack_string(buffer, offset)
        value, offset = _unpack_double(buffer, offset)
        lower, offset = _unpack_double(buffer, offset)
        upper, offset = _unpack_double(buffer, offset)
        group, offset = unpack_optional_string(buffer, offset)
        results.append(
            {
                "aggregation": aggregation,
                "value": value,
                "lower": lower,
                "upper": upper,
                "group": group,
            }
        )
    return results, offset


def encode_result(result: dict) -> bytes:
    """Binary encoding of one ``server.encode_result`` payload dict."""
    if "groups" in result:
        parts = [struct.pack("<BI", _KIND_GROUPS, len(result["groups"]))]
        for label, results in result["groups"].items():
            parts.append(pack_string(label))
            parts.append(_encode_result_list(results))
        return b"".join(parts)
    return struct.pack("<B", _KIND_SCALAR) + _encode_result_list(result["results"])


def decode_result(payload: bytes) -> dict:
    """Inverse of :func:`encode_result` — same dict shape as the JSON path."""
    buffer = memoryview(payload)
    (kind,) = struct.unpack_from("<B", buffer, 0)
    if kind == _KIND_SCALAR:
        results, _ = _decode_result_list(buffer, 1)
        return {"results": results}
    if kind != _KIND_GROUPS:
        raise ValueError(f"unknown result kind {kind}")
    (count,) = struct.unpack_from("<I", buffer, 1)
    offset = 5
    groups: dict[str, list[dict]] = {}
    for _ in range(count):
        label, offset = unpack_string(buffer, offset)
        groups[label], offset = _decode_result_list(buffer, offset)
    return {"groups": groups}


def encode_error(error_type: str, message: str) -> bytes:
    return pack_string(error_type) + pack_string(message)


def decode_error(payload: bytes) -> tuple[str, str]:
    buffer = memoryview(payload)
    error_type, offset = unpack_string(buffer, 0)
    message, _ = unpack_string(buffer, offset)
    return error_type, message


def encode_batch_response(items: list[dict]) -> bytes:
    """Per-query outcomes of one ``OP_QUERY_BATCH`` frame.

    Each item is either ``{"ok": True, "result": <result dict>}`` or
    ``{"ok": False, "error_type": ..., "error": ...}``.
    """
    parts = [struct.pack("<I", len(items))]
    for item in items:
        if item.get("ok"):
            block = encode_result(item["result"])
            parts.append(struct.pack("<B", 1))
        else:
            block = encode_error(str(item["error_type"]), str(item["error"]))
            parts.append(struct.pack("<B", 0))
        parts.append(struct.pack("<I", len(block)))
        parts.append(block)
    return b"".join(parts)


def decode_batch_response(payload: bytes) -> list[dict]:
    buffer = memoryview(payload)
    (count,) = struct.unpack_from("<I", buffer, 0)
    offset = 4
    items: list[dict] = []
    for _ in range(count):
        ok, length = struct.unpack_from("<BI", buffer, offset)
        offset += 5
        block = bytes(buffer[offset : offset + length])
        offset += length
        if ok:
            items.append({"ok": True, "result": decode_result(block)})
        else:
            error_type, message = decode_error(block)
            items.append({"ok": False, "error_type": error_type, "error": message})
    return items


# --------------------------------------------------------------------------- #
# Replication payloads (OP_SUBSCRIBE / OP_WAL_ACK / stream frames)

_WAL_BATCH_HEADER = struct.Struct("<BQQII")  # kind, first, last, count, raw_len
_WAL_RECORD_HEADER = struct.Struct("<QBI")  # lsn, rtype, payload length
_SEED_HEADER = struct.Struct("<BQI")  # kind, checkpoint_lsn, file count


def encode_subscribe(after_lsn: int, follower_id: str) -> bytes:
    return struct.pack("<Q", after_lsn) + pack_string(follower_id)


def decode_subscribe(payload: bytes) -> tuple[int, str]:
    buffer = memoryview(payload)
    (after_lsn,) = struct.unpack_from("<Q", buffer, 0)
    follower_id, _ = unpack_string(buffer, 8)
    return after_lsn, follower_id


def encode_wal_ack(lsn: int) -> bytes:
    return struct.pack("<Q", lsn)


def decode_wal_ack(payload: bytes) -> int:
    (lsn,) = struct.unpack("<Q", payload)
    return lsn


def encode_wal_batch(records: list[tuple[int, int, bytes]]) -> bytes:
    """A contiguous run of WAL records, zlib-compressed as one block.

    Redo records of one table are highly self-similar (same column names,
    overlapping value distributions), so compressing the concatenated run
    beats per-record compression by a wide margin.
    """
    if not records:
        raise ValueError("a WAL batch must carry at least one record")
    raw = b"".join(
        _WAL_RECORD_HEADER.pack(lsn, rtype, len(payload)) + payload
        for lsn, rtype, payload in records
    )
    header = _WAL_BATCH_HEADER.pack(
        REPL_WAL_BATCH, records[0][0], records[-1][0], len(records), len(raw)
    )
    return header + zlib.compress(raw, 1)


def decode_wal_batch(payload: bytes) -> list[tuple[int, int, bytes]]:
    kind, first, last, count, raw_len = _WAL_BATCH_HEADER.unpack_from(payload, 0)
    if kind != REPL_WAL_BATCH:
        raise ValueError(f"not a WAL batch frame (kind {kind})")
    raw = memoryview(zlib.decompress(payload[_WAL_BATCH_HEADER.size :]))
    if len(raw) != raw_len:
        raise ValueError("WAL batch length mismatch after decompression")
    records: list[tuple[int, int, bytes]] = []
    offset = 0
    for _ in range(count):
        lsn, rtype, length = _WAL_RECORD_HEADER.unpack_from(raw, offset)
        offset += _WAL_RECORD_HEADER.size
        records.append((lsn, rtype, bytes(raw[offset : offset + length])))
        offset += length
    if records and (records[0][0] != first or records[-1][0] != last):
        raise ValueError("WAL batch LSN range mismatch")
    return records


def encode_snapshot_seed(checkpoint_lsn: int, files: list[tuple[str, bytes]]) -> bytes:
    """A full snapshot for a follower behind the WAL truncation horizon.

    ``files`` are ``(relative_path, contents)`` pairs — the snapshot
    directory name plus each file within it, so the follower can install
    the directory verbatim and recover through the normal snapshot loader.
    """
    parts = [_SEED_HEADER.pack(REPL_SNAPSHOT_SEED, checkpoint_lsn, len(files))]
    for name, data in files:
        compressed = zlib.compress(data, 1)
        parts.append(pack_string(name))
        parts.append(struct.pack("<II", len(data), len(compressed)))
        parts.append(compressed)
    return b"".join(parts)


def decode_snapshot_seed(payload: bytes) -> tuple[int, list[tuple[str, bytes]]]:
    buffer = memoryview(payload)
    kind, checkpoint_lsn, count = _SEED_HEADER.unpack_from(buffer, 0)
    if kind != REPL_SNAPSHOT_SEED:
        raise ValueError(f"not a snapshot seed frame (kind {kind})")
    offset = _SEED_HEADER.size
    files: list[tuple[str, bytes]] = []
    for _ in range(count):
        name, offset = unpack_string(buffer, offset)
        raw_len, comp_len = struct.unpack_from("<II", buffer, offset)
        offset += 8
        data = zlib.decompress(bytes(buffer[offset : offset + comp_len]))
        offset += comp_len
        if len(data) != raw_len:
            raise ValueError(f"seed file {name!r} length mismatch")
        files.append((name, data))
    return checkpoint_lsn, files


def decode_replication_kind(payload: bytes) -> int:
    """The stream-frame kind byte (REPL_WAL_BATCH / REPL_SNAPSHOT_SEED)."""
    if not payload:
        raise ValueError("empty replication stream frame")
    return payload[0]
