"""Framing-consolidation pins: one helper set, byte-identical formats.

PR 5 consolidated the three binary-framing flavours (``core.serialization``
pack helpers, ``storage.codec``, the GD partition dump) onto the shared
helper set in :mod:`repro.storage.codec`.  These tests pin the on-disk
byte layouts against *independent* inline reimplementations of the legacy
framing, so a future refactor of the shared helpers cannot silently
change any format — recovery of old data directories depends on it.
"""

from __future__ import annotations

import struct
from dataclasses import replace

import numpy as np
import pytest
from conftest import make_simple_table

from repro.core.params import PairwiseHistParams
from repro.core.serialization import (
    LazyPartitionSynopses,
    deserialize_catalog,
    deserialize_partitioned,
    serialize,
    serialize_catalog,
    serialize_partitioned,
)
from repro.data.table import Table
from repro.gd.partitioned import dump_partition, load_partition
from repro.service import framing
from repro.service.database import Database
from repro.storage import codec


# --------------------------------------------------------------------------- #
# Legacy framing, reimplemented inline (the pre-consolidation byte layouts)


def legacy_short_string(text: str) -> bytes:
    raw = text.encode("utf-8")
    return struct.pack("<H", len(raw)) + raw


def legacy_frame_blobs(blobs: list[bytes]) -> bytes:
    framed = [struct.pack("<I", len(blobs))]
    for blob in blobs:
        framed.append(struct.pack("<Q", len(blob)))
        framed.append(blob)
    return b"".join(framed)


def legacy_ndarray8(arr: np.ndarray) -> bytes:
    arr = np.ascontiguousarray(arr)
    header = struct.pack("<8sB", arr.dtype.str.encode("ascii"), arr.ndim)
    shape = struct.pack(f"<{arr.ndim}Q", *arr.shape)
    raw = arr.tobytes()
    return header + shape + struct.pack("<Q", len(raw)) + raw


def legacy_bool_array(mask: np.ndarray) -> bytes:
    mask = np.asarray(mask, dtype=bool)
    return struct.pack("<Q", len(mask)) + np.packbits(mask).tobytes()


# --------------------------------------------------------------------------- #
# Primitive-level pins


def test_short_string_layout_pinned():
    for text in ("", "x", "columna", "ünïcode"):
        assert codec.pack_short_string(text) == legacy_short_string(text)
        got, end = codec.unpack_short_string(
            memoryview(codec.pack_short_string(text) + b"trailer"), 0
        )
        assert got == text
        assert end == len(codec.pack_short_string(text))


def test_frame_blobs_layout_pinned():
    blobs = [b"", b"a", b"0123456789" * 7]
    assert codec.frame_blobs(blobs) == legacy_frame_blobs(blobs)
    decoded, end = codec.unframe_blobs(codec.frame_blobs(blobs) + b"!!")
    assert decoded == blobs
    assert end == len(codec.frame_blobs(blobs))


def test_ndarray8_layout_pinned():
    arrays = [
        np.arange(7, dtype=np.int64),
        np.arange(6, dtype=np.uint8).reshape(2, 3),
        np.array([], dtype=np.float64),
        np.linspace(0, 1, 5),
    ]
    for arr in arrays:
        framed = codec.pack_ndarray8(arr)
        assert framed == legacy_ndarray8(arr)
        got, end = codec.unpack_ndarray8(memoryview(framed + b"xx"), 0)
        np.testing.assert_array_equal(got, arr)
        assert got.dtype == arr.dtype and end == len(framed)


def test_bool_array_layout_pinned():
    for mask in (np.zeros(0, bool), np.array([True]), np.arange(19) % 3 == 0):
        framed = codec.pack_bool_array(mask)
        assert framed == legacy_bool_array(mask)
        got, end = codec.unpack_bool_array(memoryview(framed + b"x"), 0)
        np.testing.assert_array_equal(got, mask)
        assert end == len(framed)


#: One frame per length-prefixed reader.
_LENGTH_PREFIXED = {
    "string": (codec.unpack_string, codec.pack_string("column")),
    "optional_string": (codec.unpack_optional_string, codec.pack_optional_string("column")),
    "short_string": (codec.unpack_short_string, codec.pack_short_string("column")),
    "bytes": (codec.unpack_bytes, codec.pack_bytes(b"column")),
    "bool_array": (codec.unpack_bool_array, codec.pack_bool_array(np.arange(19) % 3 == 0)),
    "blobs": (codec.unframe_blobs, codec.frame_blobs([b"abc", b"abcdef"])),
}


@pytest.mark.parametrize("kind", sorted(_LENGTH_PREFIXED))
def test_truncated_frame_raises_value_error(kind):
    """A frame cut at any offset raises: a declared length that runs past
    the buffer is an error, never a short read of the prefix."""
    reader, frame = _LENGTH_PREFIXED[kind]
    for cut in range(len(frame)):
        with pytest.raises(ValueError):
            reader(memoryview(frame[:cut]), 0)


def test_truncated_ingest_frame_never_decodes():
    """Wire ingest frames carry no CRC: every cut of one (its last column
    categorical with a NULL, so a cut can land inside a label or a NULL
    marker) raises what the server rejects a frame with."""
    rows = Table.from_dict(
        {"x": [1.5, np.nan, 3.0], "label": ["alpha", None, "gamma"]}, name="t"
    )
    frame = framing.encode_ingest("t", rows)
    assert framing.decode_ingest(frame)[1].num_rows == 3
    for cut in range(len(frame)):
        with pytest.raises((ValueError, struct.error)):
            framing.decode_ingest(frame[:cut])


# --------------------------------------------------------------------------- #
# Format-level pins (the consumers of the shared helpers)


@pytest.fixture(scope="module")
def managed_table():
    table = make_simple_table(rows=1200, seed=9, name="framed")
    database = Database(
        default_params=PairwiseHistParams.with_defaults(sample_size=1200, seed=2),
        partition_size=500,
    )
    return database.register(table)


def test_partition_dump_layout_pinned(managed_table):
    partition = managed_table.store.partitions[0]
    payload = dump_partition(partition)
    split = partition.split
    expected = [b"GDP1"]
    for arr in (
        split.bases,
        split.base_ids,
        split.deviations,
        split.deviation_bits,
        split.total_bits,
    ):
        expected.append(legacy_ndarray8(arr))
    columns = managed_table.store.column_order
    expected.append(struct.pack("<I", len(columns)))
    for name in columns:
        expected.append(legacy_short_string(name))
        expected.append(legacy_bool_array(partition.null_masks[name]))
    assert payload == b"".join(expected)

    loaded = load_partition(payload)
    assert loaded.num_rows == partition.num_rows
    assert dump_partition(loaded) == payload


def test_partitioned_synopsis_framing_pinned(managed_table):
    synopses = list(managed_table.partition_synopses)
    payload = serialize_partitioned(synopses)
    blobs = [serialize(s) for s in synopses]
    assert payload == b"PWHP" + legacy_frame_blobs(blobs)
    # PWHP round trip is the identity on the payload bytes.
    assert serialize_partitioned(deserialize_partitioned(payload)) == payload


def test_catalog_framing_pinned():
    entries = [b"alpha", b"", b"gamma" * 9]
    payload = serialize_catalog(entries)
    assert payload == b"PWHC" + legacy_frame_blobs(entries)
    assert deserialize_catalog(payload) == entries


def test_lazy_partitioned_payload_round_trips_without_decoding(managed_table):
    payload = serialize_partitioned(list(managed_table.partition_synopses))
    lazy = LazyPartitionSynopses(payload)
    assert len(lazy) == managed_table.num_partitions
    assert not lazy.hydrated
    # Re-serializing an untouched lazy sequence is the identity (no decode).
    assert serialize_partitioned(lazy) == payload
    assert not lazy.hydrated
    # First element access hydrates; the decoded synopses round-trip.
    first = lazy[0]
    assert lazy.hydrated
    assert serialize(first) == serialize(managed_table.partition_synopses[0])
    assert serialize_partitioned(list(lazy)) == payload


def test_store_append_unaffected_by_shared_framing(managed_table):
    """Appending after a dump/load cycle still works (framing is faithful)."""
    store = managed_table.store
    dumped = [dump_partition(p) for p in store.partitions]
    rebuilt = replace(store, partitions=[load_partition(b) for b in dumped])
    extra = make_simple_table(rows=120, seed=10, name="framed")
    affected = rebuilt.append(extra)
    assert affected
    assert rebuilt.num_rows == store.num_rows + 120


# --------------------------------------------------------------------------- #
# Binary wire-protocol pins (repro.service.framing)
#
# Old binary clients keep their connections alive across server upgrades;
# pinning the frame layouts against inline reimplementations keeps the
# wire format stable the same way the on-disk pins above do.


def legacy_string(text: str) -> bytes:
    raw = text.encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


def legacy_optional_string(text) -> bytes:
    if text is None:
        return struct.pack("<I", 0xFFFFFFFF)
    return legacy_string(text)


def legacy_double(value) -> bytes:
    return struct.pack("<d", float("nan") if value is None else float(value))


def legacy_result_list(results) -> bytes:
    parts = [struct.pack("<I", len(results))]
    for result in results:
        parts.append(legacy_string(result["aggregation"]))
        parts.append(legacy_double(result["value"]))
        parts.append(legacy_double(result["lower"]))
        parts.append(legacy_double(result["upper"]))
        parts.append(legacy_optional_string(result.get("group")))
    return b"".join(parts)


def test_wire_frame_header_layout_pinned():
    assert framing.MAGIC == b"AQP1"
    assert framing.HEADER_SIZE == 13
    frame = framing.encode_frame(framing.OP_QUERY, 0x0102030405060708, b"pay")
    assert frame == struct.pack("<BQI", 2, 0x0102030405060708, 3) + b"pay"
    assert framing.decode_header(frame[:13]) == (2, 0x0102030405060708, 3)
    # The op/status numbering is part of the wire contract.
    assert (
        framing.OP_PING,
        framing.OP_QUERY,
        framing.OP_QUERY_BATCH,
        framing.OP_INGEST,
        framing.OP_JSON,
    ) == (1, 2, 3, 4, 5)
    assert (
        framing.STATUS_OK,
        framing.STATUS_ERROR,
        framing.STATUS_OVERLOADED,
    ) == (0, 1, 2)


def test_traced_frame_trailer_layout_pinned():
    """The trace trailer is frozen: flag bit on the op byte, 24 raw bytes
    *after* the payload, and ``payload_len`` counting the payload only —
    an old client that never sets the flag produces (and an old server
    that never sees it receives) byte-identical untraced frames."""
    trace_id = bytes(range(16))
    span_id = bytes(range(16, 24))
    frame = framing.encode_frame(
        framing.OP_QUERY, 0x0102030405060708, b"pay", trace=(trace_id, span_id)
    )
    assert frame == (
        struct.pack("<BQI", 2 | 0x80, 0x0102030405060708, 3)
        + b"pay"
        + trace_id
        + span_id
    )
    assert framing.TRACE_FLAG == 0x80
    assert framing.TRACE_TRAILER_SIZE == 24
    op, request_id, length = framing.decode_header(frame[: framing.HEADER_SIZE])
    assert op & framing.TRACE_FLAG
    assert op & ~framing.TRACE_FLAG == framing.OP_QUERY
    assert length == 3  # payload only — the trailer is not counted
    assert framing.decode_trace_trailer(frame[framing.HEADER_SIZE + 3 :]) == (
        trace_id,
        span_id,
    )
    # No trace, no change: untraced frames are byte-identical to the seed.
    untraced = framing.encode_frame(framing.OP_QUERY, 0x0102030405060708, b"pay")
    assert untraced == struct.pack("<BQI", 2, 0x0102030405060708, 3) + b"pay"
    # No legacy op collides with the flag bit (all < 0x80).
    for op_value in (
        framing.OP_PING,
        framing.OP_QUERY,
        framing.OP_QUERY_BATCH,
        framing.OP_INGEST,
        framing.OP_JSON,
        framing.OP_SUBSCRIBE,
        framing.OP_WAL_ACK,
    ):
        assert op_value < framing.TRACE_FLAG


def test_wire_query_payloads_pinned():
    sql = "SELECT COUNT(*) FROM stream"
    assert framing.encode_query(sql) == legacy_string(sql)
    assert framing.decode_query(framing.encode_query(sql)) == sql

    sqls = ["SELECT AVG(x) FROM t", "SELECT SUM(y) FROM t WHERE x > 1", ""]
    expected = struct.pack("<I", 3) + b"".join(legacy_string(s) for s in sqls)
    assert framing.encode_query_batch(sqls) == expected
    assert framing.decode_query_batch(expected) == sqls


def test_wire_ingest_payload_pinned():
    rows = make_simple_table(rows=40, seed=11, name="stream")
    payload = framing.encode_ingest("stream", rows, coalesce=False)
    assert payload == (
        struct.pack("<B", 0) + legacy_string("stream") + codec.encode_table(rows)
    )
    name, decoded, coalesce = framing.decode_ingest(payload)
    assert name == "stream" and coalesce is False
    assert decoded.num_rows == 40
    assert codec.encode_table(decoded) == codec.encode_table(rows)


def test_wire_result_payloads_pinned():
    scalar = {
        "results": [
            {"aggregation": "AVG(x)", "value": 1.5, "lower": 1.0, "upper": 2.0},
            {"aggregation": "COUNT(*)", "value": None, "lower": None, "upper": None},
        ]
    }
    payload = framing.encode_result(scalar)
    assert payload == struct.pack("<B", 0) + legacy_result_list(scalar["results"])
    decoded = framing.decode_result(payload)
    assert decoded == {
        "results": [
            {**scalar["results"][0], "group": None},
            {**scalar["results"][1], "group": None},
        ]
    }

    grouped = {
        "groups": {
            "alpha": [
                {
                    "aggregation": "SUM(y)",
                    "value": 3.0,
                    "lower": 2.5,
                    "upper": 3.5,
                    "group": "alpha",
                }
            ],
            "beta": [],
        }
    }
    payload = framing.encode_result(grouped)
    expected = struct.pack("<BI", 1, 2)
    for label, results in grouped["groups"].items():
        expected += legacy_string(label) + legacy_result_list(results)
    assert payload == expected
    assert framing.decode_result(payload) == grouped


def test_wire_error_and_batch_response_pinned():
    assert framing.encode_error("KeyError", "no such table") == legacy_string(
        "KeyError"
    ) + legacy_string("no such table")
    assert framing.decode_error(framing.encode_error("A", "b")) == ("A", "b")
    assert framing.OVERLOADED_ERROR_TYPE == "Overloaded"

    ok_result = {
        "results": [
            {
                "aggregation": "AVG(x)",
                "value": 1.0,
                "lower": 0.5,
                "upper": 1.5,
                "group": None,
            }
        ]
    }
    items = [
        {"ok": True, "result": ok_result},
        {"ok": False, "error_type": "ParseError", "error": "bad sql"},
    ]
    payload = framing.encode_batch_response(items)
    ok_block = framing.encode_result(ok_result)
    err_block = framing.encode_error("ParseError", "bad sql")
    assert payload == (
        struct.pack("<I", 2)
        + struct.pack("<BI", 1, len(ok_block))
        + ok_block
        + struct.pack("<BI", 0, len(err_block))
        + err_block
    )
    assert framing.decode_batch_response(payload) == items
