"""Binary codecs for the durable-storage subsystem.

Two layers live here:

* **Shared framing primitives** — length-prefixed strings (4-byte and
  2-byte flavours), length-prefixed byte blobs, framed numpy arrays (two
  historical headers, both kept byte-identical), bit-packed boolean
  bitmaps and the count-prefixed blob sequences every multi-part payload
  uses.  These are the *single* source of framing truth:
  :mod:`repro.core.serialization` (synopsis payloads),
  :mod:`repro.gd.partitioned` (GD partition dumps) and
  :mod:`repro.storage.snapshot` all build on them, so the three on-disk
  formats can no longer drift apart.  This module therefore sits at the
  bottom of the dependency stack — anything outside :mod:`repro.data`
  and numpy is imported lazily inside the functions that need it.
* **Durable-storage payload codecs** — table schemas, fitted
  pre-processors, raw row batches (the WAL payloads) and the per-table
  catalog entries a snapshot writes.

All framing is explicit little-endian ``struct`` packing — no pickle, so
payloads are stable across Python versions and safe to read from
untrusted data directories.  A length-prefixed reader raises
:class:`ValueError` when its prefix or the length it declares runs past
the buffer, so a truncated frame never decodes as its prefix.
"""

from __future__ import annotations

import struct
from typing import TYPE_CHECKING

import numpy as np

from ..data.schema import ColumnSchema, ColumnType, TableSchema
from ..data.table import Table

if TYPE_CHECKING:  # heavyweight imports stay lazy at runtime (see docstring)
    from ..core.params import PairwiseHistParams
    from ..gd.preprocessor import Preprocessor

_NULL_STRING = 0xFFFFFFFF


# --------------------------------------------------------------------------- #
# Primitives


_U16, _U32, _U64 = struct.Struct("<H"), struct.Struct("<I"), struct.Struct("<Q")


def _read_length(prefix: struct.Struct, buffer: memoryview, offset: int) -> tuple[int, int]:
    """A length prefix and the offset after it; :class:`ValueError` when the
    buffer ends inside the prefix."""
    end = offset + prefix.size
    if end > len(buffer):
        raise ValueError(f"truncated payload: length prefix at offset {offset} runs past the end")
    return prefix.unpack_from(buffer, offset)[0], end


def _read_span(buffer: memoryview, offset: int, length: int) -> tuple[memoryview, int]:
    """The ``length`` bytes at ``offset`` and the offset after them;
    :class:`ValueError` when a declared length runs past the buffer."""
    end = offset + length
    if end > len(buffer):
        raise ValueError(
            f"truncated payload: {length} bytes declared at offset {offset}, "
            f"{len(buffer) - offset} left"
        )
    return buffer[offset:end], end


def pack_string(text: str) -> bytes:
    raw = text.encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


def unpack_string(buffer: memoryview, offset: int) -> tuple[str, int]:
    length, offset = _read_length(_U32, buffer, offset)
    raw, offset = _read_span(buffer, offset, length)
    return bytes(raw).decode("utf-8"), offset


def pack_optional_string(text: str | None) -> bytes:
    if text is None:
        return struct.pack("<I", _NULL_STRING)
    return pack_string(text)


def unpack_optional_string(buffer: memoryview, offset: int) -> tuple[str | None, int]:
    length, offset = _read_length(_U32, buffer, offset)
    if length == _NULL_STRING:
        return None, offset
    raw, offset = _read_span(buffer, offset, length)
    return bytes(raw).decode("utf-8"), offset


def pack_short_string(text: str) -> bytes:
    """2-byte-length string framing (the synopsis / GD-partition flavour)."""
    raw = text.encode("utf-8")
    return struct.pack("<H", len(raw)) + raw


def unpack_short_string(buffer: memoryview, offset: int) -> tuple[str, int]:
    length, offset = _read_length(_U16, buffer, offset)
    raw, offset = _read_span(buffer, offset, length)
    return bytes(raw).decode("utf-8"), offset


def pack_bytes(payload: bytes) -> bytes:
    return struct.pack("<Q", len(payload)) + payload


def unpack_bytes(buffer: memoryview, offset: int) -> tuple[bytes, int]:
    length, offset = _read_length(_U64, buffer, offset)
    raw, offset = _read_span(buffer, offset, length)
    return bytes(raw), offset


def pack_array(arr: np.ndarray) -> bytes:
    """Frame a numpy array: dtype string, shape, then raw C-order bytes."""
    arr = np.ascontiguousarray(arr)
    parts = [pack_string(arr.dtype.str), struct.pack("<B", arr.ndim)]
    parts.append(struct.pack(f"<{arr.ndim}Q", *arr.shape))
    parts.append(pack_bytes(arr.tobytes()))
    return b"".join(parts)


def unpack_array(buffer: memoryview, offset: int) -> tuple[np.ndarray, int]:
    dtype_str, offset = unpack_string(buffer, offset)
    (ndim,) = struct.unpack_from("<B", buffer, offset)
    offset += 1
    shape = struct.unpack_from(f"<{ndim}Q", buffer, offset)
    offset += 8 * ndim
    raw, offset = unpack_bytes(buffer, offset)
    arr = np.frombuffer(raw, dtype=np.dtype(dtype_str)).reshape(shape).copy()
    return arr, offset


def pack_bool_array(mask: np.ndarray) -> bytes:
    """Bit-packed boolean array (null bitmaps)."""
    mask = np.asarray(mask, dtype=bool)
    return struct.pack("<Q", len(mask)) + np.packbits(mask).tobytes()


def unpack_bool_array(buffer: memoryview, offset: int) -> tuple[np.ndarray, int]:
    length, offset = _read_length(_U64, buffer, offset)
    raw, offset = _read_span(buffer, offset, (length + 7) // 8)
    packed = np.frombuffer(raw, dtype=np.uint8)
    mask = np.unpackbits(packed, count=length).astype(bool) if length else np.zeros(0, dtype=bool)
    return mask, offset


def frame_blobs(blobs: list[bytes]) -> bytes:
    """Count-prefixed blob sequence: ``<I`` count, then ``<Q`` length + bytes
    per blob.  The layout shared by partitioned synopsis payloads, snapshot
    catalogs and snapshot partition files."""
    framed = [struct.pack("<I", len(blobs))]
    for blob in blobs:
        framed.append(struct.pack("<Q", len(blob)))
        framed.append(blob)
    return b"".join(framed)


def unframe_blobs(buffer: memoryview | bytes, offset: int = 0) -> tuple[list[bytes], int]:
    """Inverse of :func:`frame_blobs`; returns the blobs and the end offset."""
    buffer = memoryview(buffer)
    count, offset = _read_length(_U32, buffer, offset)
    blobs: list[bytes] = []
    for _ in range(count):
        blob, offset = unpack_bytes(buffer, offset)
        blobs.append(blob)
    return blobs, offset


def pack_ndarray8(arr: np.ndarray) -> bytes:
    """Frame a numpy array with a fixed 8-byte dtype header (the GD
    partition-dump flavour): ``<8s`` dtype string, ``<B`` ndim, ``<Q``
    shape entries, ``<Q`` byte length, raw C-order bytes."""
    arr = np.ascontiguousarray(arr)
    header = struct.pack("<8sB", arr.dtype.str.encode("ascii"), arr.ndim)
    shape = struct.pack(f"<{arr.ndim}Q", *arr.shape)
    raw = arr.tobytes()
    return header + shape + struct.pack("<Q", len(raw)) + raw


def unpack_ndarray8(buffer: memoryview, offset: int) -> tuple[np.ndarray, int]:
    dtype_raw, ndim = struct.unpack_from("<8sB", buffer, offset)
    offset += struct.calcsize("<8sB")
    shape = struct.unpack_from(f"<{ndim}Q", buffer, offset)
    offset += 8 * ndim
    (length,) = struct.unpack_from("<Q", buffer, offset)
    offset += 8
    dtype = np.dtype(dtype_raw.rstrip(b"\x00").decode("ascii"))
    arr = np.frombuffer(buffer[offset : offset + length], dtype=dtype).reshape(shape).copy()
    return arr, offset + length


# --------------------------------------------------------------------------- #
# Schema


def encode_schema(schema: TableSchema) -> bytes:
    parts = [struct.pack("<I", len(schema))]
    for column in schema:
        parts.append(pack_string(column.name))
        parts.append(pack_string(column.ctype.value))
        parts.append(struct.pack("<iB", column.decimals, bool(column.nullable)))
        if column.categories is None:
            parts.append(struct.pack("<I", _NULL_STRING))
        else:
            parts.append(struct.pack("<I", len(column.categories)))
            for label in column.categories:
                parts.append(pack_string(label))
    return b"".join(parts)


def decode_schema(buffer: memoryview, offset: int = 0) -> tuple[TableSchema, int]:
    (count,) = struct.unpack_from("<I", buffer, offset)
    offset += 4
    columns: list[ColumnSchema] = []
    for _ in range(count):
        name, offset = unpack_string(buffer, offset)
        ctype, offset = unpack_string(buffer, offset)
        decimals, nullable = struct.unpack_from("<iB", buffer, offset)
        offset += 5
        (num_categories,) = struct.unpack_from("<I", buffer, offset)
        offset += 4
        categories: list[str] | None = None
        if num_categories != _NULL_STRING:
            categories = []
            for _ in range(num_categories):
                label, offset = unpack_string(buffer, offset)
                categories.append(label)
        columns.append(
            ColumnSchema(
                name=name,
                ctype=ColumnType(ctype),
                decimals=decimals,
                categories=categories,
                nullable=bool(nullable),
            )
        )
    return TableSchema(columns), offset


# --------------------------------------------------------------------------- #
# Preprocessor


def encode_preprocessor(preprocessor: "Preprocessor") -> bytes:
    parts = [struct.pack("<I", len(preprocessor.transforms))]
    for name, t in preprocessor.transforms.items():
        parts.append(pack_string(name))
        parts.append(struct.pack("<Bddqq", t.is_categorical, t.scale, t.offset, t.missing_code, t.max_code))
        parts.append(struct.pack("<I", len(t.categories)))
        for label in t.categories:
            parts.append(pack_string(label))
    return b"".join(parts)


def decode_preprocessor(buffer: memoryview, offset: int = 0) -> tuple["Preprocessor", int]:
    from ..gd.preprocessor import ColumnTransform, Preprocessor

    (count,) = struct.unpack_from("<I", buffer, offset)
    offset += 4
    transforms: dict[str, ColumnTransform] = {}
    for _ in range(count):
        name, offset = unpack_string(buffer, offset)
        is_cat, scale, value_offset, missing, max_code = struct.unpack_from("<Bddqq", buffer, offset)
        offset += struct.calcsize("<Bddqq")
        (num_categories,) = struct.unpack_from("<I", buffer, offset)
        offset += 4
        categories: list[str] = []
        for _ in range(num_categories):
            label, offset = unpack_string(buffer, offset)
            categories.append(label)
        transforms[name] = ColumnTransform(
            name=name,
            is_categorical=bool(is_cat),
            scale=scale,
            offset=value_offset,
            categories=categories,
            missing_code=int(missing),
            max_code=int(max_code),
        )
    return Preprocessor(transforms), offset


# --------------------------------------------------------------------------- #
# Tables (raw row batches — the WAL ingest payload)


def encode_table(table: Table) -> bytes:
    """Losslessly frame a columnar table (float64 / nullable strings)."""
    parts = [pack_string(table.name), encode_schema(table.schema)]
    for column in table.schema:
        values = table.column(column.name)
        if column.is_categorical:
            parts.append(struct.pack("<Q", len(values)))
            parts.append(b"".join(pack_optional_string(v) for v in values))
        else:
            parts.append(pack_array(np.asarray(values, dtype=np.float64)))
    return b"".join(parts)


def decode_table(buffer: memoryview, offset: int = 0) -> tuple[Table, int]:
    name, offset = unpack_string(buffer, offset)
    schema, offset = decode_schema(buffer, offset)
    columns: dict[str, np.ndarray] = {}
    for column in schema:
        if column.is_categorical:
            (count,) = struct.unpack_from("<Q", buffer, offset)
            offset += 8
            values = np.empty(count, dtype=object)
            for i in range(count):
                values[i], offset = unpack_optional_string(buffer, offset)
            columns[column.name] = values
        else:
            columns[column.name], offset = unpack_array(buffer, offset)
    return Table(name=name, schema=schema, columns=columns), offset


# --------------------------------------------------------------------------- #
# WAL payloads


def encode_register_payload(
    table: Table, params: "PairwiseHistParams", partition_size: int
) -> bytes:
    from ..core.serialization import serialize_params

    return b"".join(
        [struct.pack("<q", partition_size), serialize_params(params), encode_table(table)]
    )


def decode_register_payload(payload: bytes) -> tuple[Table, "PairwiseHistParams", int]:
    from ..core.serialization import deserialize_params

    buffer = memoryview(payload)
    (partition_size,) = struct.unpack_from("<q", buffer, 0)
    params, offset = deserialize_params(buffer, 8)
    table, _ = decode_table(buffer, offset)
    return table, params, int(partition_size)


def encode_ingest_payload(table_name: str, rows: Table) -> bytes:
    return pack_string(table_name) + encode_table(rows)


def decode_ingest_payload(payload: bytes) -> tuple[str, Table]:
    buffer = memoryview(payload)
    table_name, offset = unpack_string(buffer, 0)
    rows, _ = decode_table(buffer, offset)
    return table_name, rows


def encode_drop_payload(table_name: str) -> bytes:
    return pack_string(table_name)


def decode_drop_payload(payload: bytes) -> str:
    name, _ = unpack_string(memoryview(payload), 0)
    return name
