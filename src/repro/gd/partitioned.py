"""Partitioned GreedyGD storage: fixed-size blocks of one logical table.

:class:`PartitionedStore` is the "Compressed Data" block of Fig. 2: one
table-level pre-processor over GD-compressed blocks.  It holds the
table's name, schema, fitted pre-processor and column order once; each
partition is a :class:`~repro.gd.store.CompressedStore` holding only its
GD split and null bitmaps, in the shared code domain (so per-partition
synopses can be merged).  This is the shape of Relative Lempel-Ziv
collections: independent blocks referencing one dictionary held once.

Rows pass through the pre-processor in one place (``_transform``) on
the way in and are inverse-transformed in one place
(:meth:`PartitionedStore.reconstruct_rows`) on the way out.  ``append()``
only touches the tail: it tops up the last partition with GreedyGD's
incremental append and compresses overflow rows into fresh partitions,
leaving every sealed partition — and its synopsis — untouched, so update
cost stays bounded as the table grows.  A one-partition store
(``partition_size >= num_rows``) is the unpartitioned table.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from ..data.schema import TableSchema
from ..data.table import Table
from ..storage.codec import (
    pack_bool_array,
    pack_ndarray8,
    pack_short_string,
    unpack_bool_array,
    unpack_ndarray8,
    unpack_short_string,
)
from . import greedygd
from .greedygd import GDSplit
from .preprocessor import Preprocessor
from .store import CompressedStore

#: Default rows per partition — small enough that a tail rebuild is cheap,
#: large enough that GreedyGD still finds shared bases.
DEFAULT_PARTITION_SIZE = 65_536


@dataclass
class PartitionedStore:
    """A list of independently-compressed partitions of one table."""

    table_name: str
    schema: TableSchema
    preprocessor: Preprocessor
    partition_size: int
    partitions: list[CompressedStore] = field(default_factory=list)
    _column_order: list[str] = field(default_factory=list)

    # ------------------------------------------------------------------ #
    # Construction

    @classmethod
    def compress(
        cls,
        table: Table,
        partition_size: int = DEFAULT_PARTITION_SIZE,
    ) -> "PartitionedStore":
        """Pre-process a table once, then compress it partition by partition."""
        if partition_size < 1:
            raise ValueError("partition_size must be positive")
        preprocessor = Preprocessor.fit(table)
        store = cls(
            table_name=table.name,
            schema=table.schema,
            preprocessor=preprocessor,
            partition_size=partition_size,
            _column_order=table.column_names,
        )
        for start in range(0, table.num_rows, partition_size):
            chunk = table.select_rows(np.arange(start, min(start + partition_size, table.num_rows)))
            store.partitions.append(store._compress_partition(chunk))
        if not store.partitions:
            raise ValueError("cannot build a partitioned store from an empty table")
        return store

    def _transform(self, table: Table) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """Rows -> their code matrix in column order, plus their null masks."""
        codes, nulls = self.preprocessor.transform_table(table)
        matrix = (
            np.column_stack([codes[name] for name in self._column_order])
            if self._column_order
            else np.empty((table.num_rows, 0), dtype=np.int64)
        )
        return matrix, nulls

    def _compress_partition(
        self, chunk: Table, warm_start: np.ndarray | None = None
    ) -> CompressedStore:
        """Compress one chunk with the shared pre-processor.

        ``warm_start`` seeds the GreedyGD bit-selection search (the append
        path passes the previous tail partition's deviation bits).
        """
        matrix, nulls = self._transform(chunk)
        bits = self.preprocessor.bits_per_column()
        total_bits = np.array([bits[name] for name in self._column_order], dtype=np.int64)
        split = greedygd.compress(matrix, total_bits, warm_start)
        return CompressedStore(split=split, null_masks=nulls)

    # ------------------------------------------------------------------ #
    # Introspection

    @property
    def num_partitions(self) -> int:
        return len(self.partitions)

    @property
    def num_rows(self) -> int:
        return sum(p.num_rows for p in self.partitions)

    @property
    def column_order(self) -> list[str]:
        return list(self._column_order)

    def partition_row_offsets(self) -> np.ndarray:
        """Global row index at which each partition starts (plus a final total)."""
        sizes = [p.num_rows for p in self.partitions]
        return np.concatenate([[0], np.cumsum(sizes)])

    def compressed_bytes(self) -> int:
        """Compressed payload size summed over all partitions."""
        return sum(p.compressed_bytes() for p in self.partitions)

    def compression_ratio(self, original_bytes: int) -> float:
        compressed = self.compressed_bytes()
        return original_bytes / compressed if compressed else float("inf")

    # ------------------------------------------------------------------ #
    # Access

    def base_values(self, name: str) -> np.ndarray:
        """Distinct GD base values of one column across all partitions."""
        index = self._column_order.index(name)
        values = np.concatenate([p.base_values(index) for p in self.partitions])
        return np.unique(values)

    def reconstruct_rows(self, row_indices: np.ndarray | None = None) -> Table:
        """Losslessly reconstruct (a subset of) the original table.

        Codes are decoded across partitions (global row indices map onto
        the owning partitions; the result keeps the requested order), then
        each column is inverse-transformed once.
        """
        nulls = {
            name: np.concatenate([p.null_masks[name] for p in self.partitions])
            for name in self._column_order
        }
        if row_indices is None:
            codes = np.concatenate([p.split.reconstruct() for p in self.partitions])
        else:
            row_indices = np.asarray(row_indices, dtype=int)
            offsets = self.partition_row_offsets()
            owner = np.searchsorted(offsets, row_indices, side="right") - 1
            by_owner = np.concatenate([
                part.split.reconstruct(row_indices[owner == rank] - offsets[rank])
                for rank, part in enumerate(self.partitions)
            ])
            codes = by_owner[np.argsort(np.argsort(owner, kind="stable"))]
            nulls = {name: mask[row_indices] for name, mask in nulls.items()}
        columns = {
            name: self.preprocessor[name].inverse_array(codes[:, index], nulls[name])
            for index, name in enumerate(self._column_order)
        }
        return Table(name=self.table_name, schema=self.schema, columns=columns)

    # ------------------------------------------------------------------ #
    # Updates

    def append(self, table: Table) -> list[int]:
        """Append rows, compressing only the tail; returns affected partitions.

        The last partition is topped up to ``partition_size`` with
        GreedyGD's incremental append (new bases only, no re-splitting);
        remaining rows are compressed into fresh partitions, each search
        warm-started from the previous partition's deviation bits.  Sealed
        partitions are never touched, so their synopses stay valid — the
        returned indices tell callers exactly which partitions to refresh.

        The append is *swap-safe*: the new partition list is assembled on
        the side and published with a single atomic assignment, so a
        concurrent reader iterating ``partitions`` sees either the old or
        the new list, never a half-appended one.
        """
        if table.schema.names != self.schema.names:
            raise ValueError("appended rows must match the store schema")
        if table.num_rows == 0:
            return []
        partitions = list(self.partitions)
        affected: list[int] = []
        consumed = 0
        tail = partitions[-1]
        capacity = self.partition_size - tail.num_rows
        if capacity > 0:
            take = min(capacity, table.num_rows)
            partitions[-1] = tail.append(*self._transform(table.select_rows(np.arange(take))))
            affected.append(len(partitions) - 1)
            consumed = take
        while consumed < table.num_rows:
            take = min(self.partition_size, table.num_rows - consumed)
            chunk = table.select_rows(np.arange(consumed, consumed + take))
            partitions.append(
                self._compress_partition(chunk, partitions[-1].split.deviation_bits)
            )
            affected.append(len(partitions) - 1)
            consumed += take
        self.partitions = partitions
        return affected


# --------------------------------------------------------------------------- #
# Partition-level binary persistence

_PARTITION_MAGIC = b"GDP1"

# The on-disk framing is the shared helper set in ``repro.storage.codec``
# (8-byte-dtype ndarray frames, 2-byte-length strings, bit-packed masks);
# byte layout is pinned by the framing round-trip tests.


def dump_partition(partition: CompressedStore) -> bytes:
    """Binary blob of one sealed partition: GD split arrays + null bitmaps.

    The blob is self-contained *given* the table-level context (schema,
    shared pre-processor, column order) that the snapshot catalog stores
    once per table — persisting it per partition would duplicate it
    hundreds of times for no benefit.  The null bitmaps are written in
    the order of the partition's ``null_masks``, which is column order.
    """
    split = partition.split
    parts = [_PARTITION_MAGIC]
    for arr in (
        split.bases,
        split.base_ids,
        split.deviations,
        split.deviation_bits,
        split.total_bits,
    ):
        parts.append(pack_ndarray8(arr))
    parts.append(struct.pack("<I", len(partition.null_masks)))
    for name, mask in partition.null_masks.items():
        parts.append(pack_short_string(name))
        parts.append(pack_bool_array(mask))
    return b"".join(parts)


def load_partition(payload: bytes) -> CompressedStore:
    """Inverse of :func:`dump_partition`."""
    buffer = memoryview(payload)
    if bytes(buffer[:4]) != _PARTITION_MAGIC:
        raise ValueError("not a GD partition payload (bad magic)")
    offset = 4
    arrays = []
    for _ in range(5):
        arr, offset = unpack_ndarray8(buffer, offset)
        arrays.append(arr)
    bases, base_ids, deviations, deviation_bits, total_bits = arrays
    (num_columns,) = struct.unpack_from("<I", buffer, offset)
    offset += 4
    null_masks: dict[str, np.ndarray] = {}
    for _ in range(num_columns):
        name, offset = unpack_short_string(buffer, offset)
        null_masks[name], offset = unpack_bool_array(buffer, offset)
    split = GDSplit(
        bases=bases,
        base_ids=base_ids,
        deviations=deviations,
        deviation_bits=deviation_bits,
        total_bits=total_bits,
    )
    return CompressedStore(split=split, null_masks=null_masks)
