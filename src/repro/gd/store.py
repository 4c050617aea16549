"""Compressed columnar store combining the pre-processor and GreedyGD.

:class:`CompressedStore` is the "Compressed Data" block of Fig. 2: it owns
the per-column transforms, the deduplicated bases, the per-row base ids and
deviations, supports incremental appends (red arrows in Fig. 2), random row
access, lossless reconstruction and storage accounting — and it exposes the
bases in each column's compressed domain so PairwiseHist can use them as
initial histogram bin edges (§3, "PairwiseHist").
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..data.schema import TableSchema
from ..data.table import Table
from . import greedygd
from .greedygd import GDSplit
from .preprocessor import Preprocessor


@dataclass
class CompressedStore:
    """GreedyGD-compressed representation of a single table."""

    table_name: str
    schema: TableSchema
    preprocessor: Preprocessor
    split: GDSplit
    null_masks: dict[str, np.ndarray]
    _column_order: list[str] = field(default_factory=list)
    #: Memoized full decode of the split (bases + deviations -> codes).  The
    #: reconstruction is read-only and shared by every accessor; ``append``
    #: returns a fresh store, so the cache never outlives its split.
    _decoded: np.ndarray | None = field(default=None, repr=False, compare=False)

    # ------------------------------------------------------------------ #
    # Construction

    @classmethod
    def compress(cls, table: Table) -> "CompressedStore":
        """Pre-process and compress a table."""
        preprocessor = Preprocessor.fit(table)
        codes, nulls = preprocessor.transform_table(table)
        order = table.column_names
        matrix = np.column_stack([codes[name] for name in order]) if order else np.empty((table.num_rows, 0), dtype=np.int64)
        bits = preprocessor.bits_per_column()
        total_bits = np.array([bits[name] for name in order], dtype=np.int64)
        split = greedygd.compress(matrix, total_bits)
        return cls(
            table_name=table.name,
            schema=table.schema,
            preprocessor=preprocessor,
            split=split,
            null_masks=nulls,
            _column_order=order,
        )

    # ------------------------------------------------------------------ #
    # Introspection

    @property
    def num_rows(self) -> int:
        return self.split.num_rows

    @property
    def num_bases(self) -> int:
        return self.split.num_bases

    @property
    def column_order(self) -> list[str]:
        return list(self._column_order)

    def compressed_bytes(self) -> int:
        """Compressed payload size (bases + ids + deviations + null bitmaps)."""
        null_bits = sum(len(mask) for mask in self.null_masks.values())
        return self.split.compressed_bytes() + (null_bits + 7) // 8

    def compression_ratio(self, original_bytes: int) -> float:
        """Original size divided by compressed size."""
        compressed = self.compressed_bytes()
        return original_bytes / compressed if compressed else float("inf")

    # ------------------------------------------------------------------ #
    # Access

    def _decoded_matrix(self) -> np.ndarray:
        """Full decoded code matrix, computed once and memoized."""
        if self._decoded is None:
            self._decoded = self.split.reconstruct()
        return self._decoded

    def column_codes(self, name: str) -> np.ndarray:
        """Integer codes of one column, reconstructed from bases + deviations."""
        idx = self._column_order.index(name)
        return self._decoded_matrix()[:, idx]

    def base_values(self, name: str) -> np.ndarray:
        """Distinct base values of one column, shifted back to the code domain.

        These are the "bases" that seed PairwiseHist's initial bin edges: each
        base represents the most significant bits of the column, so shifting
        back up gives a coarse grid over the column's value range.
        """
        idx = self._column_order.index(name)
        shift = int(self.split.deviation_bits[idx])
        values = np.unique(self.split.bases[:, idx]) << shift
        return values.astype(np.int64)

    def reconstruct_rows(self, row_indices: np.ndarray | None = None) -> Table:
        """Losslessly reconstruct (a subset of) the original table."""
        if row_indices is None:
            row_indices = np.arange(self.num_rows)
            codes = self._decoded_matrix()
        else:
            codes = self.split.reconstruct(row_indices)
        columns: dict[str, np.ndarray] = {}
        for idx, name in enumerate(self._column_order):
            transform = self.preprocessor[name]
            mask = self.null_masks[name][row_indices]
            columns[name] = transform.inverse_array(codes[:, idx], mask)
        return Table(name=self.table_name, schema=self.schema, columns=columns)

    def decoded_codes(self) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
        """All column codes plus null masks (input format for PairwiseHist)."""
        reconstructed = self._decoded_matrix()
        codes = {name: reconstructed[:, i] for i, name in enumerate(self._column_order)}
        return codes, self.null_masks

    # ------------------------------------------------------------------ #
    # Updates

    def append(self, table: Table) -> "CompressedStore":
        """Add new rows (same schema) to the compressed store.

        Returns a new store whose decoded-matrix cache starts empty, so a
        stale reconstruction can never be served after an append.
        """
        if table.schema.names != self.schema.names:
            raise ValueError("appended rows must match the store schema")
        codes, nulls = self.preprocessor.transform_table(table)
        matrix = np.column_stack([codes[name] for name in self._column_order])
        new_split = greedygd.append(self.split, matrix)
        merged_nulls = {
            name: np.concatenate([self.null_masks[name], nulls[name]])
            for name in self._column_order
        }
        return CompressedStore(
            table_name=self.table_name,
            schema=self.schema,
            preprocessor=self.preprocessor,
            split=new_split,
            null_masks=merged_nulls,
            _column_order=self._column_order,
        )
