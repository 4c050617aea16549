"""One GreedyGD-compressed block of rows.

:class:`CompressedStore` is one block of the "Compressed Data" of Fig. 2:
the GD split (deduplicated bases, per-row base ids and deviations) of the
rows' integer codes, plus each column's null bitmap.  It holds nothing of
the table it belongs to — name, schema, pre-processor and column order
live once, on the :class:`~repro.gd.partitioned.PartitionedStore` that
owns the blocks, and the block's columns are in that store's column
order.  It supports incremental appends (red arrows in Fig. 2) and
exposes its bases shifted back to the code domain, so PairwiseHist can
use them as initial histogram bin edges (§3, "PairwiseHist").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import greedygd
from .greedygd import GDSplit


@dataclass
class CompressedStore:
    """GreedyGD split of one block of rows plus its per-column null bitmaps."""

    split: GDSplit
    null_masks: dict[str, np.ndarray]

    @property
    def num_rows(self) -> int:
        return self.split.num_rows

    def compressed_bytes(self) -> int:
        """Compressed payload size (bases + ids + deviations + null bitmaps)."""
        null_bits = sum(len(mask) for mask in self.null_masks.values())
        return self.split.compressed_bytes() + (null_bits + 7) // 8

    def base_values(self, index: int) -> np.ndarray:
        """Distinct base values of column ``index``, shifted back to the code domain.

        These are the "bases" that seed PairwiseHist's initial bin edges: each
        base represents the most significant bits of the column, so shifting
        back up gives a coarse grid over the column's value range.
        """
        shift = int(self.split.deviation_bits[index])
        values = np.unique(self.split.bases[:, index]) << shift
        return values.astype(np.int64)

    def append(self, codes: np.ndarray, nulls: dict[str, np.ndarray]) -> "CompressedStore":
        """A new block with rows added: ``codes`` is their code matrix (one
        column per column of this block), ``nulls`` their null masks."""
        return CompressedStore(
            split=greedygd.append(self.split, codes),
            null_masks={
                name: np.concatenate([mask, nulls[name]])
                for name, mask in self.null_masks.items()
            },
        )
