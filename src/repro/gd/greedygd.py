"""GreedyGD: Generalized Deduplication with greedy base-bit selection.

Generalized Deduplication (Fig. 3 of the paper) splits every data chunk
(here: a table row, integer-encoded by the :mod:`~repro.gd.preprocessor`)
into a *base* containing the most significant bits of each attribute and a
*deviation* containing the remaining low-order bits.  Bases are
deduplicated; deviations are stored verbatim together with the id of their
base.  Compression is achieved when many rows share a base.

GreedyGD chooses *how many* low-order bits of each column go to the
deviation.  The greedy search implemented here follows the published
algorithm's structure: starting from "all bits in the base", it repeatedly
moves one more bit of whichever column most reduces the estimated
compressed size, and stops when no single move helps.  The search runs
on at most :data:`SEARCH_ROWS` rows and gives a column at most
:data:`MAX_DEVIATION_BITS`.

:func:`compress` splits a block from scratch; :func:`append` adds rows to
an existing split under its bit assignment.  A partitioned store
compresses each fresh tail partition warm-started from the previous
partition's deviation bits: rows arriving on one stream share a
distribution, so the warm start is usually already at (or one move from)
the greedy optimum and the search ends in a couple of iterations instead
of walking up from zero deviation bits.  Registration has no previous
partition and starts cold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


#: Most rows the bit-selection search evaluates candidates on: the search
#: is quadratic in the number of columns, so larger inputs are strided
#: down to this many rows.
SEARCH_ROWS = 20_000
#: Most deviation bits a column may take (keeps the ``1 << bits``
#: deviation mask inside int64).
MAX_DEVIATION_BITS = 62


def _size_bits(
    num_rows: int, num_bases: int, deviation_bits: np.ndarray, total_bits: np.ndarray
) -> int:
    """Compressed size in bits: every base once, every row's deviation and base id."""
    base_bits = int((total_bits - deviation_bits).sum())
    id_bits = max(1, int(np.ceil(np.log2(max(num_bases, 2)))))
    return num_bases * base_bits + num_rows * (int(deviation_bits.sum()) + id_bits)


@dataclass
class GDSplit:
    """Result of compressing a block of integer-encoded rows."""

    #: Unique bases, shape ``(num_bases, num_columns)``; column ``c`` holds
    #: ``code >> deviation_bits[c]``.
    bases: np.ndarray
    #: Index of the base for every row, shape ``(num_rows,)``.
    base_ids: np.ndarray
    #: Deviation values per row and column, shape ``(num_rows, num_columns)``.
    deviations: np.ndarray
    #: Number of low-order bits assigned to the deviation, per column.
    deviation_bits: np.ndarray
    #: Number of bits required per column code (base bits + deviation bits).
    total_bits: np.ndarray

    @property
    def num_bases(self) -> int:
        return int(self.bases.shape[0])

    @property
    def num_rows(self) -> int:
        return int(self.base_ids.shape[0])

    def compressed_bits(self) -> int:
        """Estimated compressed payload size in bits (bases + ids + deviations)."""
        return _size_bits(self.num_rows, self.num_bases, self.deviation_bits, self.total_bits)

    def compressed_bytes(self) -> int:
        return (self.compressed_bits() + 7) // 8

    def reconstruct(self, row_indices: np.ndarray | None = None) -> np.ndarray:
        """Losslessly reconstruct integer codes for the given rows (all by default)."""
        if row_indices is None:
            row_indices = np.arange(self.num_rows)
        rows = np.atleast_1d(np.asarray(row_indices, dtype=int))
        bases = self.bases[self.base_ids[rows]]
        return (bases << self.deviation_bits) | self.deviations[rows]


def _estimate_bits(
    codes: np.ndarray, deviation_bits: np.ndarray, total_bits: np.ndarray
) -> tuple[int, int]:
    """Estimated compressed size (bits) and base count for a bit assignment."""
    num_bases = np.unique(codes >> deviation_bits, axis=0).shape[0]
    return _size_bits(codes.shape[0], num_bases, deviation_bits, total_bits), num_bases


def select_deviation_bits(
    codes: np.ndarray,
    total_bits: np.ndarray,
    warm_start: np.ndarray | None = None,
) -> np.ndarray:
    """Greedy search for the per-column deviation bit counts.

    Parameters
    ----------
    codes:
        Integer-encoded rows, shape ``(rows, columns)``; the search runs on
        at most :data:`SEARCH_ROWS` of them (an even stride).
    total_bits:
        Bits needed per column (from the pre-processor).
    warm_start:
        Optional starting assignment (e.g. the previous tail partition's
        deviation bits on the append path).  A cold start only ever *adds*
        bits — starting from all-in-the-base, removal never helps.  A warm
        start may overshoot what the new rows want, so the warm search is
        bidirectional: each iteration takes the single best +1 / -1 move.
    """
    num_rows, num_cols = codes.shape
    sample = codes[:: max(1, num_rows // SEARCH_ROWS)]
    limits = np.minimum(total_bits, MAX_DEVIATION_BITS)
    if warm_start is not None:
        deviation_bits = np.clip(np.asarray(warm_start, dtype=np.int64), 0, limits)
        moves = (1, -1)
    else:
        deviation_bits = np.zeros(num_cols, dtype=np.int64)
        moves = (1,)
    best_size, _ = _estimate_bits(sample, deviation_bits, total_bits)
    while True:
        best_candidate = None
        for col in range(num_cols):
            for move in moves:
                next_bits = deviation_bits[col] + move
                if next_bits < 0 or next_bits > limits[col]:
                    continue
                candidate = deviation_bits.copy()
                candidate[col] = next_bits
                size, _ = _estimate_bits(sample, candidate, total_bits)
                if size < best_size:
                    best_size = size
                    best_candidate = candidate
        if best_candidate is None:
            return deviation_bits
        deviation_bits = best_candidate


def compress(
    codes: np.ndarray,
    total_bits: np.ndarray,
    warm_start: np.ndarray | None = None,
) -> GDSplit:
    """Split rows into deduplicated bases and verbatim deviations.

    ``warm_start`` seeds the bit-selection search (see
    :func:`select_deviation_bits`); the split itself is exact for
    whatever assignment the search lands on.
    """
    codes = np.asarray(codes, dtype=np.int64)
    total_bits = np.asarray(total_bits, dtype=np.int64)
    if codes.ndim != 2:
        raise ValueError("codes must be a 2-d array of shape (rows, columns)")
    deviation_bits = select_deviation_bits(codes, total_bits, warm_start)
    shifted = codes >> deviation_bits
    masks = (np.int64(1) << deviation_bits) - 1
    deviations = codes & masks
    bases, base_ids = np.unique(shifted, axis=0, return_inverse=True)
    return GDSplit(
        bases=bases,
        base_ids=base_ids.astype(np.int64),
        deviations=deviations,
        deviation_bits=deviation_bits,
        total_bits=total_bits,
    )


def append(split: GDSplit, new_codes: np.ndarray) -> GDSplit:
    """Incrementally add rows to an existing split (new bases appended)."""
    new_codes = np.asarray(new_codes, dtype=np.int64)
    shifted = new_codes >> split.deviation_bits
    masks = (np.int64(1) << split.deviation_bits) - 1
    deviations = new_codes & masks
    base_lookup = {tuple(row): i for i, row in enumerate(split.bases)}
    bases = list(map(tuple, split.bases))
    new_ids = np.empty(len(new_codes), dtype=np.int64)
    for i, row in enumerate(map(tuple, shifted)):
        if row not in base_lookup:
            base_lookup[row] = len(bases)
            bases.append(row)
        new_ids[i] = base_lookup[row]
    return GDSplit(
        bases=np.asarray(bases, dtype=np.int64),
        base_ids=np.concatenate([split.base_ids, new_ids]),
        deviations=np.vstack([split.deviations, deviations]),
        deviation_bits=split.deviation_bits,
        total_bits=split.total_bits,
    )
