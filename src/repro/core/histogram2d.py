"""Two-dimensional (pairwise) histograms and their per-dimension metadata (§4, Fig. 4)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .histogram1d import (
    Histogram1D,
    bin_indices,
    distinct_capacity,
    project_extrema,
    projection_matrix,
)


@dataclass
class AxisMetadata:
    """Per-bin metadata along one dimension of a two-dimensional histogram.

    The 2-d histogram for columns ``(i, j)`` can have more bin edges than the
    corresponding 1-d histograms because of the extra refinement pass
    (superscripts ``(i|j)`` / ``(j|i)`` in the paper).  Metadata — extrema,
    unique counts and marginal counts — is kept per bin of each dimension.
    ``parent`` maps every refined bin back to the 1-d histogram bin that
    contains it, which is how query results are folded back onto the
    aggregation column's 1-d bins (Eq. 27).
    """

    column: str
    edges: np.ndarray
    v_minus: np.ndarray
    v_plus: np.ndarray
    unique: np.ndarray
    marginal_counts: np.ndarray
    parent: np.ndarray

    def __post_init__(self) -> None:
        self.edges = np.asarray(self.edges, dtype=float)
        self.v_minus = np.asarray(self.v_minus, dtype=float)
        self.v_plus = np.asarray(self.v_plus, dtype=float)
        self.unique = np.asarray(self.unique, dtype=float)
        self.marginal_counts = np.asarray(self.marginal_counts, dtype=float)
        self.parent = np.asarray(self.parent, dtype=int)

    @property
    def num_bins(self) -> int:
        return len(self.edges) - 1

    @property
    def midpoints(self) -> np.ndarray:
        return (self.v_plus + self.v_minus) / 2.0


@dataclass
class Histogram2D:
    """Pairwise histogram ``H(ij)`` with per-dimension metadata.

    ``row`` corresponds to column ``i`` (the first column of the pair) and
    ``col`` to column ``j``.  ``counts[ti, tj]`` is the number of sampled
    rows falling in row-bin ``ti`` and column-bin ``tj``.
    """

    row: AxisMetadata
    col: AxisMetadata
    counts: np.ndarray

    def __post_init__(self) -> None:
        self.counts = np.asarray(self.counts, dtype=float)
        expected = (self.row.num_bins, self.col.num_bins)
        if self.counts.shape != expected:
            raise ValueError(f"counts shape {self.counts.shape} does not match bins {expected}")

    # ------------------------------------------------------------------ #

    @property
    def columns(self) -> tuple[str, str]:
        return self.row.column, self.col.column

    @property
    def total_count(self) -> float:
        return float(self.counts.sum())

    def oriented(self, aggregation_column: str) -> tuple[np.ndarray, AxisMetadata, AxisMetadata]:
        """Return ``(counts, agg_axis, pred_axis)`` with rows on the aggregation column.

        ``counts`` has shape ``(agg_bins, pred_bins)`` regardless of the order
        in which the pair was stored.
        """
        if aggregation_column == self.row.column:
            return self.counts, self.row, self.col
        if aggregation_column == self.col.column:
            return self.counts.T, self.col, self.row
        raise KeyError(
            f"column {aggregation_column!r} is not part of pair {self.columns!r}"
        )

    def non_zero_count(self) -> int:
        """Number of non-zero cells (used by the sparse storage encoder)."""
        return int(np.count_nonzero(self.counts))

    # ------------------------------------------------------------------ #

    @classmethod
    def build(
        cls,
        column_i: str,
        column_j: str,
        values_i: np.ndarray,
        values_j: np.ndarray,
        edges_i: np.ndarray,
        edges_j: np.ndarray,
        hist_i: Histogram1D,
        hist_j: Histogram1D,
        counts: np.ndarray | None = None,
    ) -> "Histogram2D":
        """Finalise a pairwise histogram for given (possibly refined) edges.

        Computes cell counts, per-dimension extrema / unique counts /
        marginal counts and the parent maps back to the 1-d histograms
        (Algorithm 1, lines 22–26).  ``counts`` lets the builder pass cell
        counts it already computed for these exact edges (the no-refinement
        fast path) instead of histogramming the pair a second time.
        """
        edges_i = np.asarray(edges_i, dtype=float)
        edges_j = np.asarray(edges_j, dtype=float)
        if counts is None:
            counts, _, _ = np.histogram2d(values_i, values_j, bins=[edges_i, edges_j])
        row_meta = cls._axis_metadata(column_i, values_i, edges_i, hist_i)
        col_meta = cls._axis_metadata(column_j, values_j, edges_j, hist_j)
        row_meta.marginal_counts = counts.sum(axis=1)
        col_meta.marginal_counts = counts.sum(axis=0)
        return cls(row=row_meta, col=col_meta, counts=counts)

    @classmethod
    def merge(
        cls,
        hists: list["Histogram2D"],
        parent_i: Histogram1D,
        parent_j: Histogram1D,
        min_spacing: float = 1.0,
    ) -> "Histogram2D":
        """Combine per-partition pairwise histograms into a single one.

        Each input's cell counts are redistributed onto the union grid of
        row / column edges via per-axis projection matrices (``R^T C C``
        as one matrix product per input), axis extrema and unique counts
        are merged the same way as in :meth:`Histogram1D.merge`, and the
        parent maps are recomputed against the merged 1-d histograms
        (``parent_i`` / ``parent_j``) so Eq. 27 folding keeps working.
        """
        if not hists:
            raise ValueError("cannot merge zero histograms")
        columns = hists[0].columns
        if any(h.columns != columns for h in hists):
            raise ValueError("can only merge histograms of the same column pair")
        if len(hists) == 1:
            return hists[0]
        row_edges = np.unique(np.concatenate([h.row.edges for h in hists]))
        col_edges = np.unique(np.concatenate([h.col.edges for h in hists]))
        k_row, k_col = len(row_edges) - 1, len(col_edges) - 1
        counts = np.zeros((k_row, k_col))
        row_min = np.full(k_row, np.inf)
        row_max = np.full(k_row, -np.inf)
        col_min = np.full(k_col, np.inf)
        col_max = np.full(k_col, -np.inf)
        row_unique = np.zeros(k_row)
        col_unique = np.zeros(k_col)
        for hist in hists:
            row_proj = projection_matrix(hist.row.edges, hist.row.v_minus, hist.row.v_plus, row_edges)
            col_proj = projection_matrix(hist.col.edges, hist.col.v_minus, hist.col.v_plus, col_edges)
            counts += row_proj.T @ hist.counts @ col_proj
            # Max, not sum: partitions share one value domain (see Histogram1D.merge).
            row_unique = np.maximum(row_unique, hist.row.unique @ row_proj)
            col_unique = np.maximum(col_unique, hist.col.unique @ col_proj)
            for axis, proj, vmin, vmax in (
                (hist.row, row_proj, row_min, row_max),
                (hist.col, col_proj, col_min, col_max),
            ):
                edges = row_edges if axis is hist.row else col_edges
                pvmin, pvmax = project_extrema(
                    proj, axis.marginal_counts, axis.v_minus, axis.v_plus, edges
                )
                np.minimum(vmin, pvmin, out=vmin)
                np.maximum(vmax, pvmax, out=vmax)
        row_meta = cls._merged_axis(
            columns[0], row_edges, row_min, row_max, row_unique,
            counts.sum(axis=1), parent_i, min_spacing,
        )
        col_meta = cls._merged_axis(
            columns[1], col_edges, col_min, col_max, col_unique,
            counts.sum(axis=0), parent_j, min_spacing,
        )
        return cls(row=row_meta, col=col_meta, counts=counts)

    @staticmethod
    def _merged_axis(
        column: str,
        edges: np.ndarray,
        v_minus: np.ndarray,
        v_plus: np.ndarray,
        unique: np.ndarray,
        marginal_counts: np.ndarray,
        parent_hist: Histogram1D,
        min_spacing: float = 1.0,
    ) -> AxisMetadata:
        """Finalise one merged axis: fill untouched bins, rebuild the parent map."""
        v_minus = v_minus.copy()
        v_plus = v_plus.copy()
        untouched_lo = ~np.isfinite(v_minus)
        untouched_hi = ~np.isfinite(v_plus)
        v_minus[untouched_lo] = edges[:-1][untouched_lo]
        v_plus[untouched_hi] = edges[1:][untouched_hi]
        cap = np.minimum(
            distinct_capacity(edges, min_spacing), np.maximum(marginal_counts, 1.0)
        )
        unique = np.where(marginal_counts > 0, np.clip(unique, 1.0, cap), 0.0)
        parent = bin_indices(parent_hist.edges, (edges[:-1] + edges[1:]) / 2.0)
        return AxisMetadata(
            column=column,
            edges=edges,
            v_minus=v_minus,
            v_plus=v_plus,
            unique=unique,
            marginal_counts=marginal_counts,
            parent=parent,
        )

    @staticmethod
    def _axis_metadata(
        column: str, values: np.ndarray, edges: np.ndarray, parent_hist: Histogram1D
    ) -> AxisMetadata:
        k = len(edges) - 1
        v_minus = edges[:-1].astype(float).copy()
        v_plus = edges[1:].astype(float).copy()
        unique = np.zeros(k)
        if len(values):
            # One lexsort by (bin, value) makes every per-bin statistic a
            # segment operation: extrema are the segment endpoints and the
            # unique count is the number of value changes per segment.
            idx = bin_indices(edges, values)
            order = np.lexsort((values, idx))
            sorted_idx = idx[order]
            sorted_vals = values[order]
            boundaries = np.searchsorted(sorted_idx, np.arange(k + 1))
            nonempty = boundaries[:-1] < boundaries[1:]
            starts = boundaries[:-1][nonempty]
            ends = boundaries[1:][nonempty]
            v_minus[nonempty] = sorted_vals[starts]
            v_plus[nonempty] = sorted_vals[ends - 1]
            first_of_run = np.ones(len(sorted_vals), dtype=np.int64)
            if len(sorted_vals) > 1:
                same = (np.diff(sorted_vals) == 0) & (np.diff(sorted_idx) == 0)
                first_of_run[1:] = ~same
            unique[nonempty] = np.add.reduceat(first_of_run, starts)
        parent = bin_indices(parent_hist.edges, (edges[:-1] + edges[1:]) / 2.0)
        return AxisMetadata(
            column=column,
            edges=edges,
            v_minus=v_minus,
            v_plus=v_plus,
            unique=unique,
            marginal_counts=np.zeros(k),
            parent=parent,
        )
