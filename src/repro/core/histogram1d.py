"""One-dimensional PairwiseHist histograms and their per-bin metadata (§4)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .centre_bounds import weighted_centre_bounds


def bin_indices(edges: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Map values to bin indices for half-open bins ``[e_t, e_{t+1})``.

    The final bin is closed on the right, matching ``numpy.histogram``.
    Values outside the edge range are clipped into the first / last bin.
    """
    idx = np.searchsorted(edges, values, side="right") - 1
    return np.clip(idx, 0, len(edges) - 2)


def projection_matrix(
    src_edges: np.ndarray,
    v_minus: np.ndarray,
    v_plus: np.ndarray,
    union_edges: np.ndarray,
) -> np.ndarray:
    """Row-stochastic matrix redistributing source bins onto a finer grid.

    ``union_edges`` must contain every source edge (it is the union of the
    edge sets being merged), so each source bin maps onto a contiguous run
    of union bins.  Mass is spread proportionally to each union bin's
    overlap with the source bin's occupied interval ``[v-, v+]`` — the same
    uniformity assumption PairwiseHist uses for partial bin coverage.
    Degenerate bins (single value, or no overlap information) put all mass
    in the union bin containing ``v-``.
    """
    k_src = len(src_edges) - 1
    k_union = len(union_edges) - 1
    matrix = np.zeros((k_src, k_union))
    positions = np.searchsorted(union_edges, src_edges)
    lo = positions[:-1]
    hi = np.maximum(positions[1:], lo + 1)
    seg_counts = hi - lo
    # Flattened (source bin, union bin) index pairs for every overlap segment.
    rows = np.repeat(np.arange(k_src), seg_counts)
    offsets = np.arange(len(rows)) - np.repeat(np.cumsum(seg_counts) - seg_counts, seg_counts)
    cols = lo[rows] + offsets
    support_lo = np.maximum(v_minus, src_edges[:-1])
    support_hi = np.minimum(v_plus, src_edges[1:])
    widths = np.clip(
        np.minimum(union_edges[cols + 1], support_hi[rows])
        - np.maximum(union_edges[cols], support_lo[rows]),
        0.0,
        None,
    )
    totals = np.bincount(rows, weights=widths, minlength=k_src)
    valid = totals[rows] > 0
    matrix[rows[valid], cols[valid]] = widths[valid] / totals[rows[valid]]
    # Degenerate bins (single value or no overlap information): all mass to
    # the union bin containing the support's lower end.
    degenerate = np.flatnonzero(totals <= 0)
    if degenerate.size:
        targets = np.clip(
            np.searchsorted(union_edges, support_lo[degenerate], side="right") - 1,
            lo[degenerate],
            hi[degenerate] - 1,
        )
        matrix[degenerate, targets] = 1.0
    return matrix


def distinct_capacity(edges: np.ndarray, min_spacing: float = 1.0) -> np.ndarray:
    """Maximum distinct values each bin can hold on a ``min_spacing`` grid.

    The compressed domain is integer-valued (spacing ``mu``), so a bin
    ``[e_t, e_{t+1})`` holds at most the number of grid points inside it;
    the final bin is closed on the right.  Used to cap merged unique
    counts, which otherwise drift above what a narrow bin can contain and
    skew equality-predicate coverage (``count / u``).
    """
    lo = np.ceil(edges[:-1] / min_spacing)
    hi = np.ceil(edges[1:] / min_spacing) - 1.0
    capacity = hi - lo + 1.0
    capacity[-1] = np.floor(edges[-1] / min_spacing) - lo[-1] + 1.0
    return np.maximum(capacity, 1.0)


def project_extrema(
    matrix: np.ndarray,
    counts: np.ndarray,
    v_minus: np.ndarray,
    v_plus: np.ndarray,
    union_edges: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-union-bin value extrema implied by projecting source bins.

    A source bin's extrema are clipped to each union bin it contributes
    mass to; union bins receiving nothing keep ``(+inf, -inf)`` so callers
    can combine several projections with ``minimum`` / ``maximum``.
    """
    k_union = len(union_edges) - 1
    vmin = np.full(k_union, np.inf)
    vmax = np.full(k_union, -np.inf)
    src, tgt = np.nonzero(matrix)
    occupied = counts[src] > 0
    src, tgt = src[occupied], tgt[occupied]
    if src.size:
        np.minimum.at(vmin, tgt, np.maximum(v_minus[src], union_edges[tgt]))
        np.maximum.at(vmax, tgt, np.minimum(v_plus[src], union_edges[tgt + 1]))
    return vmin, vmax


@dataclass
class Histogram1D:
    """One-dimensional histogram with PairwiseHist bin metadata.

    Attributes
    ----------
    column:
        Name of the column the histogram summarises.
    edges:
        Bin edges, length ``k + 1`` (``e`` in the paper).
    counts:
        Bin counts, length ``k`` (the diagonal of ``H(i)``).
    v_minus, v_plus:
        Minimum / maximum actual data value in each bin.
    unique:
        Number of unique values in each bin (``u``).
    centre_lower, centre_upper:
        Bounds on the weighted centre of each bin (Eq. 10).
    """

    column: str
    edges: np.ndarray
    counts: np.ndarray
    v_minus: np.ndarray
    v_plus: np.ndarray
    unique: np.ndarray
    centre_lower: np.ndarray = field(default=None)  # type: ignore[assignment]
    centre_upper: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.edges = np.asarray(self.edges, dtype=float)
        self.counts = np.asarray(self.counts, dtype=float)
        self.v_minus = np.asarray(self.v_minus, dtype=float)
        self.v_plus = np.asarray(self.v_plus, dtype=float)
        self.unique = np.asarray(self.unique, dtype=float)
        k = self.num_bins
        for name in ("counts", "v_minus", "v_plus", "unique"):
            if len(getattr(self, name)) != k:
                raise ValueError(f"{name} must have length {k} to match the edges")
        if self.centre_lower is None or self.centre_upper is None:
            self.centre_lower = self.v_minus.copy()
            self.centre_upper = self.v_plus.copy()
        else:
            self.centre_lower = np.asarray(self.centre_lower, dtype=float)
            self.centre_upper = np.asarray(self.centre_upper, dtype=float)

    # ------------------------------------------------------------------ #

    @property
    def num_bins(self) -> int:
        """``k`` — number of bins."""
        return len(self.edges) - 1

    @property
    def midpoints(self) -> np.ndarray:
        """Bin midpoints ``c = (v+ + v-) / 2`` (re-derived, not stored)."""
        return (self.v_plus + self.v_minus) / 2.0

    @property
    def widths(self) -> np.ndarray:
        """Bin widths based on actual data extrema (``Delta`` in Table 3)."""
        return self.v_plus - self.v_minus

    @property
    def total_count(self) -> float:
        return float(self.counts.sum())

    def find_bin(self, value: float) -> int:
        """Bin index containing ``value`` (clipped to the edge range)."""
        return int(bin_indices(self.edges, np.asarray([value]))[0])

    # ------------------------------------------------------------------ #

    @classmethod
    def from_refinement(
        cls,
        column: str,
        values: np.ndarray,
        edges: list[float] | np.ndarray,
        v_minus: list[float] | np.ndarray,
        v_plus: list[float] | np.ndarray,
        unique: list[int] | np.ndarray,
        min_points: int,
        alpha: float,
        min_spacing: float = 1.0,
    ) -> "Histogram1D":
        """Finalise a histogram after bin refinement (Algorithm 1, lines 10–12).

        Computes the bin counts with a standard histogram pass over the data
        and the weighted-centre bounds from Eq. 10.
        """
        edges = np.asarray(edges, dtype=float)
        if len(edges) < 2:
            edges = np.array([0.0, 1.0])
        counts, _ = np.histogram(values, bins=edges)
        hist = cls(
            column=column,
            edges=edges,
            counts=counts.astype(float),
            v_minus=np.asarray(v_minus, dtype=float),
            v_plus=np.asarray(v_plus, dtype=float),
            unique=np.asarray(unique, dtype=float),
        )
        hist.centre_lower, hist.centre_upper = weighted_centre_bounds(
            hist.counts, hist.v_minus, hist.v_plus, hist.unique, min_points, alpha, min_spacing
        )
        return hist

    # ------------------------------------------------------------------ #

    @classmethod
    def merge(
        cls,
        hists: list["Histogram1D"],
        min_points: int,
        alpha: float,
        min_spacing: float = 1.0,
    ) -> "Histogram1D":
        """Combine per-partition histograms of one column into a single one.

        The merged histogram lives on the union of every input's bin edges;
        each input's counts and unique counts are redistributed onto that
        grid with :func:`projection_matrix` and summed, extrema are clipped
        per union bin, and the weighted-centre bounds (Eq. 10) are
        recomputed for the merged bins.  This is what lets per-partition
        synopses be built independently (in parallel, or incrementally
        after an append) and still answer queries as one synopsis.
        """
        if not hists:
            raise ValueError("cannot merge zero histograms")
        column = hists[0].column
        if any(h.column != column for h in hists):
            raise ValueError("can only merge histograms of the same column")
        if len(hists) == 1:
            return hists[0]
        edges = np.unique(np.concatenate([h.edges for h in hists]))
        k = len(edges) - 1
        counts = np.zeros(k)
        unique = np.zeros(k)
        v_minus = np.full(k, np.inf)
        v_plus = np.full(k, -np.inf)
        for hist in hists:
            matrix = projection_matrix(hist.edges, hist.v_minus, hist.v_plus, edges)
            counts += hist.counts @ matrix
            # Partitions shard rows of one table, so their value sets overlap
            # heavily: the max projected unique count per bin is a far better
            # distinct estimate than the sum (which breaks equality coverage,
            # Eq. 5 dividing by ``u``).
            unique = np.maximum(unique, hist.unique @ matrix)
            pvmin, pvmax = project_extrema(matrix, hist.counts, hist.v_minus, hist.v_plus, edges)
            v_minus = np.minimum(v_minus, pvmin)
            v_plus = np.maximum(v_plus, pvmax)
        untouched = ~np.isfinite(v_minus)
        v_minus[untouched] = edges[:-1][untouched]
        v_plus[~np.isfinite(v_plus)] = edges[1:][~np.isfinite(v_plus)]
        cap = np.minimum(distinct_capacity(edges, min_spacing), np.maximum(counts, 1.0))
        unique = np.where(counts > 0, np.clip(unique, 1.0, cap), 0.0)
        merged = cls(
            column=column,
            edges=edges,
            counts=counts,
            v_minus=v_minus,
            v_plus=v_plus,
            unique=unique,
        )
        merged.centre_lower, merged.centre_upper = weighted_centre_bounds(
            merged.counts, merged.v_minus, merged.v_plus, merged.unique,
            min_points, alpha, min_spacing,
        )
        return merged

    # ------------------------------------------------------------------ #

    def storage_entries(self) -> dict[str, np.ndarray]:
        """Arrays persisted by the storage encoder (midpoints / centre bounds
        are re-derivable and therefore excluded, §4.3)."""
        return {
            "edges": self.edges,
            "v_minus": self.v_minus,
            "v_plus": self.v_plus,
            "unique": self.unique,
            "counts": self.counts,
        }
