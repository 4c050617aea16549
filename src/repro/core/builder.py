"""PairwiseHist construction (Algorithm 1, ``BuildPairwiseHist``).

The builder consumes integer-encoded columns (the GreedyGD pre-processed
domain), optional per-column initial bin edges seeded from the GD bases,
and the construction parameters.  It produces a :class:`PairwiseHist`
containing refined 1-d histograms for every column and refined 2-d
histograms for every pair of columns.
"""

from __future__ import annotations

import os
from collections.abc import Mapping, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .histogram1d import Histogram1D, bin_indices
from .histogram2d import Histogram2D
from .params import PairwiseHistParams
from .refine import refine_bin_1d, refine_bin_2d
from .synopsis import PairwiseHist


def _sample_indices(num_rows: int, params: PairwiseHistParams) -> np.ndarray:
    """Uniformly sample the row indices used to build the synopsis."""
    target = params.sample_size
    if target is None or target >= num_rows:
        return np.arange(num_rows)
    rng = np.random.default_rng(params.seed)
    return np.sort(rng.choice(num_rows, size=target, replace=False))


def _initial_edges(
    values: np.ndarray, seeds: np.ndarray | None, params: PairwiseHistParams
) -> np.ndarray:
    """Initial bin edges for a column (Algorithm 1, line 4).

    Uses the GD bases when available — downsampled to at most
    ``ceil(Ns / M)`` values and clipped to the observed data range — and the
    plain min / max of the column otherwise.
    """
    vmin = float(values.min())
    vmax = float(values.max())
    if vmax <= vmin:
        vmax = vmin + 1.0
    if seeds is None or len(seeds) == 0:
        return np.array([vmin, vmax])
    seeds = np.unique(np.asarray(seeds, dtype=float))
    seeds = seeds[(seeds > vmin) & (seeds < vmax)]
    limit = params.effective_initial_bins
    if len(seeds) > limit:
        step = max(1, len(seeds) // limit)
        seeds = seeds[::step][:limit]
    return np.unique(np.concatenate([[vmin], seeds, [vmax]]))


def _build_histogram_1d(
    column: str,
    values: np.ndarray,
    seeds: np.ndarray | None,
    params: PairwiseHistParams,
) -> Histogram1D:
    """Refine one column into a finished :class:`Histogram1D`."""
    if values.size == 0:
        return Histogram1D(
            column=column,
            edges=np.array([0.0, 1.0]),
            counts=np.array([0.0]),
            v_minus=np.array([0.0]),
            v_plus=np.array([1.0]),
            unique=np.array([0.0]),
        )
    initial = _initial_edges(values, seeds, params)
    edges: list[float] = [float(initial[0])]
    v_minus: list[float] = []
    v_plus: list[float] = []
    unique: list[int] = []
    for t in range(len(initial) - 1):
        lower, upper = float(initial[t]), float(initial[t + 1])
        if t == len(initial) - 2:
            mask = (values >= lower) & (values <= upper)
        else:
            mask = (values >= lower) & (values < upper)
        refined = refine_bin_1d(
            lower, upper, values[mask], params.min_points, params.alpha, params.max_refine_depth
        )
        edges.extend(refined.upper_edges)
        v_minus.extend(refined.v_minus)
        v_plus.extend(refined.v_plus)
        unique.extend(refined.unique)
    return Histogram1D.from_refinement(
        column=column,
        values=values,
        edges=edges,
        v_minus=v_minus,
        v_plus=v_plus,
        unique=unique,
        min_points=params.min_points,
        alpha=params.alpha,
        min_spacing=params.min_spacing,
    )


def _build_histogram_2d(
    column_i: str,
    column_j: str,
    values_i: np.ndarray,
    values_j: np.ndarray,
    hist_i: Histogram1D,
    hist_j: Histogram1D,
    params: PairwiseHistParams,
) -> Histogram2D:
    """Build and refine the pairwise histogram for one pair of columns."""
    edges_i = hist_i.edges.copy()
    edges_j = hist_j.edges.copy()
    if values_i.size == 0:
        return Histogram2D.build(
            column_i, column_j, values_i, values_j, edges_i, edges_j, hist_i, hist_j
        )
    counts, _, _ = np.histogram2d(values_i, values_j, bins=[edges_i, edges_j])
    new_edges_i: list[float] = []
    new_edges_j: list[float] = []
    hot_cells = np.argwhere(counts > params.min_points)
    if hot_cells.size:
        idx_i = bin_indices(edges_i, values_i)
        idx_j = bin_indices(edges_j, values_j)
        num_j = len(edges_j) - 1
        cell_ids = idx_i * num_j + idx_j
        order = np.argsort(cell_ids, kind="stable")
        sorted_cells = cell_ids[order]
        for ti, tj in hot_cells:
            cell = ti * num_j + tj
            lo = np.searchsorted(sorted_cells, cell, side="left")
            hi = np.searchsorted(sorted_cells, cell, side="right")
            rows = order[lo:hi]
            refined = refine_bin_2d(
                float(edges_i[ti]),
                float(edges_i[ti + 1]),
                float(edges_j[tj]),
                float(edges_j[tj + 1]),
                values_i[rows],
                values_j[rows],
                params.min_points,
                params.alpha,
            )
            new_edges_i.extend(refined.new_edges_i)
            new_edges_j.extend(refined.new_edges_j)
    if new_edges_i:
        edges_i = np.unique(np.concatenate([edges_i, np.asarray(new_edges_i, dtype=float)]))
    if new_edges_j:
        edges_j = np.unique(np.concatenate([edges_j, np.asarray(new_edges_j, dtype=float)]))
    if not new_edges_i and not new_edges_j:
        # Refinement added no edges: the detection pass's counts are final.
        return Histogram2D.build(
            column_i, column_j, values_i, values_j, edges_i, edges_j, hist_i, hist_j,
            counts=counts,
        )
    return Histogram2D.build(
        column_i, column_j, values_i, values_j, edges_i, edges_j, hist_i, hist_j
    )


def build_pairwise_hist(
    codes: Mapping[str, np.ndarray],
    params: PairwiseHistParams,
    population_rows: int | None = None,
    null_masks: Mapping[str, np.ndarray] | None = None,
    initial_edges: Mapping[str, np.ndarray] | None = None,
    columns: list[str] | None = None,
    build_pairs: bool = True,
) -> PairwiseHist:
    """Algorithm 1: build the full PairwiseHist synopsis.

    Parameters
    ----------
    codes:
        Mapping of column name to integer-encoded (pre-processed) values.
    params:
        Construction parameters (``Ns``, ``M``, ``alpha``).
    population_rows:
        ``N`` — size of the full dataset the codes were drawn from (defaults
        to the length of the code arrays).
    null_masks:
        Optional per-column boolean masks of missing values; null rows are
        excluded from that column's histograms (SQL aggregate semantics).
    initial_edges:
        Optional per-column seed edges (e.g. GD bases) for the initial bins.
    columns:
        Column order; defaults to the order of ``codes``.
    build_pairs:
        Set to ``False`` to build only 1-d histograms (used by ablations).
    """
    columns = list(columns) if columns is not None else list(codes)
    if not columns:
        raise ValueError("cannot build a synopsis with no columns")
    num_rows = len(codes[columns[0]])
    population = population_rows if population_rows is not None else num_rows
    rows = _sample_indices(num_rows, params)

    sampled: dict[str, np.ndarray] = {}
    valid: dict[str, np.ndarray] = {}
    for name in columns:
        col = np.asarray(codes[name], dtype=float)[rows]
        if null_masks is not None and name in null_masks:
            mask = ~np.asarray(null_masks[name], dtype=bool)[rows]
        else:
            mask = np.isfinite(col)
        sampled[name] = col
        valid[name] = mask

    synopsis = PairwiseHist(
        params=params,
        columns=columns,
        population_rows=population,
        sample_rows=len(rows),
    )

    for name in columns:
        seeds = None
        if initial_edges is not None and name in initial_edges:
            seeds = np.asarray(initial_edges[name], dtype=float)
        synopsis.hist1d[name] = _build_histogram_1d(
            name, sampled[name][valid[name]], seeds, params
        )

    if build_pairs:
        for b in range(1, len(columns)):
            for a in range(b):
                col_a, col_b = columns[a], columns[b]
                both = valid[col_a] & valid[col_b]
                synopsis.hist2d[(col_a, col_b)] = _build_histogram_2d(
                    col_a,
                    col_b,
                    sampled[col_a][both],
                    sampled[col_b][both],
                    synopsis.hist1d[col_a],
                    synopsis.hist1d[col_b],
                    params,
                )
    return synopsis


# --------------------------------------------------------------------------- #
# Partitioned construction

@dataclass(frozen=True)
class PartitionInput:
    """Inputs for building one partition's synopsis.

    The same shapes :func:`build_pairwise_hist` takes, bundled per
    partition so a list of them can be fanned out to an executor.
    """

    codes: Mapping[str, np.ndarray]
    population_rows: int | None = None
    null_masks: Mapping[str, np.ndarray] | None = None
    initial_edges: Mapping[str, np.ndarray] | None = None


def snapshot_partition_input(store, partition) -> PartitionInput:
    """Decode one partition of a partitioned store into a build input.

    The returned :class:`PartitionInput` references only the (immutable,
    sealed) partition — not the store's mutable partition *list* — so the
    expensive synopsis build can run while queries keep answering from the
    published engine and that list is swapped underneath us.
    """
    columns = store.column_order
    decoded = partition.split.reconstruct()
    initial_edges = {
        name: partition.base_values(index)
        for index, name in enumerate(columns)
        if not store.preprocessor[name].is_categorical
    }
    return PartitionInput(
        codes={name: decoded[:, index] for index, name in enumerate(columns)},
        population_rows=partition.num_rows,
        null_masks=partition.null_masks,
        initial_edges=initial_edges,
    )


def partition_params(
    params: PairwiseHistParams, partition_rows: int, total_rows: int
) -> PairwiseHistParams:
    """Scale construction parameters down to one partition's share.

    Only ``Ns`` shrinks (proportionally to the partition's row count);
    ``M`` stays global.  Since the per-column bin budget is ``Ns / M``
    (Algorithm 1, line 4 and the refinement stop condition), this hands
    each partition a proportional slice of the whole table's bin budget:
    the union of the per-partition edges after the merge has monolithic
    granularity instead of ``num_partitions`` times it — which would blow
    up both build time and the merged 2-d grids.
    """
    fraction = partition_rows / total_rows if total_rows else 1.0
    cap = max(1, int(np.ceil(params.effective_initial_bins * fraction)))
    sample = params.sample_size
    if sample is not None:
        sample = max(1, int(np.ceil(sample * fraction)))
    return replace(params, sample_size=sample, max_initial_bins=cap)


def _build_partition(
    part: PartitionInput,
    params: PairwiseHistParams,
    columns: list[str] | None,
    build_pairs: bool,
    total_rows: int,
) -> PairwiseHist:
    """Build one partition's synopsis."""
    first = next(iter(part.codes.values()))
    rows = part.population_rows if part.population_rows is not None else len(first)
    return build_pairwise_hist(
        part.codes,
        partition_params(params, rows, total_rows),
        population_rows=rows,
        null_masks=part.null_masks,
        initial_edges=part.initial_edges,
        columns=columns,
        build_pairs=build_pairs,
    )


def _build_workers(num_partitions: int) -> int:
    """Threads for a partitioned build: one per partition, at most one per
    CPU this process may run on (its affinity mask where the platform has
    one, so a server pinned to one CPU builds on one thread)."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(num_partitions, cpus)


def build_partition_synopses(
    partitions: Sequence[PartitionInput],
    params: PairwiseHistParams,
    columns: list[str] | None = None,
    build_pairs: bool = True,
    total_rows: int | None = None,
) -> list[PairwiseHist]:
    """Build one synopsis per partition on a thread pool.

    Threads, not processes: numpy's histogram, sort and unique kernels
    release the GIL, so threads overlap the bulk of a build without
    pickling every partition's decoded codes to a worker, and a pool of
    them is safe to start from a multi-threaded server (forking one is
    not).  A single partition is built inline.  Each partition's synopsis
    depends only on its own input, so the result is bit-identical at any
    thread count.  ``total_rows`` is the row count the per-partition bin
    budget is scaled against; pass the whole table's size when rebuilding
    a subset of its partitions (e.g. the tail after an append) so those
    partitions don't get the full table's budget.
    """
    if not partitions:
        raise ValueError("cannot build a synopsis from zero partitions")
    if total_rows is None:
        total_rows = sum(
            p.population_rows if p.population_rows is not None else len(next(iter(p.codes.values())))
            for p in partitions
        )
    workers = _build_workers(len(partitions))
    if workers == 1:
        return [
            _build_partition(part, params, columns, build_pairs, total_rows)
            for part in partitions
        ]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(_build_partition, part, params, columns, build_pairs, total_rows)
            for part in partitions
        ]
        return [future.result() for future in futures]


def build_partitioned_hist(
    partitions: Sequence[PartitionInput],
    params: PairwiseHistParams,
    columns: list[str] | None = None,
    build_pairs: bool = True,
) -> PairwiseHist:
    """Build per-partition synopses in parallel and merge them into one."""
    synopses = build_partition_synopses(partitions, params, columns, build_pairs)
    return PairwiseHist.merge(synopses, params=params)
