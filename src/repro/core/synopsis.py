"""The PairwiseHist synopsis container.

A :class:`PairwiseHist` bundles everything produced by Algorithm 1: the
one-dimensional histogram of every column, the two-dimensional histogram of
every pair of columns, the construction parameters and the sampling
book-keeping needed to scale estimates back to the full dataset.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .histogram1d import Histogram1D
from .histogram2d import Histogram2D
from .params import PairwiseHistParams


@dataclass
class PairwiseHist:
    """Collection of 1-d and 2-d histograms plus metadata (Fig. 2, right)."""

    params: PairwiseHistParams
    columns: list[str]
    population_rows: int
    sample_rows: int
    hist1d: dict[str, Histogram1D] = field(default_factory=dict)
    hist2d: dict[tuple[str, str], Histogram2D] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # Basic accessors

    @property
    def num_columns(self) -> int:
        return len(self.columns)

    @property
    def sampling_ratio(self) -> float:
        """``rho = Ns / N`` — used to rescale COUNT and SUM estimates."""
        if self.population_rows <= 0:
            return 1.0
        return self.sample_rows / self.population_rows

    def column_index(self, name: str) -> int:
        return self.columns.index(name)

    def histogram(self, column: str) -> Histogram1D:
        """One-dimensional histogram for a column."""
        if column not in self.hist1d:
            raise KeyError(f"no histogram for column {column!r}")
        return self.hist1d[column]

    def pair_key(self, column_a: str, column_b: str) -> tuple[str, str]:
        """Canonical (column-order) key under which a pair histogram is stored."""
        ia, ib = self.column_index(column_a), self.column_index(column_b)
        if ia == ib:
            raise ValueError("a pair requires two distinct columns")
        return (column_a, column_b) if ia < ib else (column_b, column_a)

    def pair(self, column_a: str, column_b: str) -> Histogram2D:
        """Two-dimensional histogram covering a pair of columns."""
        key = self.pair_key(column_a, column_b)
        if key not in self.hist2d:
            raise KeyError(f"no pairwise histogram for {key!r}")
        return self.hist2d[key]

    def has_pair(self, column_a: str, column_b: str) -> bool:
        try:
            key = self.pair_key(column_a, column_b)
        except ValueError:
            return False
        return key in self.hist2d

    # ------------------------------------------------------------------ #
    # Merging

    @classmethod
    def merge(
        cls,
        synopses: list["PairwiseHist"],
        params: PairwiseHistParams | None = None,
    ) -> "PairwiseHist":
        """Combine per-partition synopses into one queryable synopsis.

        All inputs must cover the same columns (built from partitions of one
        table sharing a pre-processor, so their code domains line up).
        Population and sample row counts add up; every 1-d and 2-d histogram
        is merged on the union of its partitions' bin edges.  ``params``
        (defaulting to the first input's) becomes the merged synopsis'
        construction parameters, whose ``min_points`` / ``alpha`` drive the
        recomputed centre bounds — pass the whole-table parameters when the
        inputs were built with partition-scaled copies.
        """
        if not synopses:
            raise ValueError("cannot merge zero synopses")
        first = synopses[0]
        if len(synopses) == 1:
            if params is not None and params != first.params:
                # Shallow copy rather than mutating the caller's synopsis.
                return replace(first, params=params)
            return first
        if any(s.columns != first.columns for s in synopses):
            raise ValueError("can only merge synopses over the same columns")
        params = params if params is not None else first.params
        merged = cls(
            params=params,
            columns=list(first.columns),
            population_rows=sum(s.population_rows for s in synopses),
            sample_rows=sum(s.sample_rows for s in synopses),
        )
        for column in first.columns:
            merged.hist1d[column] = Histogram1D.merge(
                [s.hist1d[column] for s in synopses],
                params.min_points,
                params.alpha,
                params.min_spacing,
            )
        for key in first.hist2d:
            if any(key not in s.hist2d for s in synopses):
                continue
            merged.hist2d[key] = Histogram2D.merge(
                [s.hist2d[key] for s in synopses],
                merged.hist1d[key[0]],
                merged.hist1d[key[1]],
                params.min_spacing,
            )
        return merged

    # ------------------------------------------------------------------ #
    # Diagnostics

    def total_bins_1d(self) -> int:
        return sum(h.num_bins for h in self.hist1d.values())

    def total_cells_2d(self) -> int:
        return sum(h.counts.size for h in self.hist2d.values())

    def summary(self) -> dict[str, float]:
        """Human-readable construction summary used by examples and logs."""
        return {
            "columns": float(self.num_columns),
            "population_rows": float(self.population_rows),
            "sample_rows": float(self.sample_rows),
            "total_1d_bins": float(self.total_bins_1d()),
            "total_2d_cells": float(self.total_cells_2d()),
            "mean_bins_per_column": float(
                np.mean([h.num_bins for h in self.hist1d.values()]) if self.hist1d else 0.0
            ),
        }
