"""Bin weightings for arbitrary AND/OR predicate trees (§5.3, Eq. 24–29).

Given a query aggregating on column ``i`` with predicate ``P``, the bin
weightings ``w(i)`` estimate, for every bin of the 1-d histogram of ``i``,
how many sampled points in the bin satisfy ``P``.  Each predicate condition
on a column ``j != i`` is translated into per-bin probabilities through the
pairwise histogram ``H(ij)`` (Eq. 27); conditions on ``i`` itself use the
1-d coverage directly; AND / OR trees combine probabilities under the
conditional-independence assumption (Eq. 28); and same-column condition
groups are consolidated *before* the transformation ("delayed
transformation", Fig. 7).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..sql.ast import ComparisonOp, Condition, LogicalOp, Predicate, PredicateNode
from .coverage import (
    CoverageResult,
    condition_coverage,
    consolidate_and,
    consolidate_or,
    coverage_bounds,
    interval_coverage,
)
from .histogram1d import Histogram1D
from .histogram2d import AxisMetadata
from .synopsis import PairwiseHist

#: z-value of the two-sided 98 % confidence interval used by Eq. 29:
#: ``float(scipy.stats.norm.ppf(0.99))`` as an exact literal, pinned by
#: ``tests/test_core_params_hypothesis.py``.
Z_98 = 2.3263478740408408


@dataclass
class WeightingResult:
    """Estimated weightings and their bounds over the aggregation column's bins."""

    estimate: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self) -> None:
        self.estimate = np.asarray(self.estimate, dtype=float)
        self.lower = np.asarray(self.lower, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)

    @property
    def total(self) -> float:
        """``||w||_1`` — estimated number of sampled rows matching the predicate."""
        return float(self.estimate.sum())

    @property
    def is_empty(self) -> bool:
        return self.total <= 0.0


class PredicateEvaluator:
    """Computes bin weightings for one aggregation column of a synopsis."""

    def __init__(self, synopsis: PairwiseHist, aggregation_column: str) -> None:
        self._synopsis = synopsis
        self._column = aggregation_column
        self._hist = synopsis.histogram(aggregation_column)

    # ------------------------------------------------------------------ #

    @property
    def aggregation_column(self) -> str:
        return self._column

    def weightings(self, predicate: Predicate | None) -> WeightingResult:
        """Eq. 24–29: weightings (and bounds) for an arbitrary predicate tree."""
        counts = self._hist.counts
        if predicate is None:
            return WeightingResult(counts.copy(), counts.copy(), counts.copy())
        probabilities = self._evaluate(predicate)
        estimate = counts * probabilities.estimate
        lower, upper = self._widen_for_sampling(
            counts, counts * probabilities.lower, counts * probabilities.upper
        )
        return WeightingResult(estimate, np.minimum(lower, estimate), np.maximum(upper, estimate))

    # ------------------------------------------------------------------ #
    # Predicate tree evaluation

    def _evaluate(self, predicate: Predicate) -> CoverageResult:
        if isinstance(predicate, Condition):
            return self._leaf_group(predicate.column, [predicate], LogicalOp.AND)
        if not isinstance(predicate, PredicateNode):
            raise TypeError(f"unsupported predicate node type {type(predicate)!r}")
        parts: list[CoverageResult] = []
        leaf_groups: dict[str, list[Condition]] = {}
        for child in predicate.children:
            if isinstance(child, Condition):
                leaf_groups.setdefault(child.column, []).append(child)
            else:
                parts.append(self._evaluate(child))
        for column, conditions in leaf_groups.items():
            parts.append(self._leaf_group(column, conditions, predicate.op))
        return self._combine(parts, predicate.op)

    def _combine(self, parts: list[CoverageResult], op: LogicalOp) -> CoverageResult:
        """Eq. 28: conjunction / disjunction under conditional independence."""
        if len(parts) == 1:
            return parts[0]
        if op is LogicalOp.AND:
            return CoverageResult.each(lambda *probs: np.prod(probs, axis=0), *parts)
        return CoverageResult.each(
            lambda *probs: 1.0 - np.prod([1.0 - p for p in probs], axis=0), *parts
        )

    # ------------------------------------------------------------------ #
    # Leaves

    def _leaf_group(
        self, column: str, conditions: list[Condition], op: LogicalOp
    ) -> CoverageResult:
        """Coverage of same-column conditions, consolidated then transformed."""
        if column == self._column:
            return self._group_coverage(conditions, op, self._hist, self._hist.counts)

        if self._synopsis.has_pair(self._column, column):
            pair = self._synopsis.pair(self._column, column)
            counts, agg_axis, pred_axis = pair.oriented(self._column)
            coverage = self._group_coverage(conditions, op, pred_axis, pred_axis.marginal_counts)
            return self._transform_through_pair(counts, agg_axis.parent, coverage)

        # Fallback when the pair histogram was not built: assume full
        # independence from the aggregation column and use the marginal
        # selectivity from the predicate column's own 1-d histogram.
        hist_j = self._synopsis.histogram(column)
        coverage = self._group_coverage(conditions, op, hist_j, hist_j.counts)
        total = hist_j.total_count

        def selectivity(beta: np.ndarray) -> np.ndarray:
            fraction = (beta * hist_j.counts).sum() / total if total > 0 else 0.0
            return np.full(self._hist.num_bins, fraction)

        return CoverageResult.each(selectivity, coverage)

    def _group_coverage(
        self,
        conditions: list[Condition],
        op: LogicalOp,
        bins: Histogram1D | AxisMetadata,
        counts: np.ndarray,
    ) -> CoverageResult:
        """Coverage of a same-column condition group over one set of bins
        (``bins`` supplies the per-bin extrema and unique counts).

        AND-connected range/equality groups are consolidated exactly as one
        interval (delayed transformation); everything else falls back to the
        element-wise consolidation rules.
        """
        params = self._synopsis.params
        if len(conditions) > 1 and op is LogicalOp.AND and all(
            cond.op is not ComparisonOp.NE for cond in conditions
        ):
            # GT / GE raise the interval's floor, LT / LE lower its ceiling
            # and EQ does both, pinning it to a point.
            floor_ops = (ComparisonOp.GT, ComparisonOp.GE, ComparisonOp.EQ)
            ceiling_ops = (ComparisonOp.LT, ComparisonOp.LE, ComparisonOp.EQ)
            beta = interval_coverage(
                max([-np.inf] + [float(c.literal) for c in conditions if c.op in floor_ops]),
                min([np.inf] + [float(c.literal) for c in conditions if c.op in ceiling_ops]),
                bins.v_minus, bins.v_plus, bins.unique,
            )
            lower, upper = coverage_bounds(beta, counts, bins.unique, params.min_points, params.alpha)
            return CoverageResult(beta, lower, upper)
        coverages = [
            condition_coverage(
                cond.op, float(cond.literal), bins.v_minus, bins.v_plus, bins.unique, counts,
                params.min_points, params.alpha,
            )
            for cond in conditions
        ]
        if len(coverages) == 1:
            return coverages[0]
        return consolidate_and(coverages) if op is LogicalOp.AND else consolidate_or(coverages)

    def _transform_through_pair(
        self, counts: np.ndarray, parent: np.ndarray, coverage: CoverageResult
    ) -> CoverageResult:
        """Eq. 27: fold ``H(ij) beta(j)`` back onto the 1-d bins of the aggregation column."""
        k = self._hist.num_bins
        hist_counts = self._hist.counts

        def fold(beta: np.ndarray) -> np.ndarray:
            weighted = counts @ beta
            folded = np.bincount(parent, weights=weighted, minlength=k)[:k]
            with np.errstate(divide="ignore", invalid="ignore"):
                return np.where(hist_counts > 0, folded / hist_counts, 0.0)

        return CoverageResult.each(fold, coverage)

    # ------------------------------------------------------------------ #
    # Sampling widening (Eq. 29)

    def _widen_for_sampling(
        self, counts: np.ndarray, lower: np.ndarray, upper: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        population = self._synopsis.population_rows
        sample = self._synopsis.sample_rows
        if population <= sample or population <= 1:
            return lower, upper
        correction = (population - sample) / (population - 1)

        def widen(bound: np.ndarray, sign: float) -> np.ndarray:
            with np.errstate(divide="ignore", invalid="ignore"):
                beta = np.where(counts > 0, bound / counts, 0.0)
            variance = np.clip(beta * (1.0 - beta), 0.0, None) / np.maximum(counts, 1.0)
            spread = Z_98 * np.sqrt(variance * correction)
            return np.clip(beta + sign * spread, 0.0, 1.0) * counts

        return widen(lower, -1.0), widen(upper, 1.0)
