"""Predicate coverage and its bounds (§5.2, Eq. 14–16 and Theorem 2).

Coverage ``beta`` is, per histogram bin, the estimated probability that a
point in the bin satisfies a predicate condition.  It is computed from the
bin metadata only (extrema, unique count) — never from the data — and its
bounds come from Theorem 2 for bins that passed the uniformity test and
from a worst-case argument for bins that did not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..sql.ast import ComparisonOp
from .hypothesis import sub_bins_and_critical_values

_MEMBERS = ("estimate", "lower", "upper")


@dataclass
class CoverageResult:
    """Per-bin probability that a condition (or sub-predicate) holds, with
    bounds: one entry per histogram bin, each clipped to [0, 1]."""

    estimate: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self) -> None:
        for name in _MEMBERS:
            setattr(self, name, np.clip(np.asarray(getattr(self, name), dtype=float), 0.0, 1.0))

    @classmethod
    def each(cls, formula, *results: "CoverageResult") -> "CoverageResult":
        """``formula`` applied to the estimates, then the lowers, then the uppers."""
        return cls(*(formula(*(getattr(r, name) for r in results)) for name in _MEMBERS))

    @property
    def num_bins(self) -> int:
        return len(self.estimate)


_COMPARE = {
    ComparisonOp.LT: np.less,
    ComparisonOp.LE: np.less_equal,
    ComparisonOp.GT: np.greater,
    ComparisonOp.GE: np.greater_equal,
}


def coverage_estimate(
    op: ComparisonOp,
    literal: float,
    v_minus: np.ndarray,
    v_plus: np.ndarray,
    unique: np.ndarray,
) -> np.ndarray:
    """Eq. 15–16: per-bin coverage of a single condition.

    A range condition covers a bin fully when both extrema satisfy it, not
    at all when neither does, and otherwise the satisfying fraction of
    ``[v-, v+]`` (one half when the bin holds just two values).
    """
    v_minus, v_plus, unique = np.asarray(v_minus), np.asarray(v_plus), np.asarray(unique)
    with np.errstate(divide="ignore", invalid="ignore"):
        if op.is_equality:
            hit = np.where((v_minus <= literal) & (literal <= v_plus), 1.0 / unique, 0.0)
            beta = hit if op is ComparisonOp.EQ else 1.0 - hit
        else:
            low_ok = _COMPARE[op](v_minus, literal)
            high_ok = _COMPARE[op](v_plus, literal)
            below = op in (ComparisonOp.LT, ComparisonOp.LE)
            satisfying = (literal - v_minus) if below else (v_plus - literal)
            fraction = np.clip(satisfying / (v_plus - v_minus), 0.0, 1.0)
            partial = np.where(unique == 2, 0.5, fraction)
            beta = np.where(low_ok & high_ok, 1.0, np.where(low_ok | high_ok, partial, 0.0))
    return np.where(unique > 0, beta, 0.0)


def partial_count_bounds(
    count: np.ndarray, sub_bins: np.ndarray, covered: np.ndarray, chi2_alpha: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Theorem 2 (Eq. 17): bounds on the count over ``covered`` of ``sub_bins`` sub-bins."""
    count, sub_bins = np.asarray(count, dtype=float), np.asarray(sub_bins)
    covered = np.clip(covered, 0, sub_bins)
    with np.errstate(divide="ignore", invalid="ignore"):
        expected = count * covered / sub_bins
        spread = expected * np.sqrt(chi2_alpha * (sub_bins - covered) / (count * covered))
    nothing = (count <= 0) | (sub_bins <= 0) | (covered == 0)
    everything = covered == sub_bins
    lower = np.where(everything, count, np.maximum(0.0, expected - spread))
    upper = np.where(everything, count, np.minimum(count, expected + spread))
    return np.where(nothing, 0.0, lower), np.where(nothing, 0.0, upper)


def coverage_bounds(
    beta: np.ndarray,
    counts: np.ndarray,
    unique: np.ndarray,
    min_points: int,
    alpha: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Eq. 22–23: per-bin coverage bounds.

    Bins with exact coverage (0 or 1) keep it; partially-covered bins with
    fewer than ``M`` points fall back to the one-point worst case; bins that
    passed the uniformity test use the Theorem 2 partial-count bounds.
    """
    beta, counts = np.asarray(beta, dtype=float), np.asarray(counts, dtype=float)
    lower, upper = beta.copy(), beta.copy()
    partial = (beta != 0.0) & (beta != 1.0) & (counts > 0)

    small = np.flatnonzero(partial & (counts < min_points))
    one_point = 1.0 / counts[small]
    feasible = one_point <= 1.0 - one_point
    lower[small] = np.where(feasible, one_point, beta[small])
    upper[small] = np.where(feasible, 1.0 - one_point, beta[small])

    tested = np.flatnonzero(partial & (counts >= min_points))
    if tested.size:
        b, h = beta[tested], counts[tested]
        s, chi2_alpha = sub_bins_and_critical_values(np.asarray(unique)[tested], alpha)
        lo_count, _ = partial_count_bounds(h, s, np.floor(b * s), chi2_alpha)
        _, hi_count = partial_count_bounds(h, s, np.ceil(b * s), chi2_alpha)
        lower[tested] = np.where(s < 2, b, lo_count / h)
        upper[tested] = np.where(s < 2, b, hi_count / h)
    lower = np.minimum(lower, beta)
    upper = np.maximum(upper, beta)
    return np.clip(lower, 0.0, 1.0), np.clip(upper, 0.0, 1.0)


def condition_coverage(
    op: ComparisonOp,
    literal: float,
    v_minus: np.ndarray,
    v_plus: np.ndarray,
    unique: np.ndarray,
    counts: np.ndarray,
    min_points: int,
    alpha: float,
) -> CoverageResult:
    """Coverage estimate plus bounds for one condition over one set of bins."""
    beta = coverage_estimate(op, literal, v_minus, v_plus, unique)
    lower, upper = coverage_bounds(beta, counts, unique, min_points, alpha)
    return CoverageResult(estimate=beta, lower=lower, upper=upper)


def interval_coverage(
    lower_literal: float,
    upper_literal: float,
    v_minus: np.ndarray,
    v_plus: np.ndarray,
    unique: np.ndarray,
) -> np.ndarray:
    """Coverage of the interval ``[lower_literal, upper_literal]`` per bin.

    Used by the delayed-transformation consolidation of AND-connected range
    conditions on the same column: the group is equivalent to one interval,
    and the satisfied fraction of a bin is the overlap of that interval with
    the bin's value range (exact under the per-bin uniformity assumption).
    An overlap that is a single point covers one of the bin's ``u`` values.
    """
    v_minus, v_plus, unique = np.asarray(v_minus), np.asarray(v_plus), np.asarray(unique)
    overlap_lo = np.maximum(lower_literal, v_minus)
    overlap_hi = np.minimum(upper_literal, v_plus)
    width = v_plus - v_minus
    with np.errstate(divide="ignore", invalid="ignore"):
        fraction = np.where(width > 0, (overlap_hi - overlap_lo) / width, 1.0)
        partial = np.where(
            overlap_hi == overlap_lo, 1.0 / unique, np.where(unique == 2, 0.5, fraction)
        )
    beta = np.where((overlap_lo <= v_minus) & (overlap_hi >= v_plus), 1.0, partial)
    beta = np.where((unique > 0) & (overlap_hi >= overlap_lo), beta, 0.0)
    return np.clip(beta, 0.0, 1.0)


def consolidate_and(results: list[CoverageResult]) -> CoverageResult:
    """Delayed-transformation consolidation of same-column conditions under AND.

    For nested / overlapping range conditions on the same column the
    satisfied fraction of a bin is the overlap, i.e. the element-wise
    minimum of the individual coverages (Fig. 7: beta_12 = min(beta_1, beta_2)).
    """
    return CoverageResult.each(lambda *betas: np.minimum.reduce(betas), *results)


def consolidate_or(results: list[CoverageResult]) -> CoverageResult:
    """Same-column consolidation under OR: capped element-wise sum.

    Exact when the conditions cover disjoint parts of the bin (the common
    case for generated workloads) and an upper bound otherwise.
    """
    return CoverageResult(
        estimate=np.add.reduce([r.estimate for r in results]),
        lower=np.maximum.reduce([r.lower for r in results]),
        upper=np.add.reduce([r.upper for r in results]),
    )
