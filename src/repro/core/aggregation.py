"""Aggregation estimates and bounds (§5.4, Table 3).

All seven aggregation functions supported by PairwiseHist — COUNT, SUM,
AVG, MIN, MAX, MEDIAN and VAR — are computed from the aggregation column's
1-d histogram metadata and the bin weightings produced by
:class:`~repro.core.weightings.PredicateEvaluator`.  Values are in the
pre-processed (compressed) domain; the engine converts them back to the
original domain afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..sql.ast import AggregateFunction
from .histogram1d import Histogram1D
from .hypothesis import terrell_scott_bins
from .weightings import WeightingResult


@dataclass
class AqpEstimate:
    """An approximate aggregate with lower / upper bounds."""

    value: float
    lower: float
    upper: float

    def __post_init__(self) -> None:
        if np.isfinite(self.lower) and np.isfinite(self.upper) and self.lower > self.upper:
            self.lower, self.upper = self.upper, self.lower

    def map(self, formula) -> "AqpEstimate":
        """``formula`` applied to the value and to each bound."""
        return AqpEstimate(formula(self.value), formula(self.lower), formula(self.upper))

    @property
    def width(self) -> float:
        """Absolute bound width."""
        return self.upper - self.lower

    def contains(self, value: float) -> bool:
        """Whether the bounds contain a (ground-truth) value."""
        return bool(self.lower <= value <= self.upper)


_EMPTY = AqpEstimate(float("nan"), float("nan"), float("nan"))


def aggregate(
    func: AggregateFunction,
    hist: Histogram1D,
    weights: WeightingResult,
    sampling_ratio: float,
    min_points: int,
    single_column: bool = False,
) -> AqpEstimate:
    """Dispatch to the Table 3 formulation of one aggregation function."""
    if func is AggregateFunction.COUNT:
        return _count(weights, sampling_ratio)
    if weights.is_empty:
        return _EMPTY
    if func is AggregateFunction.SUM:
        return _sum(hist, weights, sampling_ratio)
    if func is AggregateFunction.AVG:
        return _avg(hist, weights)
    if func in (AggregateFunction.MIN, AggregateFunction.MAX):
        return _extremum(hist, weights, min_points, single_column, func is AggregateFunction.MAX)
    if func is AggregateFunction.MEDIAN:
        return _median(hist, weights)
    if func is AggregateFunction.VAR:
        return _var(hist, weights)
    raise ValueError(f"unsupported aggregation function {func}")  # pragma: no cover


# --------------------------------------------------------------------------- #
# COUNT / SUM / AVG


def _count(weights: WeightingResult, rho: float) -> AqpEstimate:
    return AqpEstimate(
        value=float(weights.estimate.sum() / rho),
        lower=float(weights.lower.sum() / rho),
        upper=float(weights.upper.sum() / rho),
    )


def _sum(hist: Histogram1D, weights: WeightingResult, rho: float) -> AqpEstimate:
    midpoints = hist.midpoints
    value = float(weights.estimate @ midpoints / rho)
    lower = float(weights.lower @ hist.centre_lower / rho)
    upper = float(weights.upper @ hist.centre_upper / rho)
    return AqpEstimate(value=value, lower=min(lower, value), upper=max(upper, value))


def _weighted_mean(weights: np.ndarray, values: np.ndarray) -> float:
    total = weights.sum()
    if total <= 0:
        return float("nan")
    return float(weights @ values / total)


def _bound_weightings(weights: WeightingResult) -> list[np.ndarray]:
    """The non-empty weighting bounds a ratio aggregate's bounds range over."""
    candidates = [w for w in (weights.lower, weights.upper) if w.sum() > 0]
    return candidates or [weights.estimate]


def _avg(hist: Histogram1D, weights: WeightingResult) -> AqpEstimate:
    estimate = _weighted_mean(weights.estimate, hist.midpoints)
    candidates = _bound_weightings(weights)
    lower = min(_weighted_mean(w, hist.centre_lower) for w in candidates)
    upper = max(_weighted_mean(w, hist.centre_upper) for w in candidates)
    # Clamp like the other estimators: merged (partitioned) histograms can
    # shift the centre bounds slightly relative to the midpoints.
    return AqpEstimate(value=estimate, lower=min(lower, estimate), upper=max(upper, estimate))


# --------------------------------------------------------------------------- #
# MIN / MAX


def _extremum(
    hist: Histogram1D,
    weights: WeightingResult,
    min_points: int,
    single_column: bool,
    is_max: bool,
) -> AqpEstimate:
    """MIN / MAX: the extremum of the outermost bin holding matching points.

    ``near`` is the extremum on the aggregate's own side (``v-`` for MIN),
    ``far`` the opposite one.  The value and the outer bound come from the
    outermost bin with a positive estimated / upper weighting, stepping to
    ``far`` when a two-valued bin is mostly excluded; the inner bound starts
    at ``far`` of the outermost bin certain to hold a point and moves
    towards ``near`` by the sub-bins the lower weighting must occupy.
    """
    near, far = (hist.v_plus, hist.v_minus) if is_max else (hist.v_minus, hist.v_plus)
    towards_near = 1.0 if is_max else -1.0

    def outermost(mask: np.ndarray, default: int | None) -> int | None:
        indices = np.flatnonzero(mask)
        return int(indices[-1 if is_max else 0]) if indices.size else default

    def outer(w: np.ndarray, t: int, divisor: int) -> float:
        mostly_excluded = w[t] < hist.counts[t] / divisor
        return float(far[t] if single_column and hist.unique[t] == 2 and mostly_excluded else near[t])

    t_est = outermost(weights.estimate > 0, None)
    if t_est is None:
        return _EMPTY
    value = outer(weights.estimate, t_est, 2)
    outer_bound = outer(weights.upper, outermost(weights.upper > 0, t_est), 5)

    t = outermost(weights.lower > 0.5, t_est)
    inner_bound = float(far[t])
    if single_column and hist.unique[t] > 2 and hist.counts[t] > min_points:
        s = terrell_scott_bins(int(hist.unique[t]))
        covered = int(np.floor(s * weights.lower[t] / max(hist.counts[t], 1.0)))
        sub_bin_width = (hist.v_plus[t] - hist.v_minus[t]) / s
        inner_bound = float(far[t] + towards_near * covered * sub_bin_width)
    lower, upper = (inner_bound, outer_bound) if is_max else (outer_bound, inner_bound)
    return AqpEstimate(value=value, lower=min(lower, value), upper=max(upper, value))


# --------------------------------------------------------------------------- #
# MEDIAN


def _median_bin(weights: np.ndarray) -> int | None:
    total = weights.sum()
    if total <= 0:
        return None
    cumulative = np.cumsum(weights)
    return int(np.searchsorted(cumulative, total / 2.0))


def _median(hist: Histogram1D, weights: WeightingResult) -> AqpEstimate:
    t_est = _median_bin(weights.estimate)
    if t_est is None:
        return _EMPTY
    t_est = min(t_est, hist.num_bins - 1)
    total = weights.estimate.sum()
    below = weights.estimate[:t_est].sum()
    w_t = weights.estimate[t_est]
    fraction = 0.5 if w_t <= 0 else float((total / 2.0 - below) / w_t)
    fraction = float(np.clip(fraction, 0.0, 1.0))
    if hist.unique[t_est] == 2:
        value = float(hist.v_minus[t_est] if fraction < 0.5 else hist.v_plus[t_est])
    else:
        width = hist.v_plus[t_est] - hist.v_minus[t_est]
        value = float(hist.v_minus[t_est] + width * fraction)

    candidate_bins = []
    for w in (weights.lower, weights.upper):
        t = _median_bin(w)
        if t is not None:
            candidate_bins.append(min(t, hist.num_bins - 1))
    if not candidate_bins:
        candidate_bins = [t_est]
    lower = float(hist.v_minus[min(candidate_bins)])
    upper = float(hist.v_plus[max(candidate_bins)])
    return AqpEstimate(value=value, lower=min(lower, value), upper=max(upper, value))


# --------------------------------------------------------------------------- #
# VAR


def _var(hist: Histogram1D, weights: WeightingResult) -> AqpEstimate:
    midpoints = hist.midpoints
    mean = _weighted_mean(weights.estimate, midpoints)
    mean_square = _weighted_mean(weights.estimate, midpoints ** 2)
    # Between-bin variance of midpoints plus the within-bin variance of a
    # uniform distribution over [v-, v+]; the same per-bin uniformity
    # assumption that drives every other estimator in §5.
    within_bin = _weighted_mean(weights.estimate, hist.widths ** 2 / 12.0)
    estimate = max(0.0, mean_square - mean ** 2 + within_bin)

    # xi- / xi+ (Eq. 38-39): per-bin representative points that are as close
    # to / as far from the estimated mean as the bin extrema allow.
    xi_minus = np.where(
        hist.v_plus < mean, hist.v_plus, np.where(hist.v_minus > mean, hist.v_minus, mean)
    )
    distance_low = np.abs(mean - hist.v_minus)
    distance_high = np.abs(hist.v_plus - mean)
    xi_plus = np.where(distance_low > distance_high, hist.v_minus, hist.v_plus)

    candidates = _bound_weightings(weights)

    def variance_with(points: np.ndarray, w: np.ndarray) -> float:
        mu = _weighted_mean(w, points)
        second = _weighted_mean(w, points ** 2)
        return max(0.0, second - mu ** 2)

    lower = min(variance_with(xi_minus, w) for w in candidates)
    upper = max(variance_with(xi_plus, w) for w in candidates)
    return AqpEstimate(value=estimate, lower=min(lower, estimate), upper=max(upper, estimate))
