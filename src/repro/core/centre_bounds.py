"""Bin weighted-centre bounds (§4.2, Theorem 1 and Eq. 10).

Each histogram bin stores bounds on the weighted centre (mean) of the data
points it contains.  Bins that passed the uniformity test get the tight
Theorem 1 bounds derived from the chi-squared critical value; bins that did
not pass (fewer than ``M`` points) fall back to the worst-case bounds based
only on the extrema, the unique count and the minimum value spacing ``mu``.
"""

from __future__ import annotations

import numpy as np

from .hypothesis import sub_bins_and_critical_values


def _midpoint(v_minus: np.ndarray, v_plus: np.ndarray) -> np.ndarray:
    return (v_minus + v_plus) / 2.0


def passing_centre_bounds(
    count: np.ndarray, v_minus: np.ndarray, v_plus: np.ndarray, unique: np.ndarray, alpha: float
) -> tuple[np.ndarray, np.ndarray]:
    """Theorem 1 bounds for bins that passed the uniformity test (Eq. 4)."""
    count, v_minus, v_plus = (np.asarray(a, dtype=float) for a in (count, v_minus, v_plus))
    s, chi2_alpha = sub_bins_and_critical_values(unique, alpha)
    with np.errstate(divide="ignore", invalid="ignore"):
        delta = (v_plus - v_minus) / s
        spread = (delta / 6.0) * np.sqrt(3.0 * chi2_alpha * (s * s - 1.0) / count)
    lower = np.clip(v_minus + (s - 1.0) * delta / 2.0 - spread, v_minus, v_plus)
    upper = np.clip(v_minus + (s + 1.0) * delta / 2.0 + spread, v_minus, v_plus)
    midpoint = _midpoint(v_minus, v_plus)
    lower, upper = np.where(s < 2, midpoint, lower), np.where(s < 2, midpoint, upper)
    degenerate = (count <= 0) | (v_plus <= v_minus)
    return np.where(degenerate, v_minus, lower), np.where(degenerate, v_plus, upper)


def non_passing_centre_bounds(
    count: np.ndarray, v_minus: np.ndarray, v_plus: np.ndarray, unique: np.ndarray, min_spacing: float
) -> tuple[np.ndarray, np.ndarray]:
    """Worst-case bounds for bins that did not pass the test (Eq. 10, first case).

    The extreme weighted centres occur when ``h - u + 1`` points sit at one
    extremum and the remaining unique values are packed as closely as the
    minimum spacing ``mu`` allows.
    """
    count, v_minus, v_plus, unique = (
        np.asarray(a, dtype=float) for a in (count, v_minus, v_plus, unique)
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        shift = (unique - 1.0) * unique * min_spacing / (2.0 * count)
    lower = np.clip(v_minus + shift, v_minus, v_plus)
    upper = np.clip(v_plus - shift, v_minus, v_plus)
    crossed = lower > upper
    midpoint = _midpoint(v_minus, v_plus)
    lower, upper = np.where(crossed, midpoint, lower), np.where(crossed, midpoint, upper)
    unconstrained = (count <= 0) | (unique <= 1)
    return np.where(unconstrained, v_minus, lower), np.where(unconstrained, v_plus, upper)


def weighted_centre_bounds(
    counts: np.ndarray,
    v_minus: np.ndarray,
    v_plus: np.ndarray,
    unique: np.ndarray,
    min_points: int,
    alpha: float,
    min_spacing: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Eq. 10: per-bin weighted-centre bounds for a whole histogram.

    Bins with ``count >= min_points`` are "passing" bins (they survived the
    uniformity test), the rest use the worst-case formulation.
    """
    passing = np.asarray(counts) >= min_points
    tight = passing_centre_bounds(counts, v_minus, v_plus, unique, alpha)
    worst = non_passing_centre_bounds(counts, v_minus, v_plus, unique, min_spacing)
    return np.where(passing, tight[0], worst[0]), np.where(passing, tight[1], worst[1])
