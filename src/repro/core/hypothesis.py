"""Uniformity hypothesis testing for bin refinement (§4.1, Eq. 2–3).

A histogram bin is split when a chi-squared test rejects the null
hypothesis that the points inside it are uniformly distributed between its
edges.  The number of sub-bins used by the test follows the Terrell–Scott
inequality ``s = ceil((2u)^(1/3))`` where ``u`` is the number of unique
values in the bin.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .chi2_table import CHI2_999, CHI2_QUANTILE


def terrell_scott_bins(unique_count: int) -> int:
    """Number of chi-squared sub-bins for a bin with ``unique_count`` unique values.

    Eq. 2 of the paper: ``s = ceil((2u)^(1/3))``.
    """
    if unique_count <= 0:
        return 1
    return int(np.ceil((2.0 * unique_count) ** (1.0 / 3.0)))


@lru_cache(maxsize=4096)
def chi2_critical_value(alpha: float, sub_bins: int) -> float:
    """Critical value ``chi2_alpha`` with ``s - 1`` degrees of freedom.

    Defined such that ``Pr(chi2 > chi2_alpha) = alpha`` under the null
    hypothesis.  Cached because the same (alpha, s) pairs recur for every
    bin of every histogram.  The paper's ``alpha = 0.001`` reads the
    committed :mod:`~repro.core.chi2_table`; any other ``(alpha, dof)``
    asks scipy, imported here so that a process which never leaves the
    table never loads it.  Both give scipy's value bit for bit.
    """
    dof = max(1, sub_bins - 1)
    # Keyed on scipy's argument, so every alpha it would see as 0.999 hits.
    if 1.0 - alpha == CHI2_QUANTILE and dof <= len(CHI2_999):
        return CHI2_999[dof - 1]
    from scipy import stats

    return float(stats.chi2.ppf(1.0 - alpha, dof))


def sub_bins_and_critical_values(unique: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-bin ``s`` (Eq. 2) and ``chi2_alpha`` for an array of unique counts.

    One :func:`terrell_scott_bins` / :func:`chi2_critical_value` lookup per
    *distinct* truncated count, scattered back — not an array ``(2u) ** (1/3)``,
    whose SIMD ``pow`` may differ from libm by an ulp that ``ceil`` would
    turn into a different ``s`` on another machine.
    """
    unique = np.asarray(unique)
    distinct, inverse = np.unique(unique.astype(np.int64), return_inverse=True)
    sub_bins = np.array([terrell_scott_bins(int(u)) for u in distinct])
    critical = np.array([chi2_critical_value(alpha, int(s)) for s in sub_bins])
    inverse = inverse.reshape(unique.shape)
    return sub_bins[inverse], critical[inverse]


@dataclass(frozen=True)
class UniformityResult:
    """Outcome of one uniformity test (kept for diagnostics / ablations)."""

    statistic: float
    critical_value: float
    sub_bins: int

    @property
    def is_uniform(self) -> bool:
        return self.statistic <= self.critical_value


def uniformity_test(
    values: np.ndarray,
    lower: float,
    upper: float,
    unique_count: int,
    alpha: float,
) -> UniformityResult:
    """Chi-squared test of uniformity for the points of one bin.

    Parameters
    ----------
    values:
        The data points inside the bin.
    lower, upper:
        Bin edges.  Points are assumed to satisfy ``lower <= x <= upper``.
    unique_count:
        Number of unique values among ``values`` (drives the sub-bin count).
    alpha:
        Significance level.
    """
    count = len(values)
    sub_bins = terrell_scott_bins(unique_count)
    # A bin with no points, a single unique value or a degenerate range
    # cannot be refined further, so it is treated as uniform.
    if count == 0 or unique_count <= 1 or sub_bins < 2 or upper <= lower:
        return UniformityResult(statistic=0.0, critical_value=1.0, sub_bins=max(sub_bins, 1))
    counts, _ = np.histogram(values, bins=sub_bins, range=(lower, upper))
    expected = count / sub_bins
    statistic = float(((counts - expected) ** 2 / expected).sum())
    critical = chi2_critical_value(alpha, sub_bins)
    return UniformityResult(statistic=statistic, critical_value=critical, sub_bins=sub_bins)


def is_uniform(
    values: np.ndarray,
    lower: float,
    upper: float,
    unique_count: int,
    alpha: float,
) -> bool:
    """The ``IsUniform`` predicate of Algorithm 2."""
    return uniformity_test(values, lower, upper, unique_count, alpha).is_uniform
