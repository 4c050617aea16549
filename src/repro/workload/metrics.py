"""Error, bounds and latency metrics used throughout the evaluation (§6).

The paper reports: median relative error, error CDFs, the fraction of
queries whose bounds contain the true result ("bounds correct rate"), the
median bound width as a percentage of the exact result, median query
latency and synopsis construction time.  :func:`score` is the one scoring
rule — the paper tables, the accuracy sweep and the server's auditor all
call it, and it is the rule ``benchmarks/e2e`` gates ``bound_hit_rate``
on — and every reduction over scored answers lives here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


def usable(truth: float) -> bool:
    """Whether an exact answer can be scored against: rows matched and the
    result is not 0 (a relative error needs a denominator)."""
    return math.isfinite(truth) and truth != 0


def score(value: float, lower: float, upper: float, truth: float) -> tuple[float, bool]:
    """(relative error, whether ``[lower, upper]`` holds ``truth``) of one answer.

    No answer (NaN) where rows exist scores ``(inf, False)``; so do missing
    bounds.  The workload runner only scores :func:`usable` truths; the
    auditor scores whatever the server served, where an exact 0 is judged
    on the absolute error.
    """
    if not (math.isfinite(value) and math.isfinite(truth)):
        return math.inf, False
    return abs(value - truth) / (abs(truth) or 1.0), bool(lower <= truth <= upper)


@dataclass
class QueryRecord:
    """Per-query measurement: what was asked, what came back, how long it took."""

    sql: str
    aggregation: str
    truth: float
    estimate: float
    lower: float = float("nan")
    upper: float = float("nan")
    latency_seconds: float = 0.0
    supported: bool = True
    #: Number of conditions in the WHERE clause (the sweep splits on it).
    predicates: int = 0

    @property
    def relative_error(self) -> float:
        return score(self.estimate, self.lower, self.upper, self.truth)[0]

    @property
    def bounds_correct(self) -> bool:
        return score(self.estimate, self.lower, self.upper, self.truth)[1]

    @property
    def bound_width_percent(self) -> float:
        """Bound width as a percentage of the exact result (Table 6 metric)."""
        return 100.0 * (self.upper - self.lower) / (abs(self.truth) or 1.0)


@dataclass
class WorkloadSummary:
    """Aggregate statistics over a set of :class:`QueryRecord`.

    Every reduction runs over all supported records: an answer without a
    value or without bounds is an infinite error and a miss, not a smaller
    denominator.
    """

    records: list[QueryRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    def add(self, record: QueryRecord) -> None:
        self.records.append(record)

    @property
    def supported_records(self) -> list[QueryRecord]:
        return [r for r in self.records if r.supported]

    @property
    def n(self) -> int:
        """How many answers the summary's numbers were scored on."""
        return len(self.supported_records)

    def errors(self) -> np.ndarray:
        return np.array([r.relative_error for r in self.supported_records])

    def median_error_percent(self) -> float:
        errors = self.errors()
        return float(np.median(errors) * 100.0) if errors.size else float("nan")

    def median_latency_ms(self) -> float:
        latencies = np.array([r.latency_seconds for r in self.supported_records])
        return float(np.median(latencies) * 1000.0) if latencies.size else float("nan")

    def _reports_bounds(self) -> bool:
        """False for a system that never reports bounds (DBEst++): its bound
        columns render ``-`` instead of a 0% hit rate."""
        return any(np.isfinite(r.lower) for r in self.supported_records)

    def bounds_correct_rate_percent(self) -> float:
        if not self._reports_bounds():
            return float("nan")
        return 100.0 * float(np.mean([r.bounds_correct for r in self.supported_records]))

    def median_bound_width_percent(self) -> float:
        if not self._reports_bounds():
            return float("nan")
        widths = np.array([r.bound_width_percent for r in self.supported_records])
        return float(np.median(np.where(np.isfinite(widths), widths, np.inf)))

    def zero_width_and_wrong(self) -> int:
        """Answers that claim exactness (``lower == upper``) and miss."""
        return sum(
            1 for r in self.supported_records if r.lower == r.upper and not r.bounds_correct
        )

    def error_percentiles(self, percentiles: np.ndarray | list[float]) -> np.ndarray:
        """Error values at the requested percentiles (for the Fig. 10 CDFs)."""
        errors = self.errors()
        if errors.size == 0:
            return np.full(len(list(percentiles)), float("nan"))
        # The empirical CDF's own inverse: it never interpolates, so an
        # infinite error stays an infinite percentile instead of turning
        # its finite neighbour into NaN.
        return np.percentile(errors, percentiles, method="inverted_cdf")

    def fraction_below(self, threshold: float) -> float:
        """Fraction of queries with relative error below ``threshold`` (e.g. 0.10)."""
        errors = self.errors()
        return float(np.mean(errors < threshold)) if errors.size else float("nan")

    def by(self, attribute: str) -> dict[object, "WorkloadSummary"]:
        """Split the summary on one record attribute, first-seen order."""
        split: dict[object, WorkloadSummary] = {}
        for record in self.records:
            split.setdefault(getattr(record, attribute), WorkloadSummary()).add(record)
        return split

    def by_aggregation(self) -> dict[str, "WorkloadSummary"]:
        """Split the summary per aggregation function (Table 5 rows)."""
        return self.by("aggregation")
