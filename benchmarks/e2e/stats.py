"""Pure maths of the benchmark: percentiles, spreads, the A/B verdict and the
environment fingerprint.  Nothing here touches the system under test."""

from __future__ import annotations

import math
import os
import platform
import statistics
import subprocess
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parents[2]


def percentile(samples, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0..100) of a non-empty sample."""
    if len(samples) == 0:
        raise ValueError("percentile of an empty sample")
    return float(np.percentile(np.asarray(samples, dtype=np.float64), q))


def median(samples) -> float:
    return percentile(samples, 50.0)


def score(value, lower, upper, truth: float) -> tuple[float, bool]:
    """(relative error in %, whether ``[lower, upper]`` holds ``truth``) of one
    answer whose exact value ``truth`` is finite and not 0.  No answer (None
    or NaN) where rows exist scores ``(inf, False)``."""
    if value is None or value != value:
        return math.inf, False
    return abs(value - truth) / abs(truth) * 100.0, lower <= truth <= upper


def quartile_spread(values) -> float:
    """Q1..Q3 distance as a share of the median, the way the driver takes it."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return abs(q3 - q1) / abs(mid) if mid else math.inf


def worsening(base: float, new: float, better: str) -> float:
    """Signed share of ``base`` by which ``new`` is worse (negative = better)."""
    if base == 0:
        return 0.0 if new == 0 else math.inf
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def verdict(a: list[float], b: list[float], better: str, bound: float) -> dict:
    """Compare run set ``b`` against run set ``a`` on one metric.

    ``unresolved`` when either side's own quartile spread exceeds the bound
    (the instrument cannot see a move of that size) or is unknown because
    the side has a single run; otherwise ``worse`` /
    ``better`` when the medians differ by more than the wider spread, else
    ``same``.  ``gate`` is the regression rule itself: ``b``'s median may
    not be worse than ``a``'s by more than the bound.
    """
    med_a, med_b = statistics.median(a), statistics.median(b)
    spread = max(quartile_spread(a), quartile_spread(b))
    delta = worsening(med_a, med_b, better)
    if spread > bound or min(len(a), len(b)) < 2:
        word = "unresolved"
    elif delta > spread:
        word = "worse"
    elif delta < -spread:
        word = "better"
    else:
        word = "same"
    return {
        "median_a": med_a,
        "median_b": med_b,
        "quartiles_a": _quartiles(a),
        "quartiles_b": _quartiles(b),
        "spread": spread,
        "worsening": delta,
        "verdict": word,
        "gate": "ok" if delta <= bound else "FAIL",
    }


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return (values[0], values[0])
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q1, q3)


def calibration_ms() -> float:
    """Fixed pure-Python + NumPy work, median of 5, in ms: a box that scores
    differently produces numbers that are not comparable to this one's."""
    timings = []
    data = np.arange(200_000, dtype=np.float64)
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i % 7
        np.sort(data[::-1] * 1.0001).sum()
        timings.append((time.perf_counter() - start) * 1e3)
    return statistics.median(timings)


def _git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def fingerprint(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "sched_getaffinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": _git_commit(),
        "seed": seed,
        "calibration_ms": calibration_ms(),
    }
