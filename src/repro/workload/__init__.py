"""Workload generation, execution and metrics."""

from .generator import QueryGenerator, WorkloadSpec
from .metrics import QueryRecord, WorkloadSummary, score, usable
from .runner import run

__all__ = [
    "QueryGenerator",
    "WorkloadSpec",
    "QueryRecord",
    "WorkloadSummary",
    "score",
    "usable",
    "run",
]
