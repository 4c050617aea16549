"""Workload generation, execution and metrics.

``run`` is resolved lazily (PEP 562): :mod:`repro.workload.runner`
imports every baseline system, and a server reaches this package only
for :func:`score` / :func:`usable` (the accuracy auditor).
"""

from .generator import QueryGenerator, WorkloadSpec
from .metrics import QueryRecord, WorkloadSummary, score, usable

__all__ = [
    "QueryGenerator",
    "WorkloadSpec",
    "QueryRecord",
    "WorkloadSummary",
    "score",
    "usable",
    "run",
]


def __getattr__(name: str):
    if name != "run":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .runner import run

    globals()["run"] = run  # cache so the lookup runs once
    return run


def __dir__() -> list[str]:
    return sorted(set(globals()) | {"run"})
