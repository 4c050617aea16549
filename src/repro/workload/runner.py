"""Run a workload against an AQP system and score every answer.

One function serves every table, figure, ablation and the accuracy sweep:
:func:`run` computes the exact answer over ``table``, asks the system, and
scores with :func:`~repro.workload.metrics.score`.  To evaluate a service
after ingests, pass ``service.table(name).store.reconstruct_rows()`` — the
lossless reconstruction of whatever it holds now — as ``table``.
"""

from __future__ import annotations

import time

from ..baselines.base import AqpSystem, UnsupportedQueryError
from ..data.table import Table
from ..exactdb.executor import ExactQueryEngine
from ..sql.ast import Query, predicate_conditions
from .metrics import QueryRecord, WorkloadSummary, usable


def run(system: AqpSystem, table: Table, queries: list[Query]) -> WorkloadSummary:
    """Score ``system`` on every query whose exact answer over ``table`` is usable.

    Statements whose exact answer is empty, zero or non-finite are not
    scored (the rule ``benchmarks/e2e`` applies); ones the system cannot
    answer are recorded with ``supported=False`` so per-system supported
    counts can be reported the way the paper does for DeepDB and DBEst++.
    """
    exact = ExactQueryEngine(table)
    summary = WorkloadSummary()
    for query in queries:
        truth = exact.execute_scalar(query)
        if not usable(truth):
            continue
        record = QueryRecord(
            sql=str(query),
            aggregation=query.aggregation.func.value,
            truth=truth,
            estimate=float("nan"),
            predicates=len(predicate_conditions(query.predicate)),
        )
        try:
            start = time.perf_counter()
            result = system.estimate(query)
            record.latency_seconds = time.perf_counter() - start
        except UnsupportedQueryError:
            record.supported = False
        else:
            record.estimate, record.lower, record.upper = result.value, result.lower, result.upper
        summary.add(record)
    return summary
