"""Answer-quality observability: EXPLAIN plans, accuracy auditing, and
the workload analytics log.

Three pieces, wired through the service / wire / cluster layers:

* :mod:`repro.audit.explain` — structured ``EXPLAIN`` /
  ``EXPLAIN ANALYZE`` plans (also reachable as a SQL prefix of the
  ``query`` op) showing cache state, routing, synopsis consultation, bound
  derivation and the scatter-gather recombination plan;
* :mod:`repro.audit.auditor` — :class:`AccuracyAuditor`, the background
  daemon that recomputes a sample of served queries exactly against the
  GD store's lossless rows and alerts on bound violations;
* :mod:`repro.audit.workload` — :class:`WorkloadLog`, the bounded ring
  of normalized query templates the ``workload`` op exposes and the
  auditor replays from.
"""

from .auditor import AccuracyAuditor, AuditRecord
from .explain import build_explain, gather_section, split_explain
from .workload import WorkloadLog, normalize_query, normalize_sql

__all__ = [
    "AccuracyAuditor",
    "AuditRecord",
    "WorkloadLog",
    "build_explain",
    "gather_section",
    "normalize_query",
    "normalize_sql",
    "split_explain",
]
