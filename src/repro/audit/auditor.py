"""Background accuracy auditor: live ground truth for approximate answers.

The whole system sells approximate answers with error bounds; nothing in
PR 9's observability says whether those bounds actually *hold* on the
live workload.  :class:`AccuracyAuditor` closes the loop:

* the query hot path hands it a deterministic 1-in-N sample of served
  SQL (``sample_rate``; stride sampling, no RNG on the hot path),
* each audit interval it also replays a stratified round-robin sample
  from the :class:`~repro.audit.workload.WorkloadLog`, so low-frequency
  templates get audited even when live sampling misses them,
* off the hot path (a daemon thread) it recomputes each sampled query
  **exactly** against the GD store's lossless rows — reconstruction via
  :meth:`~repro.gd.partitioned.PartitionedStore.reconstruct_rows` into
  an :class:`~repro.exactdb.executor.ExactQueryEngine`, cached per
  ``(table, synopsis_version)`` so one reconstruction serves many audits,
* the observed relative error and bound-violation outcomes land in the
  PR 9 metrics registry (counters + error histogram, per table), in the
  workload log's per-template rollups, and — on violation — as a
  structured JSON ``bound_violation`` alert event.

The auditor samples the queries its own process answers.  In a
replicated cluster every worker runs one, but replicas serve no queries,
so a replica's live sample stays empty and the primaries audit.
"""

from __future__ import annotations

import threading
from collections import deque

from ..exactdb.executor import ExactQueryEngine
from ..obs import log as obs_log
from ..obs import metrics as obs_metrics
from ..sql.ast import UnsupportedQueryError
from ..sql.parser import ParseError, parse_query_cached
from ..workload.metrics import score
from .workload import WorkloadLog

__all__ = ["AccuracyAuditor", "AuditRecord"]

#: Default fraction of live queries sampled for auditing.
DEFAULT_SAMPLE_RATE = 0.01
#: Default seconds between background audit passes.
DEFAULT_INTERVAL_SECONDS = 5.0
#: Workload-log templates replayed per pass (round-robin across passes).
DEFAULT_REPLAY_LIMIT = 8

_AUDITED = obs_metrics.counter(
    "aqp_audited_queries_total",
    "Queries recomputed exactly by the accuracy auditor, by table.",
    labelnames=("table",),
)
_VIOLATIONS = obs_metrics.counter(
    "aqp_audit_bound_violations_total",
    "Audited queries whose exact answer fell outside the reported bounds.",
    labelnames=("table",),
)
_SKIPPED = obs_metrics.counter(
    "aqp_audit_skipped_total",
    "Sampled queries the auditor could not ground-truth, by reason.",
    labelnames=("reason",),
)
_ERRORS = obs_metrics.histogram(
    "aqp_audit_relative_error",
    "Observed relative error of audited queries (paper's error metric).",
    labelnames=("table",),
    buckets=(0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0),
)


class AuditRecord:
    """One audited query: estimate vs exact truth."""

    __slots__ = ("sql", "table", "value", "lower", "upper", "truth", "error", "violated")

    def __init__(self, sql, table, value, lower, upper, truth, error, violated):
        self.sql = sql
        self.table = table
        self.value = value
        self.lower = lower
        self.upper = upper
        self.truth = truth
        self.error = error
        self.violated = violated

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


class AccuracyAuditor:
    """Samples served queries and recomputes them exactly off the hot path."""

    def __init__(
        self,
        service,
        sample_rate: float = DEFAULT_SAMPLE_RATE,
        interval_seconds: float = DEFAULT_INTERVAL_SECONDS,
        workload: WorkloadLog | None = None,
        queue_size: int = 512,
        replay_limit: int = DEFAULT_REPLAY_LIMIT,
        keep_records: int = 256,
        alert_stream=None,
    ) -> None:
        self.service = service
        self.sample_rate = sample_rate
        self.interval_seconds = interval_seconds
        self.workload = workload
        self.replay_limit = replay_limit
        #: 1-in-stride deterministic sampling (no RNG on the hot path).
        self._stride = max(1, round(1.0 / sample_rate)) if sample_rate > 0 else 0
        self._seen = 0
        self._queue: deque[str] = deque(maxlen=queue_size)
        #: Recent audit outcomes, newest last (tests + the ``audit`` op).
        self.records: deque[AuditRecord] = deque(maxlen=keep_records)
        self._stats_lock = threading.Lock()
        self.audited = 0
        self.violations = 0
        self.skipped = 0
        self.truth_failures = 0
        self.error_sum = 0.0
        self.error_max = 0.0
        #: table → (synopsis_version, ExactQueryEngine over lossless rows).
        self._exact_cache: dict[str, tuple[int, ExactQueryEngine]] = {}
        self._local = threading.local()
        self._alert_log = (
            obs_log.JsonLogger("audit", stream=alert_stream)
            if alert_stream is not None
            else obs_log.get_logger("audit")
        )
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------ #
    # Hot-path hooks

    @property
    def in_audit(self) -> bool:
        """True on the auditor's own thread while it re-executes a query —
        the service's hooks use this to keep audit traffic out of the
        workload log and out of the sample stream (no feedback loop)."""
        return getattr(self._local, "active", False)

    def consider(self, sql: str) -> None:
        """Maybe enqueue one served query for auditing (hot path).

        Deliberately lock-free: a racing increment can at worst skew the
        sample stride by one, which sampling tolerates — a lock here
        would tax every served query to protect a statistic.
        """
        stride = self._stride
        if not stride:
            return
        self._seen += 1
        if self._seen % stride == 0:
            self._queue.append(sql)

    # ------------------------------------------------------------------ #
    # Background daemon

    def start(self) -> "AccuracyAuditor":
        if self._thread is None:
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._run, name="repro-accuracy-auditor", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def _run(self) -> None:
        while not self._stop.wait(self.interval_seconds):
            try:
                self.audit_now()
            except Exception:  # never let an audit pass kill the daemon
                with self._stats_lock:
                    self.truth_failures += 1

    def audit_now(self) -> int:
        """One audit pass: drain the live sample queue + stratified replay.

        Synchronous (tests drive it directly); returns the number of
        queries audited this pass.
        """
        batch: list[str] = []
        while True:
            try:
                batch.append(self._queue.popleft())
            except IndexError:
                break
        if self.workload is not None:
            batch.extend(self.workload.replay_samples(self.replay_limit))
        audited = 0
        for sql in batch:
            if self._audit_one(sql):
                audited += 1
        return audited

    # ------------------------------------------------------------------ #
    # One audit

    def _audit_one(self, sql: str) -> bool:
        self._local.active = True
        try:
            return self._audit_inner(sql)
        finally:
            self._local.active = False

    def _audit_inner(self, sql: str) -> bool:
        try:
            query = parse_query_cached(sql)
        except ParseError:
            self._skip("parse_error")
            return False
        if query.group_by is not None:
            # GROUP BY audits would need per-group truth alignment; the
            # scalar workload is where the bounds story lives today.
            self._skip("group_by")
            return False
        try:
            estimate = self.service.execute_scalar(sql)
        except (KeyError, ValueError, UnsupportedQueryError):
            self._skip("execute_failed")
            return False
        exact = self._exact_engine(query.table)
        if exact is None:
            with self._stats_lock:
                self.truth_failures += 1
            _SKIPPED.inc(reason="truth_failed")
            return False
        try:
            truth = exact.execute_scalar(query)
        except (KeyError, ValueError):
            with self._stats_lock:
                self.truth_failures += 1
            _SKIPPED.inc(reason="truth_failed")
            return False
        error, hit = score(estimate.value, estimate.lower, estimate.upper, truth)
        violated = not hit
        record = AuditRecord(
            sql=sql,
            table=query.table,
            value=estimate.value,
            lower=estimate.lower,
            upper=estimate.upper,
            truth=truth,
            error=error,
            violated=violated,
        )
        self.records.append(record)
        with self._stats_lock:
            self.audited += 1
            if violated:
                self.violations += 1
            if error == error and error != float("inf"):  # finite only
                self.error_sum += error
                if error > self.error_max:
                    self.error_max = error
        _AUDITED.inc(table=query.table)
        _ERRORS.observe(min(error, 1e9), table=query.table)
        # Materialise the per-table violations series at zero on first
        # audit: Prometheus ``rate()`` cannot see a 0 -> 1 transition on
        # a counter whose series is born at 1.
        violations = _VIOLATIONS.labels(table=query.table)
        if violated:
            violations.inc()
            self._alert_log.warning("bound_violation", **record.to_dict())
        if self.workload is not None:
            self.workload.record_audit(sql, error, violated)
        return True

    def _skip(self, reason: str) -> None:
        with self._stats_lock:
            self.skipped += 1
        _SKIPPED.inc(reason=reason)

    # ------------------------------------------------------------------ #
    # Exact ground truth

    def _exact_engine(self, table_name: str) -> ExactQueryEngine | None:
        """Exact engine over the table's lossless rows, version-cached.

        The store and the version come from one immutable table value, so
        the rows reconstructed are exactly the rows the synopsis of that
        version summarises.
        """
        try:
            managed = self.service.table(table_name)
        except KeyError:
            return None
        version = managed.synopsis_version
        cached = self._exact_cache.get(table_name)
        if cached is not None and cached[0] == version:
            return cached[1]
        try:
            rows = managed.store.reconstruct_rows()
        except Exception:
            return None
        engine = ExactQueryEngine(rows)
        self._exact_cache[table_name] = (version, engine)
        return engine

    # ------------------------------------------------------------------ #
    # Introspection

    def stats(self) -> dict:
        """Plain-dict state for the ``audit`` wire op."""
        with self._stats_lock:
            audited = self.audited
            stats = {
                "sample_rate": self.sample_rate,
                "interval_seconds": self.interval_seconds,
                "audited": audited,
                "violations": self.violations,
                "skipped": self.skipped,
                "truth_failures": self.truth_failures,
                "queue_depth": len(self._queue),
                "error_max": self.error_max,
                "error_mean": self.error_sum / audited if audited else 0.0,
            }
        stats["recent_violations"] = [
            record.to_dict() for record in list(self.records) if record.violated
        ][-8:]
        return stats

    @staticmethod
    def merge_stats(stats_list: list[dict]) -> dict:
        """Merge per-shard ``stats()`` dicts into one cluster view."""
        merged = {
            "audited": 0,
            "violations": 0,
            "skipped": 0,
            "truth_failures": 0,
            "queue_depth": 0,
            "error_max": 0.0,
            "error_mean": 0.0,
            "recent_violations": [],
            "shards": len(stats_list),
            "enabled": any(stats.get("enabled", False) for stats in stats_list),
        }
        weighted_error = 0.0
        for stats in stats_list:
            merged["audited"] += stats.get("audited", 0)
            merged["violations"] += stats.get("violations", 0)
            merged["skipped"] += stats.get("skipped", 0)
            merged["truth_failures"] += stats.get("truth_failures", 0)
            merged["queue_depth"] += stats.get("queue_depth", 0)
            merged["error_max"] = max(merged["error_max"], stats.get("error_max", 0.0))
            weighted_error += stats.get("error_mean", 0.0) * stats.get("audited", 0)
            merged["recent_violations"].extend(stats.get("recent_violations", []))
        if merged["audited"]:
            merged["error_mean"] = weighted_error / merged["audited"]
        merged["recent_violations"] = merged["recent_violations"][-8:]
        return merged
