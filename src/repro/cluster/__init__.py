"""Sharded multi-process cluster: shard router, scatter-gather, supervision.

The horizontal-scaling layer above the durable single-node service:

* :mod:`repro.cluster.router` — deterministic row-hash placement of every
  row onto one of N worker shards;
* :mod:`repro.cluster.shard` — worker backends: in-process
  (:class:`LocalShard`) or one object per ``QueryServer`` subprocess
  (:class:`ProcessShard`: process, data directory, channels);
* :mod:`repro.cluster.supervisor` — :class:`ShardSupervisor`: worker
  command lines, spawn + banner scrape, log relay, graceful stop;
* :mod:`repro.cluster.gather` — recombination of per-shard synopsis
  answers (COUNT/SUM add, AVG via weighted sums, GROUP BY unions,
  conservative bounds);
* :mod:`repro.cluster.service` — :class:`ClusterQueryService`, the
  scatter-gather front end (``python -m repro.service --shards N`` serves
  it through the same :class:`~repro.service.server.AsyncFacade` +
  :class:`~repro.service.server.QueryServer` a single node uses).
"""

from .gather import GatherPlan, ShardAnswer, gather_groups, gather_scalar, plan_query
from .router import ShardRouter
from .service import (
    ClusterIngestResult,
    ClusterQueryService,
    ClusterTable,
)
from .shard import LocalShard, ProcessShard
from .supervisor import ShardSupervisor, WorkerHandle

__all__ = [
    "ClusterIngestResult",
    "ClusterQueryService",
    "ClusterTable",
    "GatherPlan",
    "LocalShard",
    "ProcessShard",
    "ShardAnswer",
    "ShardRouter",
    "ShardSupervisor",
    "WorkerHandle",
    "gather_groups",
    "gather_scalar",
    "plan_query",
]
