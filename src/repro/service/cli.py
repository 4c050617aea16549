"""``python -m repro.service``: the serve loop.

One :func:`serve` runs every deployment shape — a single node (in-memory
or durable), a replica (``--replica-of``) and a cluster front end
(``--shards N`` / ``--replicas R``).  What it runs with is one
:class:`~repro.service.config.ServeConfig` (the flags); what differs
between the shapes is data:
:func:`_open_node` and :func:`_open_cluster` each return a
:class:`_Deployment` naming the async face to serve, the replication
role, what to start once listening and what to stop on the way out.

The data directory makes the whole catalog durable (WAL + background
snapshot checkpoints via :mod:`repro.storage`), so a killed server
restarted on the same directory recovers every table.
"""

from __future__ import annotations

import asyncio
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from ..obs import metrics as obs_metrics
from ..obs import tracing
from ..storage.checkpointer import BackgroundCheckpointer
from .config import ServeConfig
from .database import Database, QueryService
from .server import AsyncFacade, AsyncQueryService, QueryServer


def _attach_answer_quality(service, config: ServeConfig):
    """Wire the workload log and (optionally) the accuracy auditor onto a
    query service; returns the started auditor (or ``None``) so the serve
    loop can stop its daemon on shutdown."""
    if config.workload_capacity > 0:
        from ..audit.workload import WorkloadLog

        service.workload_log = WorkloadLog(capacity=config.workload_capacity)
    if config.audit_sample > 0:
        from ..audit.auditor import AccuracyAuditor

        service.auditor = AccuracyAuditor(
            service,
            sample_rate=config.audit_sample,
            interval_seconds=config.audit_interval,
            workload=service.workload_log,
        ).start()
    return service.auditor


def _install_stop_handlers(loop, stop: asyncio.Event) -> None:
    """SIGINT/SIGTERM set the stop event for a graceful shutdown.

    ``REPRO_HANG_ON_SIGTERM=1`` registers a no-op SIGTERM handler instead —
    the wedged-worker drill for the supervisor's SIGTERM → SIGKILL
    escalation (the process then only dies to SIGKILL).
    """
    import os
    import signal

    hang = os.environ.get("REPRO_HANG_ON_SIGTERM") == "1"
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            if hang and signum == signal.SIGTERM:
                loop.add_signal_handler(signum, lambda: None)
            else:
                loop.add_signal_handler(signum, stop.set)
        except NotImplementedError:  # non-unix event loops
            pass



@dataclass
class _Deployment:
    """What :func:`serve` needs to know about the thing it is serving."""

    #: The async face the TCP server dispatches onto.
    front: AsyncFacade
    #: Registry snapshot behind ``/metrics`` (a cluster merges its fleet's).
    snapshot: Callable[[], dict]
    #: Blocking teardown once the server is down.
    close: Callable[[], None] = lambda: None
    #: ``/readyz`` beyond "accepting connections".  A node has nothing to
    #: add: Database.open replays the WAL before returning.
    ready: Callable[[], bool] = lambda: True
    #: This process's :class:`~repro.replication.ReplicationState`, if any.
    replication: object | None = None
    #: Started once the server listens (checkpointer, follower loop).
    background: list[Callable[[], object]] = field(default_factory=list)
    #: Blocking stops, in order, while the server still answers.
    stoppers: list[Callable[[], object]] = field(default_factory=list)


def _open_cluster(config: ServeConfig) -> _Deployment:
    """``--shards`` worker subprocesses (each the plain single-process
    server on its own shard data directory) behind a scatter-gather
    :class:`~repro.cluster.service.ClusterQueryService`."""
    from ..cluster.service import ClusterQueryService
    from ..storage.cluster import ClusterLayout

    # Workers run this same config — they own the rows, so auditing runs
    # inside each of them — less what ServeConfig.for_worker resets.
    options = {
        "mode": "process",
        "partition_size": config.partition_size,
        "replicas": config.replicas,
        "worker": config,
    }
    if config.data_dir and ClusterLayout(config.data_dir).read_manifest() is not None:
        cluster = ClusterQueryService.open(
            config.data_dir,
            expected_shards=config.shards,
            **options,
        )
        print(
            f"recovered cluster of {cluster.num_shards} shard(s), "
            f"{len(cluster.table_names)} table(s) from {config.data_dir}",
            flush=True,
        )
    else:
        cluster = ClusterQueryService(
            num_shards=config.shards,
            path=config.data_dir or None,
            **options,
        )
    return _Deployment(
        # Scatter concurrency lives inside the cluster front end and
        # ingest coalescing inside each worker; this face only keeps the
        # event loop unblocked.
        front=AsyncFacade(cluster, max_workers=config.workers),
        snapshot=cluster.metrics,
        # Ready = every primary answers a wire ping.
        ready=cluster.ready,
        # Graceful worker shutdown: SIGTERM triggers each worker's final
        # checkpoint, so the next start recovers from snapshots.
        close=cluster.close,
    )


def _open_node(config: ServeConfig) -> _Deployment:
    """One engine in this process: in-memory, durable, or (with
    ``--replica-of``) a replica that recovers its data directory,
    subscribes to the primary and refuses external writes."""
    from ..replication import FollowerLoop, ReplicaApplier, ReplicationHub, ReplicationState
    from ..storage.cluster import ClusterLayout

    if not config.data_dir:
        if config.replica_of:
            raise SystemExit("--replica-of requires --data-dir")
        database = Database(partition_size=config.partition_size)
    else:
        manifest = ClusterLayout(config.data_dir).read_manifest()
        if manifest is not None:
            # Opening a cluster root as a single-node data dir would boot
            # an empty catalog and scribble wal/snapshots into the cluster
            # directory — refuse instead of silently "losing" the data.
            raise SystemExit(
                f"{config.data_dir!r} is a sharded cluster root "
                f"({manifest.num_shards} shard(s)); start it with "
                f"--shards {manifest.num_shards}"
            )
        database = Database.open(
            config.data_dir, fsync=config.fsync, partition_size=config.partition_size
        )
    service = QueryService(database=database, result_cache_size=config.result_cache_size)
    node = _Deployment(
        front=AsyncQueryService(
            service=service, max_workers=config.workers, max_batch_delay=config.coalesce_delay
        ),
        snapshot=obs_metrics.REGISTRY.snapshot,
    )
    # The auditor samples the queries this process answers: in a replicated
    # cluster only primaries serve queries, so they audit and replicas idle.
    auditor = _attach_answer_quality(service, config)
    if auditor is not None:
        node.stoppers.append(auditor.stop)
    if not config.data_dir:
        return node
    node.close = database.close
    checkpointer = BackgroundCheckpointer(
        service, interval_seconds=config.checkpoint_interval
    )
    node.background.append(checkpointer.start)
    epoch_file = Path(config.epoch_file) if config.epoch_file else None
    if config.replica_of:
        host, _, port_text = config.replica_of.rpartition(":")
        if not host or not port_text.isdigit():
            raise SystemExit("--replica-of must be HOST:PORT")
        follower = FollowerLoop(
            ReplicaApplier(service),
            config.follower_id or Path(config.data_dir).name,
            host,
            int(port_text),
        )
        rep = node.replication = ReplicationState(
            role="replica",
            epoch=config.epoch,
            epoch_file=epoch_file,
            follower=follower,
            ack_replicas=config.acks,
        )
        node.background.append(follower.start)
        # A promotion swaps the follower for a hub; only stop the loop if
        # we are still following someone.
        node.stoppers.append(lambda: rep.follower and rep.follower.shutdown())
    else:
        info = database.recovery_info
        print(
            f"recovered {len(database.table_names)} table(s) from {config.data_dir} "
            f"(snapshot lsn {info.snapshot_lsn}, {info.replayed_records} WAL "
            f"record(s) replayed, {info.rebuilt_partitions} partition "
            f"synopsis(es) rebuilt in {info.seconds:.2f}s)",
            flush=True,
        )
        # Every durable server can feed followers; it only *behaves* as a
        # fenced/semi-sync primary when the cluster wires it up that way.
        hub = ReplicationHub(
            database, ack_replicas=config.acks, ack_timeout=config.ack_timeout
        )
        hub.attach()
        node.replication = ReplicationState(
            role="primary" if (epoch_file or config.acks) else "standalone",
            epoch=config.epoch,
            epoch_file=epoch_file,
            hub=hub,
            ack_replicas=config.acks,
        )

    def final_checkpoint() -> None:
        # So the next start recovers from a snapshot, not the whole WAL.
        if checkpointer.stop() is None and checkpointer.last_error is not None:
            print(
                "final checkpoint failed: "
                f"{checkpointer.last_error!r}; the next start "
                "will recover this state from the WAL instead",
                flush=True,
            )

    node.stoppers.append(final_checkpoint)
    return node


async def serve(config: ServeConfig) -> None:
    """Run a server until SIGINT/SIGTERM; durable when --data-dir is set."""
    # Replicas are follower subprocesses under the cluster supervisor,
    # so even a 1-shard deployment with replicas is a cluster.
    clustered = config.shards > 1 or config.replicas > 0
    deployment = _open_cluster(config) if clustered else _open_node(config)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    _install_stop_handlers(loop, stop)
    if config.slow_query_ms is not None:
        tracing.TRACER.slow_threshold_seconds = max(config.slow_query_ms, 0.0) / 1000.0
    if config.slow_log_file:
        tracing.TRACER.configure_slow_log(
            config.slow_log_file, max_mb=config.slow_log_max_mb
        )
    listening = threading.Event()
    metrics_endpoint = None
    if config.metrics_port is not None:
        from ..obs.exposition import MetricsHTTPServer

        metrics_endpoint = MetricsHTTPServer(
            deployment.snapshot,
            host=config.host,
            port=config.metrics_port,
            ready_fn=lambda: listening.is_set() and deployment.ready(),
        ).start()
        print(f"metrics on {config.host}:{metrics_endpoint.port}", flush=True)
    try:
        async with deployment.front as front, QueryServer(
            front,
            host=config.host,
            port=config.port,
            replication=deployment.replication,
            max_inflight_queries=config.max_inflight_queries or None,
            max_inflight_ingests=config.max_inflight_ingests or None,
        ) as server:
            for start in deployment.background:
                start()
            print(f"listening on {server.host}:{server.port}", flush=True)
            listening.set()
            try:
                await stop.wait()
            finally:
                for stopper in deployment.stoppers:
                    await loop.run_in_executor(None, stopper)
    finally:
        if metrics_endpoint is not None:
            metrics_endpoint.stop()
        await loop.run_in_executor(None, deployment.close)


def main(argv=None) -> None:
    asyncio.run(serve(ServeConfig.from_argv(argv)))
