"""``python -m repro.service``: argument parsing and the serve loop.

One :func:`serve` runs every deployment shape — a single node (in-memory
or durable), a read replica (``--replica-of``) and a cluster front end
(``--shards N`` / ``--replicas R``).  What differs between them is data:
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
from .concurrency import ConcurrentQueryService
from .database import DEFAULT_RESULT_CACHE_SIZE, Database
from .server import (
    DEFAULT_MAX_BATCH_DELAY,
    DEFAULT_MAX_INFLIGHT_INGESTS,
    DEFAULT_MAX_INFLIGHT_QUERIES,
    AsyncFacade,
    AsyncQueryService,
    QueryServer,
)


def _build_arg_parser():
    import argparse

    from ..gd.partitioned import DEFAULT_PARTITION_SIZE

    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Serve the approximate query engine over TCP.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0, help="0 picks a free port")
    parser.add_argument(
        "--data-dir",
        default=None,
        help="durable data directory (WAL + snapshots); omit for a purely "
        "in-memory server.  With --shards N this is the cluster root: one "
        "shard-NNNNN data directory per worker plus the CLUSTER manifest",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help="run a sharded cluster: N worker subprocesses (each a full "
        "durable engine) behind a scatter-gather front end; 1 (default) "
        "serves a single-process engine",
    )
    parser.add_argument(
        "--checkpoint-interval",
        type=float,
        default=30.0,
        help="seconds between background snapshot checkpoints (with --data-dir)",
    )
    parser.add_argument(
        "--fsync",
        action="store_true",
        help="fsync every WAL append (with --data-dir); slower, survives "
        "power loss rather than just process death",
    )
    parser.add_argument(
        "--partition-size", type=int, default=DEFAULT_PARTITION_SIZE
    )
    parser.add_argument(
        "--coalesce-delay",
        type=float,
        default=DEFAULT_MAX_BATCH_DELAY,
        help="max seconds the ingest coalescer keeps a batch open waiting "
        "for more writers",
    )
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument(
        "--result-cache-size",
        type=int,
        default=DEFAULT_RESULT_CACHE_SIZE,
        help="entries in the synopsis-version-keyed result cache "
        "(0 disables; with --shards this applies to every worker)",
    )
    parser.add_argument(
        "--max-inflight-queries",
        type=int,
        default=DEFAULT_MAX_INFLIGHT_QUERIES,
        help="admission control: queries in flight beyond this are shed "
        "with an Overloaded error (0 disables the limit)",
    )
    parser.add_argument(
        "--max-inflight-ingests",
        type=int,
        default=DEFAULT_MAX_INFLIGHT_INGESTS,
        help="admission control: ingests in flight beyond this are shed "
        "with an Overloaded error (0 disables the limit)",
    )
    parser.add_argument(
        "--replicas",
        type=int,
        default=0,
        help="(with --shards) follower workers per shard; they serve "
        "staleness-bounded read scatters and one is promoted when the "
        "shard's primary dies",
    )
    parser.add_argument(
        "--max-replica-lag",
        type=int,
        default=256,
        help="(cluster) a replica serves reads only while its applied LSN "
        "is within this many records of the primary's durable LSN",
    )
    parser.add_argument(
        "--replica-of",
        default=None,
        metavar="HOST:PORT",
        help="run as a read replica subscribed to the given primary "
        "(requires --data-dir; the worker refuses external writes)",
    )
    parser.add_argument(
        "--follower-id",
        default=None,
        help="stable subscriber identity for --replica-of (defaults to the "
        "data directory name)",
    )
    parser.add_argument(
        "--epoch",
        type=int,
        default=0,
        help="replication epoch this worker was spawned at (fencing)",
    )
    parser.add_argument(
        "--epoch-file",
        default=None,
        help="path to the shard's epoch file; mutations re-check it before "
        "acking, so a fenced zombie primary cannot acknowledge writes",
    )
    parser.add_argument(
        "--ack-replicas",
        type=int,
        default=0,
        help="semi-synchronous replication: delay each mutation ack until "
        "this many followers durably acknowledged it (0 = async)",
    )
    parser.add_argument(
        "--ack-timeout",
        type=float,
        default=30.0,
        help="seconds a mutation ack may wait on the replication barrier",
    )
    parser.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        help="serve a Prometheus-text /metrics endpoint on this port "
        "(0 picks a free port; a cluster front end serves the fan-out "
        "merged fleet registry)",
    )
    parser.add_argument(
        "--slow-query-ms",
        type=float,
        default=None,
        help="log completed root query spans slower than this many "
        "milliseconds as structured JSON lines (default: "
        "REPRO_SLOW_QUERY_MS, else off)",
    )
    parser.add_argument(
        "--slow-log-file",
        default=None,
        help="route slow-query JSON lines to this size-rotated file "
        "instead of stderr (default: REPRO_SLOW_LOG_FILE, else stderr)",
    )
    parser.add_argument(
        "--slow-log-max-mb",
        type=float,
        default=tracing.DEFAULT_SLOW_LOG_MAX_MB,
        help="rotate the slow-query log file at this size; at most "
        f"{tracing.SLOW_LOG_KEEP} rotated generations are kept "
        "(default: REPRO_SLOW_LOG_MAX_MB, else %(default)s)",
    )
    parser.add_argument(
        "--audit-sample",
        type=float,
        default=0.0,
        help="fraction of served queries the background accuracy auditor "
        "recomputes exactly against the lossless GD rows (0 disables; "
        "try 0.01)",
    )
    parser.add_argument(
        "--audit-interval",
        type=float,
        default=5.0,
        help="seconds between background audit passes (with --audit-sample)",
    )
    parser.add_argument(
        "--workload-capacity",
        type=int,
        default=256,
        help="distinct normalized query templates the workload analytics "
        "log retains (LRU; 0 disables the log and the auditor's "
        "stratified replay)",
    )
    return parser


def _attach_answer_quality(service, args):
    """Wire the workload log and (optionally) the accuracy auditor onto a
    query service; returns the started auditor (or ``None``) so the serve
    loop can stop its daemon on shutdown."""
    if args.workload_capacity > 0:
        from ..audit.workload import WorkloadLog

        service.workload_log = WorkloadLog(capacity=args.workload_capacity)
    if args.audit_sample > 0:
        from ..audit.auditor import AccuracyAuditor

        service.auditor = AccuracyAuditor(
            service,
            sample_rate=args.audit_sample,
            interval_seconds=args.audit_interval,
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


def _open_cluster(args) -> _Deployment:
    """``--shards`` worker subprocesses (each the plain single-process
    server on its own shard data directory) behind a scatter-gather
    :class:`~repro.cluster.service.ClusterQueryService`."""
    from ..cluster.service import ClusterQueryService
    from ..storage.cluster import ClusterLayout

    options = {
        "mode": "process",
        "partition_size": args.partition_size,
        "max_replica_lag": args.max_replica_lag,
        "worker_options": {
            "checkpoint_interval": args.checkpoint_interval,
            "coalesce_delay": args.coalesce_delay,
            "workers_per_shard": args.workers,
            "fsync": args.fsync,
            "result_cache_size": args.result_cache_size,
            # Workers own the rows, so auditing runs inside each worker.
            "audit_sample": args.audit_sample,
            "audit_interval": args.audit_interval,
            "workload_capacity": args.workload_capacity,
        },
    }
    if args.data_dir and ClusterLayout(args.data_dir).read_manifest() is not None:
        cluster = ClusterQueryService.open(
            args.data_dir,
            expected_shards=args.shards,
            replicas=args.replicas or None,
            **options,
        )
        print(
            f"recovered cluster of {cluster.num_shards} shard(s), "
            f"{len(cluster.table_names)} table(s) from {args.data_dir}",
            flush=True,
        )
    else:
        cluster = ClusterQueryService(
            num_shards=args.shards,
            path=args.data_dir or None,
            replicas=args.replicas,
            **options,
        )
    return _Deployment(
        # Scatter concurrency lives inside the cluster front end and
        # ingest coalescing inside each worker; this face only keeps the
        # event loop unblocked.
        front=AsyncFacade(cluster, max_workers=args.workers),
        snapshot=cluster.metrics,
        # Ready = every worker answers a supervisor ping.
        ready=cluster.ready,
        # Graceful worker shutdown: SIGTERM triggers each worker's final
        # checkpoint, so the next start recovers from snapshots.
        close=cluster.close,
    )


def _open_node(args) -> _Deployment:
    """One engine in this process: in-memory, durable, or (with
    ``--replica-of``) a read replica that recovers its data directory,
    subscribes to the primary and refuses external writes."""
    from ..replication import FollowerLoop, ReplicaApplier, ReplicationHub, ReplicationState
    from ..storage.cluster import ClusterLayout

    if not args.data_dir:
        if args.replica_of:
            raise SystemExit("--replica-of requires --data-dir")
        database = Database(partition_size=args.partition_size)
    else:
        manifest = ClusterLayout(args.data_dir).read_manifest()
        if manifest is not None:
            # Opening a cluster root as a single-node data dir would boot
            # an empty catalog and scribble wal/snapshots into the cluster
            # directory — refuse instead of silently "losing" the data.
            raise SystemExit(
                f"{args.data_dir!r} is a sharded cluster root "
                f"({manifest.num_shards} shard(s)); start it with "
                f"--shards {manifest.num_shards}"
            )
        database = Database.open(
            args.data_dir, fsync=args.fsync, partition_size=args.partition_size
        )
    service = ConcurrentQueryService(
        database=database, result_cache_size=args.result_cache_size
    )
    node = _Deployment(
        front=AsyncQueryService(
            service=service, max_workers=args.workers, max_batch_delay=args.coalesce_delay
        ),
        snapshot=obs_metrics.REGISTRY.snapshot,
    )
    # Replicas are the preferred audit host: replication applies the same
    # committed batches, so the exact recomputation never taxes the primary.
    auditor = _attach_answer_quality(service, args)
    if auditor is not None:
        node.stoppers.append(auditor.stop)
    if not args.data_dir:
        return node
    node.close = database.close
    checkpointer = BackgroundCheckpointer(
        service, interval_seconds=args.checkpoint_interval
    )
    node.background.append(checkpointer.start)
    epoch_file = Path(args.epoch_file) if args.epoch_file else None
    if args.replica_of:
        host, _, port_text = args.replica_of.rpartition(":")
        if not host or not port_text.isdigit():
            raise SystemExit("--replica-of must be HOST:PORT")
        follower = FollowerLoop(
            ReplicaApplier(service),
            args.follower_id or Path(args.data_dir).name,
            host,
            int(port_text),
        )
        rep = node.replication = ReplicationState(
            role="replica",
            epoch=args.epoch,
            epoch_file=epoch_file,
            follower=follower,
            ack_replicas=args.ack_replicas,
        )
        node.background.append(follower.start)
        # A promotion swaps the follower for a hub; only stop the loop if
        # we are still following someone.
        node.stoppers.append(lambda: rep.follower and rep.follower.shutdown())
    else:
        info = database.recovery_info
        print(
            f"recovered {len(database.table_names)} table(s) from {args.data_dir} "
            f"(snapshot lsn {info.snapshot_lsn}, {info.replayed_records} WAL "
            f"record(s) replayed, {info.rebuilt_partitions} partition "
            f"synopsis(es) rebuilt in {info.seconds:.2f}s)",
            flush=True,
        )
        # Every durable server can feed followers; it only *behaves* as a
        # fenced/semi-sync primary when the cluster wires it up that way.
        hub = ReplicationHub(
            database, ack_replicas=args.ack_replicas, ack_timeout=args.ack_timeout
        )
        hub.attach()
        node.replication = ReplicationState(
            role="primary" if (epoch_file or args.ack_replicas) else "standalone",
            epoch=args.epoch,
            epoch_file=epoch_file,
            hub=hub,
            ack_replicas=args.ack_replicas,
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


async def serve(args) -> None:
    """Run a server until SIGINT/SIGTERM; durable when --data-dir is set."""
    # Replicas are follower subprocesses under the cluster supervisor,
    # so even a 1-shard deployment with replicas is a cluster.
    clustered = args.shards > 1 or args.replicas > 0
    deployment = _open_cluster(args) if clustered else _open_node(args)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    _install_stop_handlers(loop, stop)
    if args.slow_query_ms is not None:
        tracing.TRACER.slow_threshold_seconds = max(args.slow_query_ms, 0.0) / 1000.0
    if args.slow_log_file:
        tracing.TRACER.configure_slow_log(
            args.slow_log_file, max_mb=args.slow_log_max_mb
        )
    listening = threading.Event()
    metrics_endpoint = None
    if args.metrics_port is not None:
        from ..obs.exposition import MetricsHTTPServer

        metrics_endpoint = MetricsHTTPServer(
            deployment.snapshot,
            host=args.host,
            port=args.metrics_port,
            ready_fn=lambda: listening.is_set() and deployment.ready(),
        ).start()
        print(f"metrics on {args.host}:{metrics_endpoint.port}", flush=True)
    try:
        async with deployment.front as front, QueryServer(
            front,
            host=args.host,
            port=args.port,
            replication=deployment.replication,
            max_inflight_queries=args.max_inflight_queries or None,
            max_inflight_ingests=args.max_inflight_ingests or None,
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
    args = _build_arg_parser().parse_args(argv)
    asyncio.run(serve(args))
