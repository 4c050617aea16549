"""What one ``python -m repro.service`` process runs with, said once.

:class:`ServeConfig` has one field per command-line flag; the parser, the
argv a config spells and the command line the cluster supervisor gives a
worker are all derived from its fields.  A worker is the front end's
config plus a short override (:meth:`ServeConfig.for_worker`), so a flag
added here reaches the workers unless its ``scope`` says otherwise.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field, fields, replace

from ..gd.partitioned import DEFAULT_PARTITION_SIZE
from ..obs import tracing
from .database import DEFAULT_RESULT_CACHE_SIZE
from .server import (
    DEFAULT_MAX_BATCH_DELAY,
    DEFAULT_MAX_INFLIGHT_INGESTS,
    DEFAULT_MAX_INFLIGHT_QUERIES,
)

#: Whom a flag given to a cluster front end applies to: every worker
#: inherits it, unless it describes the front end itself (a worker runs at
#: its default) or is set by the supervisor per spawned process.
WORKER, FRONT, SPAWN = "every worker", "front end", "set by the supervisor"

_ARG_TYPES = {"int": int, "float": float}


def _flag(default, help: str | None = None, metavar: str | None = None, scope=WORKER):
    metadata = {"help": help, "metavar": metavar, "scope": scope}
    return field(default=default, metadata=metadata)


@dataclass(frozen=True)
class ServeConfig:
    """The flags of one server process, in ``--help`` order."""

    host: str = _flag("127.0.0.1", scope=FRONT)
    port: int = _flag(0, "0 picks a free port", scope=FRONT)
    data_dir: str | None = _flag(
        None,
        "durable data directory (WAL + snapshots); omit for a purely in-memory "
        "server.  With --shards N this is the cluster root: one shard-NNNNN data "
        "directory per worker plus the CLUSTER manifest",
        scope=SPAWN,
    )
    shards: int = _flag(
        1,
        "run a sharded cluster: N worker subprocesses (each a full durable engine) "
        "behind a scatter-gather front end; 1 (default) serves a single-process engine",
        scope=FRONT,
    )
    checkpoint_interval: float = _flag(
        30.0, "seconds between background snapshot checkpoints (with --data-dir)"
    )
    fsync: bool = _flag(
        False,
        "fsync every WAL append (with --data-dir); slower, survives power loss rather "
        "than just process death",
    )
    partition_size: int = _flag(DEFAULT_PARTITION_SIZE)
    coalesce_delay: float = _flag(
        DEFAULT_MAX_BATCH_DELAY,
        "max seconds the ingest coalescer keeps a batch open waiting for more writers",
    )
    workers: int = _flag(4)
    result_cache_size: int = _flag(
        DEFAULT_RESULT_CACHE_SIZE,
        "entries in the synopsis-version-keyed result cache (0 disables; with "
        "--shards this applies to every worker)",
    )
    max_inflight_queries: int = _flag(
        DEFAULT_MAX_INFLIGHT_QUERIES,
        "admission control: queries in flight beyond this are shed with an Overloaded "
        "error (0 disables the limit)",
        scope=FRONT,
    )
    max_inflight_ingests: int = _flag(
        DEFAULT_MAX_INFLIGHT_INGESTS,
        "admission control: ingests in flight beyond this are shed with an Overloaded "
        "error (0 disables the limit)",
        scope=FRONT,
    )
    replicas: int = _flag(
        0,
        "(with --shards) follower workers per shard for failover; they replicate "
        "the primary's WAL and one is promoted when the shard's primary dies",
        scope=FRONT,
    )
    replica_of: str | None = _flag(
        None,
        "run as a follower subscribed to the given primary (requires --data-dir; "
        "the worker refuses external writes)",
        metavar="HOST:PORT",
        scope=SPAWN,
    )
    follower_id: str | None = _flag(
        None,
        "stable subscriber identity for --replica-of (defaults to the data directory "
        "name)",
        scope=SPAWN,
    )
    epoch: int = _flag(
        0, "replication epoch this worker was spawned at (fencing)", scope=SPAWN
    )
    epoch_file: str | None = _flag(
        None,
        "path to the shard's epoch file; mutations re-check it before acking, so a "
        "fenced zombie primary cannot acknowledge writes",
        scope=SPAWN,
    )
    #: Unset is not 0: see :attr:`acks`.
    ack_replicas: int | None = _flag(
        None,
        "semi-synchronous replication: delay each mutation ack until this many "
        "followers durably acknowledged it (0 = async)",
    )
    ack_timeout: float = _flag(
        30.0, "seconds a mutation ack may wait on the replication barrier"
    )
    metrics_port: int | None = _flag(
        None,
        "serve a Prometheus-text /metrics endpoint on this port (0 picks a free port; "
        "a cluster front end serves the fan-out merged fleet registry)",
        scope=FRONT,
    )
    slow_query_ms: float | None = _flag(
        None,
        "log completed root query spans slower than this many milliseconds as "
        "structured JSON lines (default: REPRO_SLOW_QUERY_MS, else off)",
        scope=FRONT,
    )
    slow_log_file: str | None = _flag(
        None,
        "route slow-query JSON lines to this size-rotated file instead of stderr "
        "(default: REPRO_SLOW_LOG_FILE, else stderr)",
        scope=FRONT,
    )
    slow_log_max_mb: float = _flag(
        tracing.DEFAULT_SLOW_LOG_MAX_MB,
        f"rotate the slow-query log file at this size; at most {tracing.SLOW_LOG_KEEP} "
        "rotated generations are kept (default: REPRO_SLOW_LOG_MAX_MB, else "
        "%(default)s)",
        scope=FRONT,
    )
    audit_sample: float = _flag(
        0.0,
        "fraction of served queries the background accuracy auditor recomputes "
        "exactly against the lossless GD rows (0 disables; try 0.01)",
    )
    audit_interval: float = _flag(
        5.0, "seconds between background audit passes (with --audit-sample)"
    )
    workload_capacity: int = _flag(
        256,
        "distinct normalized query templates the workload analytics log retains (LRU; "
        "0 disables the log and the auditor's stratified replay)",
    )

    @property
    def acks(self) -> int:
        """Follower acks a mutation waits for: what ``--ack-replicas`` said,
        else 1 (semi-synchronous) in front of replicas and 0 on a node."""
        if self.ack_replicas is not None:
            return self.ack_replicas
        return 1 if self.replicas > 0 else 0

    @classmethod
    def parser(cls) -> argparse.ArgumentParser:
        parser = argparse.ArgumentParser(
            prog="python -m repro.service",
            description="Serve the approximate query engine over TCP.",
        )
        for spec in fields(cls):
            flag = "--" + spec.name.replace("_", "-")
            help, metavar = spec.metadata["help"], spec.metadata["metavar"]
            if spec.type == "bool":
                parser.add_argument(flag, action="store_true", help=help)
            else:
                kind = _ARG_TYPES.get(spec.type.split(" | ")[0])
                parser.add_argument(
                    flag, type=kind, default=spec.default, help=help, metavar=metavar
                )
        return parser

    @classmethod
    def from_argv(cls, argv: list[str] | None = None) -> "ServeConfig":
        return cls(**vars(cls.parser().parse_args(argv)))

    def argv(self) -> list[str]:
        """The flags that differ from their defaults, in field order."""
        argv: list[str] = []
        for spec in fields(self):
            value = getattr(self, spec.name)
            if value != spec.default:
                argv.append("--" + spec.name.replace("_", "-"))
                if spec.type != "bool":
                    argv.append(str(value))
        return argv

    def for_worker(self, **spawn) -> "ServeConfig":
        """This config as one worker of the cluster it fronts: front-only
        flags back at their defaults, the per-process ``spawn`` flags set."""
        reset = {
            spec.name: spec.default
            for spec in fields(self)
            if spec.metadata["scope"] != WORKER
        }
        acks = self.acks if self.replicas > 0 else self.ack_replicas
        return replace(self, **{**reset, "ack_replicas": acks, **spawn})
