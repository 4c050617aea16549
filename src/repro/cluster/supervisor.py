"""Worker-process lifecycle: spawn, health-check, restart-with-recovery.

Each worker is a ``python -m repro.service`` subprocess — the exact same
entry point operators run by hand — bound to ``127.0.0.1`` on an
OS-assigned port and (when the cluster is durable) rooted at its own
shard data directory.  The supervisor:

* spawns workers and scrapes the ``listening on host:port`` line each one
  prints, so no port coordination is needed;
* health-checks by process liveness plus a wire ``ping``;
* restarts a dead worker on the same data directory, which makes the
  replacement recover its tables from its own snapshot + WAL before it
  starts listening — restart *is* recovery;
* optionally spawns ``replicas`` follower processes per shard
  (``--replica-of`` workers subscribing to their primary's WAL stream),
  and supports the promotion dance: ``adopt_primary`` rekeys a promoted
  replica into the primary slot, ``respawn_replica`` brings a dead or
  diverged process back as a fresh follower;
* stops the fleet gracefully — SIGTERM (which triggers each worker's
  final checkpoint), then escalates to SIGKILL for any worker that has
  not exited within the grace period.
"""

from __future__ import annotations

import os
import queue
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from ..obs import log as obs_log
from ..service.wire import PipelinedClient

_LISTENING = re.compile(r"listening on ([\d.]+):(\d+)")

_LOG = obs_log.get_logger("supervisor")


def _repro_src_dir() -> str:
    """The directory that must be on PYTHONPATH for ``-m repro.service``."""
    import repro

    return os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


@dataclass
class WorkerHandle:
    """One live (or dead) worker subprocess."""

    index: int
    process: subprocess.Popen
    port: int
    #: Replica slot within the shard, ``None`` for the primary.
    replica: int | None = None

    @property
    def alive(self) -> bool:
        return self.process.poll() is None


class ShardSupervisor:
    """Spawns and supervises the ``QueryServer`` worker fleet."""

    def __init__(
        self,
        data_dirs: list[Path | None],
        host: str = "127.0.0.1",
        partition_size: int | None = None,
        checkpoint_interval: float = 30.0,
        coalesce_delay: float = 0.0,
        workers_per_shard: int = 2,
        result_cache_size: int | None = None,
        fsync: bool = False,
        audit_sample: float = 0.0,
        audit_interval: float | None = None,
        workload_capacity: int | None = None,
        startup_timeout: float = 120.0,
        python: str = sys.executable,
        crash_point: str | None = None,
        replicas: int = 0,
        replica_data_dirs: list[list[Path]] | None = None,
        epoch_files: list[Path] | None = None,
        ack_replicas: int | None = None,
        stop_grace_timeout: float = 30.0,
        extra_env: dict[str, str] | None = None,
    ) -> None:
        self.data_dirs = [None if d is None else Path(d) for d in data_dirs]
        self.host = host
        self.partition_size = partition_size
        self.checkpoint_interval = checkpoint_interval
        self.coalesce_delay = coalesce_delay
        self.workers_per_shard = workers_per_shard
        self.result_cache_size = result_cache_size
        self.fsync = fsync
        #: Per-worker accuracy-auditing knobs: workers own the rows, so the
        #: auditor daemon runs inside each worker, not the front end.
        self.audit_sample = audit_sample
        self.audit_interval = audit_interval
        self.workload_capacity = workload_capacity
        self.startup_timeout = startup_timeout
        self.python = python
        #: When set, workers spawn with ``REPRO_CRASH_POINT`` armed at this
        #: fault-injection point (crash drills / tests); clear it before a
        #: restart or the replacement dies at the same point again.
        self.crash_point = crash_point
        #: Follower processes per shard; requires durable data dirs.
        self.replicas = replicas
        self.replica_data_dirs = (
            None
            if replica_data_dirs is None
            else [[Path(p) for p in dirs] for dirs in replica_data_dirs]
        )
        #: Per-shard epoch (fencing) files; workers read their epoch from
        #: these at spawn so a restart rejoins at the current epoch.
        self.epoch_files = (
            None if epoch_files is None else [Path(p) for p in epoch_files]
        )
        #: How many follower acks a primary's mutation ack waits for;
        #: defaults to 1 whenever replicas exist (semi-sync replication).
        self.ack_replicas = (
            (1 if replicas > 0 else 0) if ack_replicas is None else ack_replicas
        )
        #: SIGTERM→SIGKILL escalation grace for :meth:`stop`.
        self.stop_grace_timeout = stop_grace_timeout
        #: Extra environment variables for every spawned worker (drills).
        self.extra_env = dict(extra_env) if extra_env else None
        self.handles: dict[int | tuple[int, int], WorkerHandle] = {}

    @property
    def num_shards(self) -> int:
        return len(self.data_dirs)

    # ------------------------------------------------------------------ #
    # Spawning

    def _base_argv(self, data_dir: Path | None) -> list[str]:
        argv = [
            self.python,
            "-m",
            "repro.service",
            "--host",
            self.host,
            "--port",
            "0",
            "--workers",
            str(self.workers_per_shard),
            "--coalesce-delay",
            str(self.coalesce_delay),
        ]
        if self.partition_size is not None:
            argv += ["--partition-size", str(self.partition_size)]
        if self.result_cache_size is not None:
            argv += ["--result-cache-size", str(self.result_cache_size)]
        if self.audit_sample:
            argv += ["--audit-sample", str(self.audit_sample)]
            if self.audit_interval is not None:
                argv += ["--audit-interval", str(self.audit_interval)]
        if self.workload_capacity is not None:
            argv += ["--workload-capacity", str(self.workload_capacity)]
        if data_dir is not None:
            argv += [
                "--data-dir",
                str(data_dir),
                "--checkpoint-interval",
                str(self.checkpoint_interval),
            ]
            if self.fsync:
                argv.append("--fsync")
        return argv

    def _epoch_argv(self, index: int) -> list[str]:
        """Fencing/semi-sync flags, with the epoch read live from the file
        so a restarted worker rejoins at the *current* epoch."""
        if self.epoch_files is None:
            return []
        from ..replication.fence import read_epoch

        path = self.epoch_files[index]
        argv = ["--epoch-file", str(path), "--epoch", str(read_epoch(path).epoch)]
        if self.ack_replicas:
            argv += ["--ack-replicas", str(self.ack_replicas)]
        return argv

    def _argv(self, index: int) -> list[str]:
        return self._base_argv(self.data_dirs[index]) + self._epoch_argv(index)

    def _replica_argv(self, index: int, replica: int) -> list[str]:
        primary = self.handles.get(index)
        if primary is None:
            raise RuntimeError(
                f"cannot spawn replica {replica} of shard {index}: "
                "the primary has no handle to subscribe to"
            )
        assert self.replica_data_dirs is not None
        return (
            self._base_argv(self.replica_data_dirs[index][replica])
            + [
                "--replica-of",
                f"{self.host}:{primary.port}",
                "--follower-id",
                f"shard{index}-r{replica}",
            ]
            + self._epoch_argv(index)
        )

    def _spawn_process(
        self, argv: list[str], key: int | tuple[int, int]
    ) -> subprocess.Popen:
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        src = _repro_src_dir()
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src if not existing else f"{src}{os.pathsep}{existing}"
        env.pop("REPRO_CRASH_POINT", None)  # never inherit armed crash points
        if self.crash_point:
            env["REPRO_CRASH_POINT"] = self.crash_point
        if self.extra_env:
            env.update(self.extra_env)
        return subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )

    def _spawn(self, index: int, replica: int | None, argv: list[str]) -> WorkerHandle:
        """Start one worker; blocks until it reports its port."""
        key = index if replica is None else (index, replica)
        what = (
            f"shard worker {index}"
            if replica is None
            else f"replica {replica} of shard {index}"
        )
        process = self._spawn_process(argv, key)
        port, banner = self._await_port(process)
        if port is None:
            process.kill()
            process.wait(timeout=30)
            raise RuntimeError(
                f"{what} never reported a port within "
                f"{self.startup_timeout:.0f}s; output:\n" + "".join(banner)
            )
        handle = WorkerHandle(index=index, process=process, port=port, replica=replica)
        self.handles[key] = handle
        event = "worker_spawned" if replica is None else "replica_spawned"
        _LOG.info(event, shard=index, slot=replica, port=port, pid=process.pid)
        return handle

    def spawn(self, index: int) -> WorkerHandle:
        """Start the primary of shard ``index``.

        A worker with a populated data directory recovers before it prints
        ``listening on``, so a handle returned from here is already serving
        its recovered tables.
        """
        return self._spawn(index, None, self._argv(index))

    def spawn_replica(self, index: int, replica: int) -> WorkerHandle:
        """Start follower ``replica`` of shard ``index`` (primary must be up).

        The follower recovers its own data directory first, then subscribes
        to the primary from its recovered LSN — catch-up happens in the
        background after the handle is returned.
        """
        return self._spawn(index, replica, self._replica_argv(index, replica))

    def _await_port(self, process) -> tuple[int | None, list[str]]:
        """Scrape the ``listening on`` banner, honouring the startup timeout.

        The pipe is read on a daemon thread so a worker that hangs
        *silently* (wedged before printing anything) cannot block the
        caller past the deadline — ``readline`` on a live pipe has no
        timeout of its own.
        """
        lines: queue.Queue = queue.Queue()

        def _pump() -> None:
            for line in process.stdout:
                lines.put(line)
            lines.put(None)  # EOF (process died or closed stdout)

        threading.Thread(target=_pump, daemon=True).start()
        banner: list[str] = []
        deadline = time.monotonic() + self.startup_timeout
        while True:
            try:
                line = lines.get(timeout=max(0.05, deadline - time.monotonic()))
            except queue.Empty:
                return None, banner
            if line is None:
                return None, banner
            banner.append(line)
            match = _LISTENING.search(line)
            if match:
                return int(match.group(2)), banner
            if time.monotonic() > deadline:
                return None, banner

    def start(self) -> list[WorkerHandle]:
        """Spawn every primary, then every replica; tears the fleet down
        if any worker fails to boot.  Returns the primary handles."""
        try:
            primaries = [self.spawn(index) for index in range(self.num_shards)]
            for index in range(self.num_shards):
                for replica in range(self.replicas):
                    self.spawn_replica(index, replica)
            return primaries
        except BaseException:
            self.stop(graceful=False)
            raise

    # ------------------------------------------------------------------ #
    # Health / restart

    def is_alive(self, key: int | tuple[int, int]) -> bool:
        handle = self.handles.get(key)
        return handle is not None and handle.alive

    def ping(self, key: int | tuple[int, int], timeout: float = 5.0) -> bool:
        """Liveness through the wire, not just the process table."""
        handle = self.handles.get(key)
        if handle is None or not handle.alive:
            return False
        try:
            with PipelinedClient(self.host, handle.port, timeout=timeout) as client:
                return client.ping() == "pong"
        except (OSError, ConnectionError):
            return False

    def restart(self, index: int) -> WorkerHandle:
        """Replace worker ``index`` with a fresh process on the same data dir.

        Any remnant process is killed first; the replacement recovers from
        the shard's snapshot + WAL before accepting traffic.
        """
        handle = self.handles.pop(index, None)
        if handle is not None and handle.alive:
            handle.process.kill()
        if handle is not None:
            handle.process.wait(timeout=30)
        _LOG.warning(
            "worker_restarting",
            shard=index,
            old_pid=None if handle is None else handle.process.pid,
        )
        return self.spawn(index)

    def kill(self, key: int | tuple[int, int]) -> None:
        """``kill -9`` one worker (fault injection for tests and drills)."""
        handle = self.handles[key]
        handle.process.send_signal(signal.SIGKILL)
        handle.process.wait(timeout=30)
        _LOG.warning("worker_killed", key=str(key), pid=handle.process.pid)

    # ------------------------------------------------------------------ #
    # Promotion

    def adopt_primary(self, index: int, replica: int) -> WorkerHandle | None:
        """Rekey an (already promoted) replica process into the primary slot.

        Swaps the shard's primary data dir with the replica's — from now
        on ``spawn(index)`` restarts the promoted worker on the directory
        it actually owns, and ``spawn_replica(index, replica)`` reuses the
        old primary's directory for a fresh follower.  Returns the
        deposed primary's handle (usually a corpse), or ``None``.
        """
        promoted = self.handles.pop((index, replica))
        deposed = self.handles.pop(index, None)
        self.handles[index] = WorkerHandle(
            index=index, process=promoted.process, port=promoted.port
        )
        _LOG.warning(
            "primary_adopted",
            shard=index,
            promoted_slot=replica,
            promoted_pid=promoted.process.pid,
            deposed_pid=None if deposed is None else deposed.process.pid,
        )
        if self.replica_data_dirs is not None:
            dirs = self.replica_data_dirs[index]
            self.data_dirs[index], dirs[replica] = (
                dirs[replica],
                self.data_dirs[index],
            )
        return deposed

    def respawn_replica(
        self, index: int, replica: int, fresh: bool = False, epoch: int = 0
    ) -> WorkerHandle:
        """Bring a replica slot back, killing any remnant process first.

        ``fresh=True`` quarantines the directory's wal/snapshots into a
        ``divergent-{epoch}`` subdirectory before spawning — used for a
        deposed primary whose unreplicated tail must not resurface.  The
        fresh follower then bootstraps by reseeding from the new primary.
        """
        handle = self.handles.pop((index, replica), None)
        if handle is not None:
            if handle.alive:
                handle.process.kill()
            handle.process.wait(timeout=30)
        if fresh and self.replica_data_dirs is not None:
            data_dir = self.replica_data_dirs[index][replica]
            quarantine = data_dir / f"divergent-{epoch:06d}"
            for name in ("wal", "snapshots"):
                source = data_dir / name
                if source.exists():
                    quarantine.mkdir(parents=True, exist_ok=True)
                    os.replace(source, quarantine / name)
            _LOG.warning(
                "replica_state_quarantined",
                shard=index,
                slot=replica,
                quarantine=str(quarantine),
            )
        _LOG.info("replica_respawning", shard=index, slot=replica, fresh=fresh)
        return self.spawn_replica(index, replica)

    # ------------------------------------------------------------------ #
    # Shutdown

    def stop(
        self,
        graceful: bool = True,
        timeout: float = 30.0,
        grace_timeout: float | None = None,
    ) -> None:
        """Stop every worker.

        Graceful stop sends SIGTERM (triggering each worker's final
        checkpoint) and gives the whole fleet one shared grace period
        (``grace_timeout``, default :attr:`stop_grace_timeout`) to exit;
        stragglers are then escalated to SIGKILL, so one wedged worker —
        hung checkpoint, masked signal handler — can never hang shutdown
        for longer than the grace plus the reap ``timeout``.
        """
        grace = self.stop_grace_timeout if grace_timeout is None else grace_timeout
        for handle in self.handles.values():
            if not handle.alive:
                continue
            handle.process.send_signal(
                signal.SIGTERM if graceful else signal.SIGKILL
            )
        deadline = time.monotonic() + (grace if graceful else timeout)
        stragglers: list[WorkerHandle] = []
        for handle in self.handles.values():
            try:
                handle.process.wait(
                    timeout=max(0.05, deadline - time.monotonic())
                )
            except subprocess.TimeoutExpired:
                stragglers.append(handle)
        for handle in stragglers:
            _LOG.warning(
                "worker_stop_escalated",
                shard=handle.index,
                slot=handle.replica,
                pid=handle.process.pid,
            )
            handle.process.kill()
        for handle in stragglers:
            handle.process.wait(timeout=timeout)
        _LOG.info("fleet_stopped", graceful=graceful, stragglers=len(stragglers))
        self.handles.clear()
