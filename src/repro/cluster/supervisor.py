"""Worker-process lifecycle: spawn, health-check, restart-with-recovery.

Each worker is a ``python -m repro.service`` subprocess — the exact same
entry point operators run by hand — bound to ``127.0.0.1`` on an
OS-assigned port and (when the cluster is durable) rooted at its own
shard data directory.  Its command line is not assembled here: it is
``worker.for_worker(...).argv()`` of the one
:class:`~repro.service.config.ServeConfig` the front end itself runs
with, so the supervisor names only what is per process (data directory,
whom to follow, the fencing epoch).  The supervisor:

* spawns workers and scrapes the ``listening on host:port`` line each one
  prints, so no port coordination is needed; whatever a worker prints
  after that line is relayed through this process's ``obs.log``
  (component ``worker``), not kept;
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

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path

from ..obs import log as obs_log
from ..service.config import ServeConfig
from ..service.wire import PipelinedClient

_LISTENING = re.compile(r"listening on ([\d.]+):(\d+)")

_LOG = obs_log.get_logger("supervisor")
_WORKER_LOG = obs_log.get_logger("worker")


def _relay(line: str, shard: int, slot: int | None) -> None:
    """Log one line of a worker's output under its shard and slot, at the
    level the worker logged it."""
    fields = {"shard": shard, "slot": slot, "line": line.rstrip()}
    try:
        _WORKER_LOG.log(json.loads(line)["level"], "worker_output", **fields)
    except (ValueError, TypeError, KeyError):
        # Not one of obs.log's lines: a traceback, usually.
        _WORKER_LOG.warning("worker_output", **fields)


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
        worker: ServeConfig | None = None,
        host: str = "127.0.0.1",
        startup_timeout: float = 120.0,
        python: str = sys.executable,
        crash_point: str | None = None,
        replicas: int = 0,
        replica_data_dirs: list[list[Path]] | None = None,
        epoch_files: list[Path] | None = None,
        stop_grace_timeout: float = 30.0,
        extra_env: dict[str, str] | None = None,
    ) -> None:
        self.data_dirs = [None if d is None else Path(d) for d in data_dirs]
        #: What every worker runs with: the front end's own config (or the
        #: defaults), of which each spawn takes ``for_worker(...)``.
        #: ``replicas`` rides along because it decides the ack default.
        self.worker = replace(worker or ServeConfig(), replicas=replicas)
        self.host = host
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

    def _argv(self, index: int, replica: int | None = None) -> list[str]:
        """The command line of shard ``index``'s primary, or of its follower
        in slot ``replica``: the shared worker config plus where this one
        lives, whom it follows and the shard's fencing epoch."""
        data_dir = self.data_dirs[index]
        spawn: dict = {"host": self.host}
        if replica is not None:
            primary = self.handles.get(index)
            if primary is None:
                raise RuntimeError(
                    f"cannot spawn replica {replica} of shard {index}: "
                    "the primary has no handle to subscribe to"
                )
            data_dir = self.replica_data_dirs[index][replica]
            spawn.update(
                replica_of=f"{self.host}:{primary.port}",
                follower_id=f"shard{index}-r{replica}",
            )
        if self.epoch_files is not None:
            from ..replication.fence import read_epoch

            # Read live, so a restarted worker rejoins at the *current* epoch.
            path = self.epoch_files[index]
            spawn.update(epoch_file=str(path), epoch=read_epoch(path).epoch)
        if data_dir is not None:
            spawn["data_dir"] = str(data_dir)
        config = self.worker.for_worker(**spawn)
        return [self.python, "-m", "repro.service"] + config.argv()

    def spawn(self, index: int, replica: int | None = None) -> WorkerHandle:
        """Start shard ``index``'s primary, or its follower in slot
        ``replica`` (the primary must be up); blocks until it reports its port.

        A worker with a populated data directory recovers before it prints
        ``listening on``, so a handle returned from here is already serving
        its recovered tables.  A follower then subscribes to the primary
        from its recovered LSN — catch-up happens in the background.
        """
        argv = self._argv(index, replica)
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        src = _repro_src_dir()
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src if not existing else f"{src}{os.pathsep}{existing}"
        env.pop("REPRO_CRASH_POINT", None)  # never inherit armed crash points
        if self.crash_point:
            env["REPRO_CRASH_POINT"] = self.crash_point
        if self.extra_env:
            env.update(self.extra_env)
        process = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env
        )
        port, banner = self._await_port(process, index, replica)
        if port is None:
            process.kill()
            process.wait(timeout=30)
            what = (
                f"shard worker {index}"
                if replica is None
                else f"replica {replica} of shard {index}"
            )
            raise RuntimeError(
                f"{what} never reported a port within "
                f"{self.startup_timeout:.0f}s; output:\n" + "".join(banner)
            )
        handle = WorkerHandle(index=index, process=process, port=port, replica=replica)
        self.handles[index if replica is None else (index, replica)] = handle
        event = "worker_spawned" if replica is None else "replica_spawned"
        _LOG.info(event, shard=index, slot=replica, port=port, pid=process.pid)
        return handle

    def _await_port(
        self, process, index: int, replica: int | None
    ) -> tuple[int | None, list[str]]:
        """Scrape the ``listening on`` banner, honouring the startup timeout.

        The pipe is read on a daemon thread so a worker that hangs
        *silently* (wedged before printing anything) cannot block the
        caller past the deadline — ``readline`` on a live pipe has no
        timeout of its own.  The thread outlives the banner: what the
        worker prints afterwards (its ``obs.log`` lines, a dying worker's
        traceback) is relayed through this process's logger as it comes —
        JSON lines, so never a bare ``listening on`` — and nothing is kept.
        """
        banner: list[str] = []
        port: int | None = None
        settled = threading.Event()  # banner seen, or the pipe closed

        def _pump() -> None:
            nonlocal port
            for line in process.stdout:
                if settled.is_set():
                    _relay(line, index, replica)
                    continue
                banner.append(line)
                match = _LISTENING.search(line)
                if match:
                    port = int(match.group(2))
                    settled.set()
            settled.set()

        threading.Thread(target=_pump, daemon=True).start()
        settled.wait(timeout=self.startup_timeout)
        return port, banner

    def start(self) -> list[WorkerHandle]:
        """Spawn every primary, then every replica; tears the fleet down
        if any worker fails to boot.  Returns the primary handles."""
        try:
            primaries = [self.spawn(index) for index in range(self.num_shards)]
            for index in range(self.num_shards):
                for replica in range(self.replicas):
                    self.spawn(index, replica)
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
        it actually owns, and ``spawn(index, replica)`` reuses the
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
        return self.spawn(index, replica)

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
