"""Worker processes: command line, spawn, banner scrape, log relay, stop.

Each worker is a ``python -m repro.service`` subprocess — the exact same
entry point operators run by hand — bound to ``127.0.0.1`` on an
OS-assigned port and (when the cluster is durable) rooted at its own
shard data directory.  Its command line is not assembled here: it is
``worker.for_worker(...).argv()`` of the one
:class:`~repro.service.config.ServeConfig` the front end itself runs
with, so the supervisor names only what is per process (data directory,
whom to follow, the fencing epoch).  The supervisor:

* spawns a worker and scrapes the ``listening on host:port`` line it
  prints, so no port coordination is needed; whatever a worker prints
  after that line is relayed through this process's ``obs.log``
  (component ``worker``), not kept;
* stops the workers whose handles it is given gracefully — SIGTERM
  (which triggers each worker's final checkpoint), then escalates to
  SIGKILL for any worker that has not exited within the grace period.

It holds no topology.  Which process serves which shard from which
directory is the :class:`~repro.cluster.shard.ProcessShard` that owns
the :class:`WorkerHandle`: it pings, kills and restarts its own worker,
and promotion re-keys those objects inside a
:class:`~repro.cluster.shard.ReplicatedShard`.
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
    """One live (or dead) worker subprocess and the port it listens on."""

    process: subprocess.Popen
    port: int

    @property
    def alive(self) -> bool:
        return self.process.poll() is None


class ShardSupervisor:
    """Spawns ``QueryServer`` worker processes and stops them."""

    def __init__(
        self,
        worker: ServeConfig | None = None,
        host: str = "127.0.0.1",
        startup_timeout: float = 120.0,
        python: str = sys.executable,
        crash_point: str | None = None,
        replicas: int = 0,
        stop_grace_timeout: float = 30.0,
        extra_env: dict[str, str] | None = None,
    ) -> None:
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
        #: SIGTERM→SIGKILL escalation grace for :meth:`stop`.
        self.stop_grace_timeout = stop_grace_timeout
        #: Extra environment variables for every spawned worker (drills).
        self.extra_env = dict(extra_env) if extra_env else None

    # ------------------------------------------------------------------ #
    # Spawning

    def argv(
        self,
        index: int,
        data_dir: Path | None = None,
        slot: int | None = None,
        follow: WorkerHandle | None = None,
        epoch_file: Path | None = None,
    ) -> list[str]:
        """The command line of shard ``index``'s primary, or of its follower
        in ``slot`` subscribing to the primary's handle ``follow``: the
        shared worker config plus where this one lives, whom it follows and
        the shard's fencing epoch."""
        spawn: dict = {"host": self.host}
        if slot is not None:
            if follow is None:
                raise RuntimeError(
                    f"cannot spawn replica {slot} of shard {index}: "
                    "the primary has no handle to subscribe to"
                )
            spawn.update(
                replica_of=f"{self.host}:{follow.port}",
                follower_id=f"shard{index}-r{slot}",
            )
        if epoch_file is not None:
            from ..replication.fence import read_epoch

            # Read live, so a restarted worker rejoins at the *current* epoch.
            spawn.update(epoch_file=str(epoch_file), epoch=read_epoch(epoch_file).epoch)
        if data_dir is not None:
            spawn["data_dir"] = str(data_dir)
        config = self.worker.for_worker(**spawn)
        return [self.python, "-m", "repro.service"] + config.argv()

    def spawn(self, argv: list[str], index: int, slot: int | None = None) -> WorkerHandle:
        """Run ``argv`` (shard ``index``'s worker in ``slot``); blocks until
        the worker reports its port.

        A worker with a populated data directory recovers before it prints
        ``listening on``, so a handle returned from here is already serving
        its recovered tables.  A follower then subscribes to the primary
        from its recovered LSN — catch-up happens in the background.
        """
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
        port, banner = self._await_port(process, index, slot)
        if port is None:
            process.kill()
            process.wait(timeout=30)
            what = (
                f"shard worker {index}"
                if slot is None
                else f"replica {slot} of shard {index}"
            )
            raise RuntimeError(
                f"{what} never reported a port within "
                f"{self.startup_timeout:.0f}s; output:\n" + "".join(banner)
            )
        event = "worker_spawned" if slot is None else "replica_spawned"
        _LOG.info(event, shard=index, slot=slot, port=port, pid=process.pid)
        return WorkerHandle(process=process, port=port)

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

    # ------------------------------------------------------------------ #
    # Shutdown

    def stop(
        self,
        handles: list[WorkerHandle],
        graceful: bool = True,
        timeout: float = 30.0,
        grace_timeout: float | None = None,
    ) -> None:
        """Stop the workers behind ``handles``.

        Graceful stop sends SIGTERM (triggering each worker's final
        checkpoint) and gives them one shared grace period
        (``grace_timeout``, default :attr:`stop_grace_timeout`) to exit;
        stragglers are then escalated to SIGKILL, so one wedged worker —
        hung checkpoint, masked signal handler — can never hang shutdown
        for longer than the grace plus the reap ``timeout``.
        """
        grace = self.stop_grace_timeout if grace_timeout is None else grace_timeout
        for handle in handles:
            if not handle.alive:
                continue
            handle.process.send_signal(
                signal.SIGTERM if graceful else signal.SIGKILL
            )
        deadline = time.monotonic() + (grace if graceful else timeout)
        stragglers: list[WorkerHandle] = []
        for handle in handles:
            try:
                handle.process.wait(
                    timeout=max(0.05, deadline - time.monotonic())
                )
            except subprocess.TimeoutExpired:
                stragglers.append(handle)
        for handle in stragglers:
            _LOG.warning("worker_stop_escalated", pid=handle.process.pid)
            handle.process.kill()
        for handle in stragglers:
            handle.process.wait(timeout=timeout)
        _LOG.info("fleet_stopped", graceful=graceful, stragglers=len(stragglers))
