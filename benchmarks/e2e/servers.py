"""Spawn, inspect and kill ``python -m repro.service`` deployments.

A deployment is one process group: the server (or cluster front end) is
started as a session leader and its shard workers inherit the group, so
memory, CPU time and ``kill -9`` cover every process of it.  They also
inherit its CPU: every process of a deployment is held on one CPU and the
load generator on another (see :func:`split_cpus`).
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

from stats import REPO_ROOT

SRC_DIR = REPO_ROOT / "src"
_LISTENING = re.compile(r"^listening on ([\d.]+):(\d+)", re.MULTILINE)
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
STARTUP_TIMEOUT_S = 120.0


def split_cpus() -> tuple[int, int]:
    """(generator's CPU, deployment's CPU): the first and the last CPU this
    process may run on.

    Left to the scheduler, client and server threads wake each other across
    the vCPUs of a shared host, and where they land, which changes from
    launch to launch and with the neighbours' load, is a quarter of a
    query's latency.  Held in place, fresh launches repeat within a few
    percent.  Shard workers share the front end's CPU: with the generator on
    the other one of two, spreading them measured the host, not the program
    (NOISE.md).
    """
    cpus = sorted(os.sched_getaffinity(0))
    return cpus[0], cpus[-1]


class Deployment:
    """One server process group on one data directory, held on ``cpu``."""

    def __init__(
        self,
        data_dir: Path,
        log_path: Path,
        shards: int,
        partition_size: int,
        checkpoint_interval: float,
        cpu: int,
    ) -> None:
        self.data_dir = data_dir
        self.log_path = log_path
        self.shards = shards
        self.partition_size = partition_size
        self.checkpoint_interval = checkpoint_interval
        self.cpu = cpu
        self.process: subprocess.Popen | None = None
        self.port: int | None = None

    def _argv(self) -> list[str]:
        argv = [
            sys.executable, "-m", "repro.service",
            "--data-dir", str(self.data_dir),
            "--partition-size", str(self.partition_size),
            "--checkpoint-interval", str(self.checkpoint_interval),
        ]
        if self.shards > 1:
            argv += ["--shards", str(self.shards)]
        return argv

    def spawn(self) -> int:
        """Start the deployment; returns its port once it is listening.

        stdout/stderr go straight to a log file: a pipe nobody drains would
        block the background checkpointer's log lines.
        """
        if self.process is not None:
            raise RuntimeError("deployment is already running")
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            str(SRC_DIR) if not existing else f"{SRC_DIR}{os.pathsep}{existing}"
        )
        # A child starts on the CPUs of the thread that forks it.
        mine = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {self.cpu})
        try:
            with open(self.log_path, "ab") as log:
                offset = log.tell()
                self.process = subprocess.Popen(
                    self._argv(),
                    stdout=log,
                    stderr=subprocess.STDOUT,
                    stdin=subprocess.DEVNULL,
                    env=env,
                    start_new_session=True,
                )
        finally:
            os.sched_setaffinity(0, mine)
        deadline = time.monotonic() + STARTUP_TIMEOUT_S
        while True:
            with open(self.log_path, "rb") as log:
                log.seek(offset)
                match = _LISTENING.search(log.read().decode("utf-8", "replace"))
            if match:
                self.port = int(match.group(2))
                return self.port
            if self.process.poll() is not None or time.monotonic() > deadline:
                self.kill()
                raise RuntimeError(
                    f"server did not start listening; see {self.log_path}"
                )
            time.sleep(0.005)

    def pids(self) -> list[int]:
        """Live processes of the deployment's process group."""
        return _live_group_members(self.process.pid) if self.process else []

    def cpu_seconds(self) -> float:
        """utime + stime summed over the deployment's processes."""
        ticks = 0
        for pid in self.pids():
            fields = _stat_fields(pid)
            if fields:
                ticks += int(fields[11]) + int(fields[12])
        return ticks / _CLOCK_TICKS

    def rss_high_water_mib(self) -> float:
        """Sum of ``VmHWM`` over the deployment's processes."""
        kib = 0
        for pid in self.pids():
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            match = re.search(r"^VmHWM:\s+(\d+) kB", status, re.MULTILINE)
            if match:
                kib += int(match.group(1))
        return kib / 1024.0

    def kill(self) -> None:
        """``kill -9`` every process of the group and wait until all ended."""
        process, self.process, self.port = self.process, None, None
        if process is None:
            return
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait(timeout=30)
        deadline = time.monotonic() + 30
        while _live_group_members(process.pid):
            if time.monotonic() > deadline:
                raise RuntimeError("server processes survived SIGKILL")
            time.sleep(0.005)


def _live_group_members(pgid: int) -> list[int]:
    """Pids in process group ``pgid``.  Orphaned workers are reaped by
    init, so a zombie counts as ended."""
    members = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            # After (comm): fields[0] is the state, fields[2] the group.
            fields = _stat_fields(int(entry))
            if fields and fields[0] != "Z" and int(fields[2]) == pgid:
                members.append(int(entry))
    return members


def _stat_fields(pid: int) -> list[str] | None:
    """Fields of ``/proc/<pid>/stat`` after the ``(comm)`` column."""
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return text[text.rindex(")") + 2 :].split()


def directory_bytes(path: Path) -> int:
    """``du -sb``: apparent size of every file, each hard-linked inode once."""
    seen: set[tuple[int, int]] = set()
    total = 0
    for root, _, files in os.walk(path):
        for name in files:
            info = os.lstat(os.path.join(root, name))
            key = (info.st_dev, info.st_ino)
            if key not in seen:
                seen.add(key)
                total += info.st_size
    return total
