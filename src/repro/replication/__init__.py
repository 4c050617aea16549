"""WAL-shipping replication: failover replicas + kill-safe promotion.

The subsystem has three halves:

* :mod:`repro.replication.primary` — the :class:`ReplicationHub` inside a
  durable server: per-follower WAL shipping over the binary protocol,
  the retention floor that keeps checkpoints from truncating a live
  subscriber out of the log, and the semi-synchronous ack barrier.
* :mod:`repro.replication.follower` — :class:`ReplicaApplier` (replays
  shipped records through the normal durable commit path, bit-identical
  to a primary stopped at the same LSN) and :class:`FollowerLoop` (the
  subscribing network thread with reconnect/retarget).
* :mod:`repro.replication.fence` — epoch files + :class:`FencedError`,
  guaranteeing at most one acking primary per shard across promotions.

:class:`ReplicationState` is the per-server wiring record the TCP server
consults: which role this process plays, its epoch, and whichever half
of the machinery it runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .fence import FENCED_ERROR_TYPE, EpochRecord, FencedError, check_fence, read_epoch, write_epoch
from .follower import FollowerLoop, ReplicaApplier, ReplicationProtocolError
from .primary import ReplicationHub

__all__ = [
    "FENCED_ERROR_TYPE",
    "EpochRecord",
    "FencedError",
    "FollowerLoop",
    "ReplicaApplier",
    "ReplicationHub",
    "ReplicationProtocolError",
    "ReplicationState",
    "check_fence",
    "read_epoch",
    "write_epoch",
]


@dataclass
class ReplicationState:
    """How one server process participates in replication."""

    #: ``standalone`` (no replication), ``primary`` or ``replica``.
    role: str = "standalone"
    epoch: int = 0
    epoch_file: Path | None = None
    hub: ReplicationHub | None = None
    follower: FollowerLoop | None = None
    #: Mutation acks wait for this many follower acks (primary role).
    ack_replicas: int = 0
