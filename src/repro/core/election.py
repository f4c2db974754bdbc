"""Ω-style leader election among Eunomia replicas (Alg. 4 lines 7–10).

The paper (§3.3) only needs an *eventual* leader — Algorithm 4 guards
PROCESS_STABLE with "if leader(r_m)" (line 8) but correctness never depends
on leader uniqueness (duplicated propagation is deduplicated by receivers),
the leader merely saves network resources.  Any Ω failure detector works; we
implement the classic heartbeat construction:

* every replica broadcasts ``ReplicaAlive`` every ``alive_interval`` seconds;
* a peer is *suspected* after ``suspect_timeout`` seconds of silence;
* the leader is the lowest-id unsuspected replica.

At start-up all peers are optimistically trusted (as if a heartbeat had just
been seen), so replica 0 is everyone's initial leader and there is no
duplicate propagation during boot.

One host embeds this helper: the :class:`repro.core.replica.ReplicaRole`
of whichever process heads a replica — ``is_leader()`` gates serialization
and ``on_change`` timestamps failovers for the figures.  An election that
is never started (the unreplicated deployment) costs nothing and answers
``is_leader()`` with True: a host without peers is the lowest-id
unsuspected replica.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..sim.process import Process
from .messages import ReplicaAlive

__all__ = ["OmegaElection"]


class OmegaElection:
    """Heartbeat failure detector + min-id leader rule (composition helper).

    The host process must route ``ReplicaAlive`` messages to
    :meth:`on_alive` and may register ``on_change`` to observe leadership
    transitions (used by the metrics layer to timestamp failovers).
    """

    def __init__(self, host: Process, replica_id: int,
                 alive_interval: float, suspect_timeout: float,
                 on_change: Optional[Callable[[int], None]] = None):
        self.host = host
        self.replica_id = replica_id
        self.alive_interval = alive_interval
        self.suspect_timeout = suspect_timeout
        self.on_change = on_change
        self._peers: dict[int, Process] = {}      # replica_id -> process
        self._last_seen: dict[int, float] = {}
        self._last_leader: Optional[int] = None

    def set_peers(self, peers: dict[int, Process]) -> None:
        """Register the other replicas (id → process), excluding the host."""
        self._peers = dict(peers)
        # Optimistic boot: trust everyone as of now, so the min-id replica
        # is the unique initial leader everywhere.
        self._last_seen = {rid: self.host.now for rid in self._peers}

    def start(self) -> None:
        self.host.periodic(self.alive_interval, self._broadcast, phase=0.0)

    def _broadcast(self) -> None:
        beat = ReplicaAlive(self.replica_id)
        self.host.multicast(self._peers.values(), beat)
        self._check_change()

    def on_alive(self, msg: ReplicaAlive) -> None:
        self._last_seen[msg.replica_id] = self.host.now
        self._check_change()

    def leader_id(self) -> int:
        """Lowest-id replica not currently suspected (self is never)."""
        now = self.host.now
        alive = [self.replica_id]
        for rid, seen in self._last_seen.items():
            if now - seen < self.suspect_timeout:
                alive.append(rid)
        return min(alive)

    def is_leader(self) -> bool:
        return self.leader_id() == self.replica_id

    def _check_change(self) -> None:
        current = self.leader_id()
        if current != self._last_leader:
            self._last_leader = current
            if self.on_change is not None:
                self.on_change(current)
