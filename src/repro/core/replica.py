"""Fault-tolerant Eunomia (Algorithm 4).

Each replica runs the full Algorithm 3 state machine over the batches it
receives; partitions retransmit unacknowledged suffixes to every replica
(see :mod:`repro.core.uplink`), which gives the *prefix property*: a replica
holding an update from partition p also holds every earlier update from p.
Replicas therefore never need to coordinate — their ``PartitionTime`` and
buffers converge independently of delivery order, which is why the paper
measures only ~9% overhead regardless of replica count (Figure 3), versus
~33% for a chain-replicated sequencer whose replicas must agree on every
sequence number.

Only the leader (Ω election, :mod:`repro.core.election`) runs
PROCESS_STABLE and ships stable runs to remote datacenters; it then gossips
``StableTime`` so followers can prune (Alg. 4 lines 12–15).  Leader failure
loses nothing: every op the dead leader had was either announced stable
(followers pruned it *after* it reached remote sites) or is still held by
every surviving replica, and remote receivers deduplicate the overlap a new
leader re-ships.

This is the K=1 replica; the sharded composition (Alg. 4 × K, the same
machinery distributed over each replica's K shards and a
:class:`~repro.core.shard.ReplicatedShardCoordinator`) lives in
:mod:`repro.core.shard`.
"""

from __future__ import annotations

from typing import Optional

from ..metrics.collector import MetricsHub
from ..sim.env import Environment
from ..sim.process import CostModel, Process
from .config import EunomiaConfig
from .election import OmegaElection
from .messages import (
    ReplicaAlive,
    StableAnnounce,
    StateTransferReply,
    StateTransferRequest,
)
from .service import EunomiaService

__all__ = ["EunomiaReplica"]


class EunomiaReplica(EunomiaService):
    """One member of a replicated Eunomia service."""

    def __init__(self, env: Environment, name: str, site: int,
                 n_partitions: int, config: EunomiaConfig,
                 replica_id: int,
                 ack_cost: float = 0.0,
                 propagate_op_cost: float = 0.0,
                 stab_round_cost: float = 0.0,
                 insert_op_cost: float = 0.0,
                 batch_cost: float = 0.0,
                 heartbeat_cost: float = 0.0,
                 metrics: Optional[MetricsHub] = None,
                 cost_model: Optional[CostModel] = None,
                 stable_mark: Optional[str] = None):
        super().__init__(env, name, site, n_partitions, config,
                         propagate_op_cost=propagate_op_cost,
                         stab_round_cost=stab_round_cost,
                         insert_op_cost=insert_op_cost,
                         batch_cost=batch_cost,
                         heartbeat_cost=heartbeat_cost,
                         ack_cost=ack_cost,
                         metrics=metrics, cost_model=cost_model,
                         stable_mark=stable_mark)
        self.replica_id = replica_id
        self.peers: list["EunomiaReplica"] = []
        self.election = OmegaElection(
            self, replica_id,
            alive_interval=config.replica_alive_interval,
            suspect_timeout=config.replica_suspect_timeout,
            on_change=self._leadership_changed,
        )
        self.leadership_log: list[tuple[float, int]] = []
        #: True between an amnesia-crash restore and state-transfer
        #: completion: the replica neither leads nor broadcasts until then
        self._rejoining = False

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def set_peers(self, peers: list["EunomiaReplica"]) -> None:
        """Register the other replicas of this Eunomia group."""
        self.peers = [p for p in peers if p is not self]
        self.election.set_peers({p.replica_id: p for p in self.peers})

    def start(self) -> None:
        super().start()
        if not self._rejoining:
            self.election.start()

    # ------------------------------------------------------------------
    # Crash recovery (durability="wal"; see repro.durability)
    # ------------------------------------------------------------------
    def rejoin(self) -> None:
        """Restart after a crash, restoring lost state from the WAL.

        Crash-stop (state intact): equivalent to ``recover() + start()`` —
        the uplinks' Alg. 4 retransmission backfills what was missed.
        Amnesia crash (``crash(lose_state=True)``): the
        :class:`~repro.durability.recovery.RecoveryManager` replays
        checkpoint + log suffix, then a peer state-transfer round adopts
        the survivors' shipped StableTime before the replica re-enters the
        Ω election — so it resumes from a correct floor, not a stale one.
        """
        self.recover()
        if self.state_lost:
            if self.recovery is None:
                raise RuntimeError(
                    f"{self.name}: state was lost in the crash and no "
                    "durable state is attached — rejoin requires "
                    "EunomiaConfig(durability='wal')"
                )
            self.recovery.restore(self)
            self._rejoining = True
        if not self._rejoining:
            self.start()
            return
        # Drive (or re-drive) the state-transfer handshake: a crash that
        # interrupted an earlier transfer window left _rejoining set and
        # killed the pending timeout via the epoch bump, so the handshake
        # must be re-armed here or the replica would never re-enter the
        # election.
        self.start()
        request = StateTransferRequest(self.replica_id)
        for peer in self.peers:
            self.send(peer, request)
        self.after(self.config.state_transfer_timeout,
                   self._state_transfer_timeout)

    def on_state_transfer_request(self, msg: StateTransferRequest,
                                  src: Process) -> None:
        if self._rejoining:
            return  # both down: neither side has floors worth adopting
        self.send(src, StateTransferReply(self.replica_id,
                                          (self.shipped_stable,)))

    def on_state_transfer_reply(self, msg: StateTransferReply,
                                src: Process) -> None:
        if not self._rejoining:
            return
        floor = msg.stable_times[0]
        if floor > self.stable_time:
            self.stable_time = floor
        if floor > self.shipped_stable:
            self.shipped_stable = floor
        # Everything at or below the survivors' shipped floor was delivered
        # remotely while this replica was down — prune instead of re-ship.
        self.buffer.drop_stable(self.stable_time)
        self._complete_rejoin()

    def _state_transfer_timeout(self) -> None:
        # No surviving peer answered: local (checkpoint + WAL) state is the
        # best available — rejoin on it; remote dedup absorbs the re-ships.
        if self._rejoining:
            self._complete_rejoin()

    def _complete_rejoin(self) -> None:
        self._rejoining = False
        # Refresh the failure detector (stale pre-crash sightings would
        # otherwise linger) and resume ReplicaAlive broadcasts.
        self.election.set_peers({p.replica_id: p for p in self.peers})
        self.election.start()

    # ------------------------------------------------------------------
    # Algorithm 4 behaviour (acks + follower pruning are inherited from
    # StabilizerBase._post_batch / on_stable_announce, shared with the
    # sharded replica shape)
    # ------------------------------------------------------------------
    def _should_stabilize(self) -> bool:
        return not self._rejoining and self.election.is_leader()

    def _post_stabilize(self, stable_ts: int, ops: list) -> None:
        # Alg. 4 line 12: tell followers what is stable so they prune.
        if not ops:
            return
        announce = StableAnnounce(stable_ts)
        for peer in self.peers:
            self.send(peer, announce)

    def on_replica_alive(self, msg: ReplicaAlive, src: Process) -> None:
        self.election.on_alive(msg)

    def _leadership_changed(self, leader_id: int) -> None:
        self.leadership_log.append((self.now, leader_id))

    def is_leader(self) -> bool:
        """Whether this replica currently believes it leads the group."""
        return not self._rejoining and self.election.is_leader()
