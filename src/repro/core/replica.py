"""Fault-tolerant Eunomia (Algorithm 4), written once for every shape.

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
what it shipped so followers can prune (Alg. 4 lines 12–15).  Leader failure
loses nothing: every op the dead leader had was either announced stable
(followers pruned it *after* it reached remote sites) or is still held by
every surviving replica, and remote receivers deduplicate the overlap a new
leader re-ships.

The paper states this independently of how a replica executes Algorithm 3,
and so does this module.  A replica is a *head* process plus the shards
behind it:

* K=1 — the head is an :class:`~repro.core.service.EunomiaService` that
  stabilizes every partition itself; there are no shards;
* K>1 — the head is a :class:`~repro.core.shard.ShardCoordinator` merging
  the stable sub-runs of its K :class:`~repro.core.shard.EunomiaShard`
  workers.

:class:`ReplicaRole` is everything Algorithm 4 asks of a head, whichever of
the two it is: shipping a stable run to the remote sites, the Ω election,
and the peer state-transfer handshake of a rejoin.  :class:`ReplicaGroup`
is the replica as a unit of failure.  The unreplicated deployment is the
R=1 case: no peers, and an election that is never started.
"""

from __future__ import annotations

from typing import Optional

from ..sim.process import Process
from .election import OmegaElection
from .messages import (
    RemoteStableBatch,
    ReplicaAlive,
    StateTransferReply,
    StateTransferRequest,
)

__all__ = ["ReplicaRole", "ReplicaGroup"]


class ReplicaRole:
    """The Algorithm 4 replica role, mixed into the process heading a replica.

    The host is a :class:`~repro.sim.process.Process` with ``config``,
    ``metrics`` and ``site``.  What differs between hosts is how shipped
    progress is represented, so the host supplies two floor hooks —
    :meth:`_transfer_floors` and :meth:`_adopt_floors`, one entry per shard
    (a 1-tuple for K=1) — and keeps its own gossip line (the wire format is
    per shape, see :class:`~repro.core.messages.ShardStableVector`).

    Leadership uniqueness is *not* required for safety (the paper's §3.3
    argument): during an election flap two heads may both ship and both
    gossip, remote receivers deduplicate the overlap per origin, and prune
    gossip only ever names ops that some leader actually shipped.
    """

    def _init_role(self, replica_id: int, stable_mark: Optional[str]) -> None:
        config = self.config
        self.replica_id = replica_id
        self.peers: list = []
        self.destinations: list[Process] = []
        self.ops_stabilized = 0
        #: metric name for per-op stabilization marks (throughput figures)
        self.stable_mark = stable_mark or f"eunomia_stable:dc{self.site}"
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
    def add_destination(self, dest: Process) -> None:
        """Register a remote receiver (or measurement sink)."""
        self.destinations.append(dest)

    def set_peers(self, peers: list) -> None:
        """Register the heads of the other replicas of this site."""
        self.peers = [p for p in peers if p is not self]
        self.election.set_peers({p.replica_id: p for p in self.peers})

    def _join_election(self) -> None:
        """The host's ``start()`` calls this.  An unreplicated head never
        arms the broadcast: with no peers it leads without one."""
        if self.config.fault_tolerant and not self._rejoining:
            self.election.start()

    # ------------------------------------------------------------------
    # Leadership (Alg. 4 lines 7–10)
    # ------------------------------------------------------------------
    def is_leader(self) -> bool:
        """Whether this replica currently believes it leads the site."""
        return not self._rejoining and self.election.is_leader()

    def on_replica_alive(self, msg: ReplicaAlive, src: Process) -> None:
        self.election.on_alive(msg)

    def _leadership_changed(self, leader_id: int) -> None:
        self.leadership_log.append((self.now, leader_id))

    # ------------------------------------------------------------------
    # PROCESS(StableOps)
    # ------------------------------------------------------------------
    def _ship(self, ops: list) -> None:
        """Ship one ordered stable run to every remote site."""
        self.ops_stabilized += len(ops)
        self.metrics.mark_many(self.stable_mark, self.now, len(ops))
        tracer = self.metrics.tracer
        if tracer is not None:
            now, site = self.now, self.site
            for op in ops:
                tracer.stage_once(op, "propagate", now, site)
        self.multicast(self.destinations,
                       RemoteStableBatch(self.site, tuple(ops)))

    # ------------------------------------------------------------------
    # Crash recovery: peer state transfer (durability="wal")
    # ------------------------------------------------------------------
    def _transfer_floors(self) -> tuple:
        """Hook: what this replica has shipped, one floor per shard."""
        raise NotImplementedError

    def _adopt_floors(self, floors) -> None:
        """Hook: prune to a peer's shipped floors (never lowers a floor)."""
        raise NotImplementedError

    def begin_rejoin(self) -> None:
        """Enter rejoin mode *before* ``start()``: the head will neither
        claim leadership nor broadcast ReplicaAlive until the state
        transfer completes (or times out with no surviving peer)."""
        self._rejoining = True

    def request_state_transfer(self) -> None:
        """Ask surviving peers for their current shipped floors."""
        self.multicast(self.peers, StateTransferRequest(self.replica_id))
        self.after(self.config.state_transfer_timeout,
                   self._state_transfer_timeout)

    def on_state_transfer_request(self, msg: StateTransferRequest,
                                  src: Process) -> None:
        if self._rejoining:
            return  # both down: neither side has floors worth adopting
        self.send(src, StateTransferReply(self.replica_id,
                                          self._transfer_floors()))

    def on_state_transfer_reply(self, msg: StateTransferReply,
                                src: Process) -> None:
        if not self._rejoining:
            return
        # Everything at or below the survivors' shipped floors was delivered
        # remotely while this replica was down — prune instead of re-ship.
        self._adopt_floors(msg.stable_times)
        self._complete_rejoin()

    def _state_transfer_timeout(self) -> None:
        # No surviving peer answered: the local (checkpoint + WAL) floors
        # are the best available; remote dedup absorbs the re-ships.
        if self._rejoining:
            self._complete_rejoin()

    def _complete_rejoin(self) -> None:
        self._rejoining = False
        self.state_lost = False
        # Refresh the failure detector (stale pre-crash sightings would
        # otherwise linger) and resume ReplicaAlive broadcasts.
        self.election.set_peers({p.replica_id: p for p in self.peers})
        self.election.start()


class ReplicaGroup:
    """One replica of a site's stabilizer, as a unit: the head plus its
    shards (none when K=1).  Drills, figures and failure schedules crash
    *groups*, not member processes — a replica failure takes its whole
    pipeline down at once.
    """

    def __init__(self, head, shards=()):
        self.head = head
        self.shards = list(shards)

    @property
    def name(self) -> str:
        return self.head.name

    @property
    def crashed(self) -> bool:
        return self.head.crashed

    @property
    def ops_stabilized(self) -> int:
        return self.head.ops_stabilized

    @property
    def stable_mark(self) -> str:
        return self.head.stable_mark

    def is_leader(self) -> bool:
        return self.head.is_leader()

    def processes(self) -> list[Process]:
        """All member processes, shards first (start order)."""
        return [*self.shards, self.head]

    def stabilizers(self) -> list[Process]:
        """The members that run Algorithm 3, and so hold the replica's
        durable state: the shards, or the head itself when K=1.  (A
        coordinator holds none — it is rebuilt from its shards.)"""
        return self.shards or [self.head]

    @property
    def recovery(self):
        """The stabilizers' durable-state restorer (None unless
        ``durability="wal"``)."""
        return self.stabilizers()[0].recovery

    def crash(self, lose_state: bool = False) -> None:
        """Crash-stop the whole replica: every shard and the head.

        ``lose_state=True`` is an amnesia crash: the members' protocol
        state (unstable buffers, PartitionTime, merge queues, floors) is
        wiped too; only durable media (WALs, checkpoints) survive, so
        :meth:`recover` then needs ``durability="wal"``.
        """
        for proc in self.processes():
            proc.crash(lose_state=lose_state)

    def recover(self) -> None:
        """Restart every member after a crash — the one rejoin path.

        ``Process.recover`` alone would leave a zombie — the crash's epoch
        bump permanently kills the epoch-guarded stabilization ticks and
        election broadcasts armed at start-up — so each member is started
        again.  After a crash-stop, protocol state survives: the uplinks'
        Alg. 4 retransmission backfills everything missed while down, and
        anything the rejoining replica re-ships from its stale
        ``StableTime`` is deduplicated by remote receivers.

        A member that lost its state (``crash(lose_state=True)``) is first
        rebuilt from its WAL and checkpoints
        (:class:`~repro.durability.recovery.RecoveryManager`), and a head
        that lost its state runs a peer state-transfer round — adopting the
        survivors' shipped floors — before re-entering the Ω election, so
        it resumes from a correct floor, not a stale one.
        """
        head = self.head
        durable = self.stabilizers()
        for proc in self.processes():
            proc.recover()
            if proc.state_lost:
                if proc is head:
                    head.begin_rejoin()
                if proc in durable:
                    self._restore(proc)
            proc.start()
        # Also true when a crash interrupted an earlier transfer window: it
        # killed the pending timeout via the epoch bump, so the handshake is
        # re-driven here or the replica would never re-enter the election.
        if head._rejoining:
            head.request_state_transfer()

    def _restore(self, proc, extra_floor: int = 0) -> None:
        if proc.recovery is None:
            raise RuntimeError(
                f"{proc.name}: state was lost in the crash and no durable "
                "state is attached — rejoin requires "
                "EunomiaConfig(durability='wal')"
            )
        proc.recovery.restore(proc, extra_floor=extra_floor)

    # ------------------------------------------------------------------
    # Partial-group failures: one shard, not the whole pipeline
    # ------------------------------------------------------------------
    def crash_shard(self, shard_id: int, lose_state: bool = False) -> None:
        """Crash a single member shard; the head stays up.

        No failover follows — the Ω election watches heads — so the
        site's stable output stalls at the dead shard's last announced
        floor (``min(ShardStableTime)`` stops moving) until the shard
        rejoins and the uplinks' retransmission backfills it.
        """
        self.shards[shard_id].crash(lose_state=lose_state)

    def recover_shard(self, shard_id: int) -> None:
        """Rejoin one crashed shard (durable restore after an amnesia
        crash).  The live local coordinator's shipped floors raise the
        recovery floor past the shard's own checkpoint, so the restored
        buffer skips ops that are provably delivered."""
        shard = self.shards[shard_id]
        shard.recover()
        if shard.state_lost:
            self._restore(shard,
                          extra_floor=self.head.shipped_floors[shard_id])
        shard.start()
