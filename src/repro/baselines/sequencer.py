"""Per-datacenter sequencers — the baseline Eunomia replaces.

A sequencer mimics the traditional design (SwiftCloud, ChainReaction):
every client update synchronously requests a monotonically increasing
number *in the client's critical path*.  The sequencer is also the natural
serialization point, so it ships the ordered metadata stream to remote
receivers directly (the receiver code is shared with EunomiaKV — vector
entries are sequence numbers instead of hybrid timestamps, the dependency
algebra is identical).

:class:`ChainSequencerNode` is one node of it.  Alone (``build_chain(...,
1)``) it is the plain, non-fault-tolerant sequencer: one counter, one
service queue, head and tail at once.  Longer chains are the
fault-tolerant variant (§7.1): replicas form a chain (van Renesse &
Schneider); requests enter at the head, which assigns the number, traverse
every node, and the tail replies.  Unlike Eunomia's coordination-free
replicas, every chain node processes every request, and the head
additionally forwards — which is why the paper measures a ~33% throughput
penalty for a 3-node chain versus Eunomia's ~9%.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from ..calibration import Calibration
from ..core.messages import RemoteStableBatch
from ..sim.env import Environment
from ..sim.process import Process
from .messages import ChainAlive, ChainForward, SeqRequest, SeqReply

__all__ = ["CHAIN_ALIVE_INTERVAL", "CHAIN_SUSPECT_TIMEOUT",
           "ChainSequencerNode", "build_chain"]

#: Membership timing of a repairable chain: every node heartbeats its peers
#: each ``CHAIN_ALIVE_INTERVAL`` seconds and suspects a peer after
#: ``CHAIN_SUSPECT_TIMEOUT`` seconds of silence.
CHAIN_ALIVE_INTERVAL = 0.05
CHAIN_SUSPECT_TIMEOUT = 0.16


class ChainSequencerNode(Process):
    """One link of a chain-replicated sequencer.

    Roles by position: the *head* assigns numbers, every node logs the
    assignment (so any prefix survives a suffix crash), the *tail* ships to
    remote receivers and answers the requesting partition.

    Requests are deduplicated by update uid at the head: partitions retry
    requests that time out (a crashed sequencer drops everything in flight),
    and a retry racing a slow reply must not burn a second number for the
    same update — the duplicate re-traverses with the original assignment
    and is re-shipped (remote receivers dedup, so re-shipping is
    exactly-once downstream).

    With ``repair=True`` the roles become *dynamic*: nodes exchange
    membership heartbeats (:data:`CHAIN_ALIVE_INTERVAL`), and the surviving nodes re-form the chain around
    any crashed link — the lowest live position assigns, each node forwards
    to the next live position, the highest live position ships and replies.
    Counter safety rests on two invariants: every node folds each traversing
    assignment into its own counter (so any externally visible number has
    been observed by every survivor that could become head), and a
    rejoining node stays silent — holding, not serving, requests — for one
    suspect timeout (:data:`CHAIN_SUSPECT_TIMEOUT`) while peer heartbeats (which carry counters) catch it
    up, so a recovered ex-head can never hand out a duplicate number.
    """

    def __init__(self, env: Environment, name: str, site: int, position: int,
                 chain_length: int,
                 calibration: Optional[Calibration] = None,
                 repair: bool = False):
        cal = calibration or Calibration()
        if chain_length == 1:
            # head and tail at once: it neither forwards nor is forwarded to
            per_request = cal.cost("sequencer_request")
        elif position == 0:
            per_request = cal.cost("chain_head")
        elif position == chain_length - 1:
            per_request = cal.cost("chain_tail")
        else:
            per_request = cal.cost("chain_mid")
        super().__init__(env, name, site=site, costs={
            "SeqRequest": per_request,
            "ChainForward": per_request,
        })
        self.position = position
        self.chain_length = chain_length
        self.counter = 0
        self.log: list[tuple] = []          # replicated assignment log
        self.successor: Optional[Process] = None
        self.destinations: list[Process] = []
        self.assign_mark = f"seq_assigned:dc{site}"
        # --- chain repair (inactive, zero-cost, unless repair=True; a
        # lone node has no chain to re-form) ---
        self.repair = repair and chain_length > 1
        self.peers: list["ChainSequencerNode"] = []    # roster, by position
        self._peer_seen: dict[int, float] = {}
        self._assigned: dict[tuple, object] = {}       # head dedup
        self._logged: set = set()
        self._rejoin_until = 0.0
        self._held: list[tuple] = []                   # requests during rejoin
        self.duplicate_requests = 0

    @property
    def is_head(self) -> bool:
        if self.repair and self.peers:
            return self._alive_positions()[0] == self.position
        return self.position == 0

    @property
    def is_tail(self) -> bool:
        if self.repair and self.peers:
            return self._alive_positions()[-1] == self.position
        return self.position == self.chain_length - 1

    def add_destination(self, dest: Process) -> None:
        self.destinations.append(dest)

    # ------------------------------------------------------------------
    # Membership (repairable chains)
    # ------------------------------------------------------------------
    def set_chain_peers(self, nodes: list) -> None:
        """Give the node the full chain roster (repair mode wiring)."""
        self.peers = list(nodes)

    def start(self) -> None:
        if not self.repair:
            return
        now = self.now
        for node in self.peers:
            if node.position != self.position:
                self._peer_seen[node.position] = now
        self.periodic(CHAIN_ALIVE_INTERVAL, self._gossip_alive, phase=0.0)

    def recover(self) -> None:
        """Rejoin the chain after a crash: silent catch-up, then serve.

        For one suspect timeout the node sends no heartbeats (so peers keep
        treating it as down and the interim chain keeps serving) and holds
        any requests routed to it; meanwhile incoming heartbeats and
        traversing assignments raise its counter past everything assigned
        while it was away.  Only then does it drain the held requests and
        resume its (possibly head) role.
        """
        super().recover()
        if not self.repair:
            return
        now = self.now
        self._rejoin_until = now + CHAIN_SUSPECT_TIMEOUT
        self.start()
        self.after(CHAIN_SUSPECT_TIMEOUT, self._end_rejoin)

    def _gossip_alive(self) -> None:
        if self.now < self._rejoin_until:
            return
        beat = ChainAlive(self.position, self.counter)
        self.multicast([p for p in self.peers
                        if p.position != self.position], beat)

    def on_chain_alive(self, msg: ChainAlive, src: Process) -> None:
        self._peer_seen[msg.position] = self.now
        if msg.counter > self.counter:
            self.counter = msg.counter

    def _alive_positions(self) -> list[int]:
        now = self.now
        alive = [self.position]
        for pos, seen in self._peer_seen.items():
            if now - seen <= CHAIN_SUSPECT_TIMEOUT:
                alive.append(pos)
        return sorted(alive)

    def _node_at(self, position: int) -> "ChainSequencerNode":
        return self.peers[position]

    def _end_rejoin(self) -> None:
        held, self._held = self._held, []
        for update, requester in held:
            self._accept_request(update, requester)

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    def on_seq_request(self, msg: SeqRequest, src: Process) -> None:
        self._accept_request(msg.update, src)

    def on_chain_forward(self, msg: ChainForward, src: Process) -> None:
        if msg.update.ts == 0:
            # Not yet assigned: a redirect from a non-head node (or a held
            # request drained after rejoin) looking for the current head.
            self._accept_request(msg.update, msg.requester)
            return
        self._record_and_pass(msg.update, requester=msg.requester)

    def _accept_request(self, update, requester: Process) -> None:
        if not self.is_head:
            if self.repair:
                # Route to whoever heads the repaired chain right now — a
                # partition retrying against a standby still gets served.
                head = self._node_at(self._alive_positions()[0])
                self.send(head, ChainForward(update, requester))
                return
            raise RuntimeError(f"{self.name}: requests must enter at the head")
        if self.repair and self.now < self._rejoin_until:
            self._held.append((update, requester))
            return
        prior = self._assigned.get(update.uid)
        if prior is not None:
            # Retried request for an assignment already made: re-traverse
            # the (repaired) chain so it reaches the tail even if the
            # original traversal died with a crashed link.  Dedup below
            # keeps logs exactly-once; receivers dedup the re-ship.
            self.duplicate_requests += 1
            self._record_and_pass(prior, requester)
            return
        self.counter += 1
        m = self.site
        vts = update.vts[:m] + (self.counter,) + update.vts[m + 1:]
        stamped = replace(update, ts=self.counter, vts=vts)
        self._assigned[update.uid] = stamped
        self._record_and_pass(stamped, requester=requester)

    def _record_and_pass(self, update, requester: Process) -> None:
        if update.uid not in self._logged:
            self._logged.add(update.uid)
            self.log.append(update.uid)
        if update.ts > self.counter:
            # Fold traversing assignments into the counter: any number that
            # ever reached the tail (and was thus shipped or replied) has
            # passed through every live node, so whichever of them becomes
            # head next continues strictly above it.
            self.counter = update.ts
        if self.is_tail:
            self.metrics.mark(self.assign_mark, self.now)
            batch = RemoteStableBatch(self.site, (update,))
            self.multicast(self.destinations, batch)
            self.send(requester, SeqReply(update.uid, update.vts))
        else:
            successor = self.successor
            if self.repair and self.peers:
                alive = self._alive_positions()
                successor = self._node_at(alive[alive.index(self.position) + 1])
            self.send(successor, ChainForward(update, requester))


def build_chain(env: Environment, site: int, length: int,
                calibration: Optional[Calibration] = None,
                name_prefix: str = "chain",
                repair: bool = False) -> list[ChainSequencerNode]:
    """Create and link a sequencer chain; returns [head, ..., tail].

    ``repair=True`` builds a self-repairing chain: nodes heartbeat each
    other and dynamically re-form around crashed links (see
    :class:`ChainSequencerNode`).  Off by default — a repairable chain
    exchanges membership traffic even when healthy.
    """
    if length < 1:
        raise ValueError("chain needs at least one node")
    nodes = [
        ChainSequencerNode(env, f"{name_prefix}{i}", site, i, length,
                           calibration=calibration, repair=repair)
        for i in range(length)
    ]
    for node, successor in zip(nodes, nodes[1:]):
        node.successor = successor
    if repair:
        for node in nodes:
            node.set_chain_peers(nodes)
    return nodes
