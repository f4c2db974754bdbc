"""S-Seq and A-Seq: sequencer-based causally consistent stores (§2, §7).

**S-Seq** mirrors SwiftCloud/ChainReaction: on every update the partition
synchronously obtains the next sequence number from the per-DC sequencer
*before* replying to the client.  Causality across datacenters is tracked
with a vector of sequence numbers (one entry per DC); the sequencer ships
the ordered metadata stream to remote receivers (shared with EunomiaKV),
and payloads travel partition→sibling directly, exactly like EunomiaKV —
so the only protocol difference under test is *where the ordering happens*.

**A-Seq** is the paper's deliberately "bogus" variant: the partition replies
to the client immediately and contacts the sequencer in parallel.  It does
the same total work as S-Seq but takes the sequencer off the client's
critical path — it exists purely to show how much of S-Seq's penalty is
synchronous waiting (Figure 1).  A-Seq does not preserve causality and, like
in the paper, participates only in throughput measurements.
"""

from __future__ import annotations


from dataclasses import replace
from typing import Optional

from ..clocks.physical import PhysicalClock
from ..core.config import RETRY_BACKOFF_CAP, SEQ_RETRY_TIMEOUT
from ..core.messages import ClientUpdate, ClientUpdateReply
from ..core.partition import ReceiverFedPartition
from ..core.protocols import (
    ProtocolSpec,
    SiteContext,
    SitePlan,
    register_protocol,
)
from ..geo.receiver import Receiver
from ..kvstore.types import Update
from ..sim.process import Process
from .messages import SeqReply, SeqRequest
from .sequencer import build_chain

__all__ = ["SeqPartition", "SequencerProtocol"]


class SeqPartition(ReceiverFedPartition):
    """A partition whose updates are ordered by the local sequencer.

    Reads, remote-data pairing and remote execution are the receiver-fed
    partition's, exactly as for EunomiaKV; only the update path differs.
    """

    def __init__(self, env, name: str, dc_id: int, index: int, n_dcs: int,
                 clock: PhysicalClock, synchronous: bool = True):
        cal = env.calibration
        super().__init__(env, name, dc_id, index, n_dcs, clock, {
            "ClientRead": cal.cost("partition_read"),
            "ClientUpdate": (cal.cost("partition_update")
                             + cal.cost("sseq_update_extra")),
            "SeqReply": cal.cost("sseq_reply"),
            # the write rides the payload's message; a release publishes
            # (StoragePartition._install)
            "RemoteData": cal.cost("partition_apply_remote"),
            "ApplyRemote": cal.cost("partition_remote_data"),
        })
        self.synchronous = synchronous
        self.sequencer: Optional[Process] = None
        self.sequencer_group: list[Process] = []
        self._awaiting: dict[tuple, tuple[Update, Process, int]] = {}
        # uid -> (sent_at, attempt, group_idx) for bounded-timeout retries.
        self._retry: dict[tuple, tuple[float, int, int]] = {}
        self._sweep_task = None
        self.seq_retries = 0

    def set_sequencer(self, sequencer: Process) -> None:
        self.sequencer = sequencer
        if not self.sequencer_group:
            self.sequencer_group = [sequencer]

    def set_sequencer_group(self, nodes: list) -> None:
        """All nodes a retried request may be sent to (chain standbys)."""
        self.sequencer_group = list(nodes)

    def start(self) -> None:
        # The sweeper is the partition-side half of sequencer fault
        # tolerance: a request outstanding past the timeout is re-sent
        # (with capped exponential backoff) round-robin through the sequencer group, so a crashed
        # sequencer — or a crashed chain link that swallowed the traversal —
        # stalls the client only until the timeout, not forever.  Healthy
        # runs never fire it: replies return well under the timeout, and the
        # sweep itself is a zero-cost local event (no messages, no RNG).
        if self._sweep_task is not None:
            self._sweep_task.cancel()
        self._sweep_task = self.periodic(SEQ_RETRY_TIMEOUT,
                                         self._sweep_retries)

    def recover(self) -> None:
        super().recover()
        self.start()                # re-arm the retry sweeper

    def _sweep_retries(self) -> None:
        if not self._retry:
            return
        now = self.now
        due = []
        for uid, (sent_at, attempt, idx) in self._retry.items():
            if now - sent_at >= min(SEQ_RETRY_TIMEOUT * (1 << attempt),
                                    RETRY_BACKOFF_CAP):
                due.append((uid, attempt, idx))
        for uid, attempt, idx in due:
            held = self._awaiting.get(uid)
            if held is None:
                self._retry.pop(uid, None)
                continue
            update = held[0]
            idx = (idx + 1) % len(self.sequencer_group)
            self._retry[uid] = (now, attempt + 1, idx)
            self.seq_retries += 1
            self.send(self.sequencer_group[idx],
                      SeqRequest(replace(update, value=None)))

    # ------------------------------------------------------------------
    # Update path
    # ------------------------------------------------------------------
    def on_client_update(self, msg: ClientUpdate, src: Process) -> None:
        # ts 0: the final stamp is the sequencer's
        update = self._new_update(msg, 0, msg.client_vts)
        self._awaiting[update.uid] = (update, src, msg.request_id)
        self._retry[update.uid] = (self.now, 0, 0)
        self.send(self.sequencer, SeqRequest(replace(update, value=None)))
        # Ship the payload immediately (as EunomiaKV does): remote partitions
        # pair it with the sequencer-ordered metadata by uid, so the final
        # stamp need not be known yet.  This is what gives sequencer-based
        # designs their near-optimal visibility.
        self._replicate(update)
        if not self.synchronous:
            # A-Seq: answer immediately; the store is written (with a
            # provisional version) when the assignment arrives, so the
            # client's critical path never touches the sequencer.
            self.send(src, ClientUpdateReply(msg.client_vts, msg.request_id))

    def on_seq_reply(self, msg: SeqReply, src: Process) -> None:
        self._retry.pop(msg.uid, None)
        held = self._awaiting.pop(msg.uid, None)
        if held is None:
            return
        update, client, request_id = held
        stamped = replace(update, ts=msg.vts[self.dc_id], vts=msg.vts)
        self._commit_local(stamped)
        tracer = self.metrics.tracer
        if tracer is not None:
            tracer.stage_once(stamped, "seq_order", self.now, self.dc_id)
        if self.synchronous:
            self.send(client, ClientUpdateReply(msg.vts, request_id))


class SequencerProtocol(ProtocolSpec):
    """Deployment plugin for the sequencer stores.

    Contributes a per-DC sequencer (plain, or a van-Renesse chain of
    ``chain_length`` nodes — the §7.1 fault-tolerant competitor), the
    shared Algorithm 5 receiver for the ordered metadata stream, and
    :class:`SeqPartition` partitions.  The sequencer's tail is the
    propagator: the spine points it at every remote receiver.
    """

    def __init__(self, synchronous: bool):
        self.synchronous = synchronous
        self.name = "sseq" if synchronous else "aseq"
        #: A-Seq replies before its update is ordered (module docstring)
        self.causal = synchronous

    def client_entries(self, n_dcs: int) -> int:
        return n_dcs

    def option_names(self) -> tuple:
        return ("chain_length",)

    def prepare(self, spec, options: dict) -> dict:
        if options.setdefault("chain_length", 1) < 1:
            raise ValueError("chain needs at least one node")
        return options

    def build_site(self, site: SiteContext) -> SitePlan:
        chain_length = site.options["chain_length"]
        # Geo deployments get the self-repairing chain: heartbeats, dynamic
        # head/tail, standby failover.  (Direct construction via
        # build_chain defaults to the static §7.1 chain.)
        nodes = build_chain(site.env, site.dc_id, chain_length,
                            name_prefix=f"dc{site.dc_id}/chain", repair=True)
        receiver = Receiver(site.env, f"dc{site.dc_id}/receiver", site.dc_id,
                            site.n_dcs, site.placement)
        partitions = [
            SeqPartition(site.env, site.pname(i), site.dc_id, i, site.n_dcs,
                         site.clock(), synchronous=self.synchronous)
            for i in range(site.n_partitions)
        ]
        for partition in partitions:
            partition.set_sequencer(nodes[0])      # requests enter at the head
            partition.set_sequencer_group(nodes)   # retries may hit standbys
        receiver.set_partitions(site.ring, partitions)
        return SitePlan(partitions=partitions, extras=nodes,
                        receiver=receiver, propagators=[nodes[-1]])


register_protocol(SequencerProtocol(synchronous=True))
register_protocol(SequencerProtocol(synchronous=False))
