"""Seeded faults for testing the tests.

A mutant is the smallest edit to one method of ``src/`` that breaks one
property a test claims to hold.  It is applied as a class-attribute patch —
the method's source with one fragment replaced, compiled in the method's
own module — and restored by identity on exit, the idiom ``perf/trace.py``
uses for its wrappers; nothing in ``src/`` knows about it.  A fragment that
does not occur exactly once raises ``LookupError``, so a mutant cannot
silently stop applying when the code it mutates is rewritten.

    with MUTANTS["heartbeat_always_from_tick"].applied():
        ...   # the test that should now fail

Each mutant's comment names the property it breaks; the test that must
fail under it applies it.  A :class:`repro.sim.loop.Fifo` (a process
lane) binds its trampoline when it is built, so a mutant of
``Fifo._fire`` reaches only the lanes built while it is applied.
"""

from __future__ import annotations

import inspect
import textwrap
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from repro.baselines.gst import GentleRainPartition, GstPartition
from repro.clocks.physical import PhysicalClock
from repro.core.replica import ReplicaGroup
from repro.core.service import StabilizerBase
from repro.core.shard import ShardCoordinator
from repro.core.stream import ReliableStream
from repro.core.uplink import EunomiaUplink
from repro.datastruct.runbuffer import RunBuffer
from repro.durability.wal import WriteAheadLog
from repro.geo.datacenter import EunomiaProtocol
from repro.geo.receiver import Receiver
from repro.sim.loop import Fifo, PeriodicHandle
from repro.sim.process import Process

__all__ = ["MUTANTS", "Mutant"]


@dataclass(frozen=True)
class Mutant:
    """Replace ``fragment`` by ``replacement`` in ``owner.method``."""

    name: str
    owner: type
    method: str
    fragment: str
    replacement: str

    def build(self):
        """The mutated function, compiled where the original lives."""
        original = vars(self.owner)[self.method]
        # a staticmethod's source carries its decorator, so the copy is
        # one too; its code and globals are the wrapped function's
        fn = getattr(original, "__func__", original)
        source = textwrap.dedent(inspect.getsource(fn))
        if source.count(self.fragment) != 1:
            raise LookupError(
                f"mutant {self.name}: {self.fragment!r} occurs "
                f"{source.count(self.fragment)} times in "
                f"{self.owner.__name__}.{self.method}")
        source = source.replace(self.fragment, self.replacement)
        cell = "__class__" in fn.__code__.co_freevars
        if cell:
            # a zero-argument ``super()`` reads the ``__class__`` cell that
            # a class body gives its methods: give the copy one too
            source = (f"def _enclose(__class__):\n"
                      f"{textwrap.indent(source, '    ')}"
                      f"    return {fn.__name__}\n")
        namespace: dict = {}
        exec(compile(source, inspect.getsourcefile(fn), "exec"),
             fn.__globals__, namespace)
        if cell:
            return namespace["_enclose"](self.owner)
        return namespace[fn.__name__]

    @contextmanager
    def applied(self) -> Iterator[None]:
        original = vars(self.owner)[self.method]
        setattr(self.owner, self.method, self.build())
        try:
            yield
        finally:
            setattr(self.owner, self.method, original)
        assert vars(self.owner)[self.method] is original


MUTANTS = {m.name: m for m in (
    # The heartbeat leaves from the tick even with a frame still queued in
    # the uplink's lane: it overtakes the frame (the hazard of the
    # never-overtake rule, Alg. 2 l.10–12 against Property 2).
    Mutant("heartbeat_always_from_tick", EunomiaUplink, "_tick",
           "if host._loop._now > self._frame_due:", "if True:"),
    # ``now == due`` read as past the frame: at that instant the frame's
    # send may still be queued behind the running tick.
    Mutant("heartbeat_from_tick_at_frame_due", EunomiaUplink, "_tick",
           "host._loop._now > self._frame_due",
           "host._loop._now >= self._frame_due"),
    # The heartbeat is stamped from the simulator's true time, not from the
    # partition's physical clock that the guard read and the hybrid clock
    # observes (Alg. 2 l.11): on a clock that lags, a later update is
    # tagged below a heartbeat already sent (Property 2).
    Mutant("heartbeat_stamped_from_true_time", EunomiaUplink, "_tick",
           "PartitionHeartbeat(self.partition_index, clock_now)\n"
           "            self.heartbeats_sent += 1",
           "PartitionHeartbeat(self.partition_index,\n"
           "                                      int(host._loop._now * 1e6))\n"
           "            self.heartbeats_sent += 1"),
    # A re-rated clock keeps multiplying by the old rate while ``drift_ppm``
    # reports the new one: a drift fault injected mid-run moves nothing.
    Mutant("clock_rate_stale_after_set_drift", PhysicalClock, "set_drift",
           "self._rate = 1.0 + drift_ppm / 1e6", "pass"),
    # A retransmitted frame's already-ingested prefix is accepted again:
    # exactly-once ingestion under at-least-once delivery (Alg. 4), at
    # the stream's one prefix filter.
    Mutant("dedup_skipped_on_retransmit", ReliableStream, "accepted_from",
           "return bisect_right(ops, floor, key=key)", "return 0"),
    # Ops at or below StableTime enter the unstable buffer: the buffer is
    # fed from the PartitionTime cut instead of the StableTime cut, so a
    # follower re-buffers what its leader already shipped (Alg. 4 l.13–15).
    Mutant("stable_prefix_enters_buffer", StabilizerBase, "on_add_op_batch",
           "cut = bisect_right(ops, self.stable_time, lo, key=_TS)",
           "cut = lo"),
    # A frame that follows a lost one is accepted: PartitionTime moves past
    # ops the stabilizer never saw (the prefix property, Alg. 4).
    Mutant("gap_frame_accepted", ReliableStream, "accepted_from",
           "if prev > floor:", "if False:"),
    # A stalled window is resent from its ``sent`` mark, not from the
    # acknowledged floor: an op lost in flight is never sent again and
    # its destination waits for it forever (Alg. 4 l.6).
    Mutant("resend_skips_acked_floor", ReliableStream, "ship",
           "start_from = ack if retransmit else sent", "start_from = sent"),
    # The run is pruned at the fastest destination's ack: an op a slower
    # replica has not acknowledged is dropped, and a resend to it skips
    # that op (pruning at min Ack_n[f], Alg. 4 l.5).
    Mutant("prune_at_fastest_replica", ReliableStream, "prune",
           "min(map(_ACK, self.windows.values()))",
           "max(map(_ACK, self.windows.values()))"),
    # The stall timer is re-armed on every send: a steady stream of new
    # frames keeps postponing the resend of a lost one (Alg. 4 l.6).
    Mutant("stall_timer_rearmed_every_send", ReliableStream, "ship",
           "if retransmit or w.due == _INF:", "if True:"),
    # A cancelled periodic entry fires when it surfaces: the one
    # cancellation path the loop has (the entry stays queued, a no-op).
    Mutant("cancelled_periodic_fires", PeriodicHandle, "_fire",
           "if self.cancelled:", "if False:"),
    # The crash guard of ``Process.periodic`` closes over its process
    # again, as a nested function: a deep copy of the system shares the
    # closure, so the copy's periodic tasks read the original's state.
    Mutant("periodic_body_closes_over_process", Process, "periodic",
           "return self._loop.schedule_periodic(\n"
           "        period, fn, phase=phase,",
           "proc, epoch, task = self, self._epoch, fn\n"
           "\n"
           "    def fn():\n"
           "        if proc.crashed or proc._epoch != epoch:\n"
           "            return\n"
           "        task()\n"
           "\n"
           "    return self._loop.schedule_periodic(\n"
           "        period, fn, phase=phase,"),
    # FIND_STABLE claims one tick past min(PartitionTime): an op a
    # partition may still send at that timestamp would arrive after the
    # cut was shipped (Alg. 3 l.8).
    Mutant("stable_cut_one_tick_high", StabilizerBase, "_stabilize",
           "stable = self._stable_floor()",
           "stable = self._stable_floor() + 1"),
    # A write-ahead-logged stabilizer acks a batch without committing its
    # records: the uplink prunes ops that an amnesia crash then loses
    # (ack implies durability, Alg. 4 with a WAL).
    Mutant("ack_before_fsync", StabilizerBase, "_post_batch",
           "self._enqueue(self._commit_and_ack,", "self._enqueue(self.send,"),
    # The disk lane's commit-and-ack body is a closure: a deep copy
    # of the system shares it, so the fork's queued flush commits the
    # original's log and acks from the original's stabilizer.
    Mutant("post_batch_body_closes_over_stabilizer", StabilizerBase,
           "_post_batch",
           "self._enqueue(self._commit_and_ack, cost + self.ack_cost, src, ack,",
           "self._enqueue(lambda: self._commit_and_ack(src, ack),\n"
           "                      cost + self.ack_cost,"),
    # A parked lane completion re-enters the queue with a fresh seq when
    # its head fires: it falls behind every same-time entry scheduled since
    # it was parked (the loop's (time, seq) order).
    Mutant("parked_entry_gets_fresh_seq", Fifo, "_fire",
           "entry[0] > until:\n"
           "                heappush(heap, parked.popleft())",
           "entry[0] > until:\n"
           "                time, _, head, rest = parked.popleft(); "
           "loop.schedule_at(time, head, *rest)"),
    # A Fifo fires its next entry in place although the heap's head
    # precedes it: an entry of another lane or a timer falls behind.
    Mutant("drain_fires_past_heap_head", Fifo, "_fire",
           "if heap and heap[0] < entry or entry[0] > until:",
           "if entry[0] > until:"),
    # A Fifo fires its next entry in place past ``run(until=...)``'s bound:
    # the loop's clock passes the bound and an event of the next segment
    # fires in this one.
    Mutant("drain_ignores_until", Fifo, "_fire",
           " or entry[0] > until:", ":"),
    # An entry of an older generation fires: a completion queued before a
    # crash runs its handler and counts out an entry of the new generation.
    Mutant("stale_entry_releases", Fifo, "_fire",
           "if gen != self.gen:", "if False:"),
    # A crash keeps the lanes' generation: the backlog queued before it
    # runs its handlers on the crashed process.
    Mutant("crash_keeps_lane_parked", Process, "crash",
           "self._unpark_all()", "pass"),
    # A slot reserved while the process is crashed keeps its body, and runs
    # it if it fires before the recovery (the lane's crash check).
    Mutant("slot_reserved_while_crashed_runs", Process, "_enqueue",
           "fn = _noop", "pass"),
    # The receiver releases an update whose dependencies on other origins
    # are not yet applied here (Alg. 5 l.12, SiteTime[d] >= u.vts[d]).
    Mutant("receiver_ignores_site_time", Receiver, "_deps_satisfied",
           "return False", "pass"),
    # The prefix filter stops at the last key the receiver holds instead
    # of past it: a re-shipped frame enqueues that update again and it is
    # applied twice (exactly-once release, Alg. 5).
    Mutant("receiver_reenqueues_last_key", ReliableStream, "accepted_from",
           "bisect_right(ops, floor, key=key)",
           "__import__('bisect').bisect_left(ops, floor, key=key)"),
    # The receiver claims a timestamp while an op tied at it is still
    # queued: a dependency on (k, ts) reads as met when only some of the
    # ops at ts are applied (the tie-aware SiteTime, Alg. 5 l.12).
    Mutant("receiver_claims_tied_ts", Receiver, "_advance_site_time",
           "self.site_time[k] = ts - 1", "self.site_time[k] = ts"),
    # A recovered receiver keeps its in-flight heads instead of releasing
    # them again: a head whose ApplyRemote or ack the crash dropped is
    # never acknowledged, and its origin's queue stalls.
    Mutant("receiver_recover_keeps_inflight", Receiver, "recover",
           "self._inflight.clear()", "pass"),
    # A frame whose non-resident head is skipped advances SiteTime but
    # rescans no other origin: a head that waited on that timestamp stays
    # queued until some later event (the skip under partial placement).
    Mutant("receiver_batch_drops_skip_progress", Receiver,
           "on_remote_stable_batch",
           "if self._try_flush(k):\n        self._flush_all()",
           "self._try_flush(k)"),
    # An apply ack advances SiteTime and frees its origin's slot without a
    # rescan: the origin's next head and every head that waited on the
    # applied timestamp stall (Alg. 5's FLUSH after an apply).
    Mutant("receiver_ack_skips_flush", Receiver, "on_apply_remote_ok",
           "self._flush_all()", "pass"),
    # A recovered replica is not started again: the crash's epoch bump
    # retired its θ tick and Ω broadcasts, so it rejoins as a zombie that
    # never stabilizes and, once it is the last replica, never ships.
    Mutant("replica_recover_skips_restart", ReplicaGroup, "recover",
           "proc.start()", "pass"),
    # A recovered GST partition is not started again: its heartbeat,
    # report and aggregation ticks stay retired and the DC's GST freezes.
    Mutant("gst_recover_skips_restart", GstPartition, "recover",
           "self.start()", "pass"),
    # The checkpoint floor is the running StableTime, not the shipped
    # floor: truncation drops ops that were popped but not yet shipped,
    # and an amnesia crash in that window loses them.
    Mutant("checkpoint_above_shipped_floor", StabilizerBase, "_durable_floor",
           "return self.shipped_stable", "return self.stable_time"),
    # The placement-aware cut includes an origin whose resident set is
    # disjoint from this DC's: no stream ever arrives from it, so a remote
    # update that names it as a dependency waits in the receiver forever.
    Mutant("receiver_queues_disjoint_origin", Receiver, "__init__",
           " and placement.overlaps(k, dc_id)", ""),
    # The site's stabilizer stack is not told about its first resident
    # partition: StableTime runs ahead of that partition's PartitionTime,
    # and its ops arrive below a cut that was already shipped (Alg. 3 l.8).
    Mutant("stack_cut_omits_resident_partition", EunomiaProtocol,
           "build_site", "indices=stored,", "indices=stored[1:],"),
    # A GentleRain partition leaves its first tracked origin out of the
    # GST minimum: the GST passes what that origin has shipped, and an
    # update becomes visible before one it depends on.
    Mutant("gst_summary_drops_origin", GentleRainPartition, "_local_summary",
           "for d in self.tracked]", "for d in self.tracked[1:]]"),
    # The leader gossips each shard's own floor, not its floor capped at
    # the StableTime it released: followers prune ops the leader popped
    # but has not shipped yet, and a leader crash in that window loses
    # them (the prefix property, Alg. 4 l.13–15).
    Mutant("prune_above_shipped_floor", ShardCoordinator, "_prune_floors",
           "min(s, released)", "s"),
    # A heartbeat's PartitionTime record is sized without the zigzag
    # fold: a negative timestamp delta (a heartbeat behind the last staged
    # op) is charged by its magnitude, and fsync bytes drift from the
    # codec the WAL claims.
    Mutant("wal_pt_size_drops_zigzag", WriteAheadLog, "stage_partition_time",
           "~delta", "delta"),
    # A run accepts an entry whose key does not exceed its tail: one
    # origin's stream enters out of order, and every drain that trusts a
    # run's sortedness — the stabilizer's cut, the GST's covered prefix,
    # the receiver's head — releases out of order (the one ingestion
    # contract of every release gate).
    Mutant("run_accepts_non_monotone_append", RunBuffer, "extend_run",
           "if entry[0] <= prev:", "if False:"),
)}
