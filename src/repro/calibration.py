"""CPU service-time calibration.

Every throughput number in the paper is ultimately a statement about how much
CPU one operation costs at some bottleneck process.  This module is the
single place those costs live, with the rationale for each; experiments and
builders take a :class:`Calibration` and never hard-code times.

The anchors, from the paper's evaluation:

* a traditional sequencer saturates at **~48 kops/s** (§7.1) →
  ``sequencer_request_us ≈ 20.8``;
* Eunomia handles **7.7×** more, >370 kops/s, bottlenecked by propagation to
  remote sites rather than op handling (§7.1) → ~2.7 µs/op split between
  tree insert and propagation;
* a chain-replicated (3-node) sequencer loses ~33% → per-request chain work
  ≈ 1.5× the plain sequencer's;
* one Riak machine serves ~3 kops/s (§7.1) and the paper's clusters put
  8 logical partitions on 3 servers per DC → a few hundred µs per storage
  op at a partition;
* GentleRain/Cure pay (a) per-op metadata handling — Cure roughly double
  GentleRain because of vector stamps (§7.2.1) — and (b) a periodic
  stabilization cost proportional to 1/interval (Figure 1's sweep);
* clients generating load against Eunomia directly sustain ~6.2 kops/s each
  (Figure 2: throughput scales with partition count until Eunomia saturates
  near 60 partitions).

``scale`` multiplies **per-operation** service times (default ×10),
shrinking simulated throughput by the same factor so that pure-Python event
counts stay tractable.  All *ratios* — the content of the paper's claims —
are scale invariant; README.md ("Results") and ``benchmarks/TRAJECTORY.json``
report the scaled measurements.

What is **not** scale invariant is a *queue wait behind a scaled cost*
inside a latency reported in real milliseconds.  Remote-update visibility is
built from the protocol intervals (Δ, θ, ρ) and network delays, none of
which ``scale`` touches, so anything on that path that waits for a client
operation to finish waits ten times longer than it would at paper scale and
the error lands, unscaled, in a number compared against Fig. 6.  Hence the
rule (docs/ARCHITECTURE.md, "Lanes"): *no scaled per-op service time on the
visibility path* — payload writes, uplink frames, heartbeats and acks, and
the GentleRain / Cure stabilization plane (sibling heartbeats, reports, the
summary broadcast) are served on background lanes of the partition, never in
its ``cpu`` lane behind ``partition_read`` / ``partition_update``, and an
Alg. 5 release on a lane of its own, never behind a payload write.  The rule
is about waiting, not about charging: the per-round ``*_gst_round`` overhead
is still CPU the partition's foreground server loses (Figure 1), so the
broadcast's handler *reserves* that much of ``cpu`` — client operations queue
behind the round, the round queues behind nothing.

Costs come in two kinds, and the distinction matters:

* **per-op costs** (:meth:`Calibration.cost`) are charged once per operation
  — their rate shrinks with the scale factor, so the times are multiplied by
  ``scale`` to keep utilization fractions faithful;
* **periodic / per-batch overheads** (:meth:`Calibration.overhead`) are
  charged at wall-clock rates fixed by protocol intervals (a GST round every
  5 ms, a batch tick every 1 ms) that are *not* scaled — multiplying those
  times by ``scale`` would inflate their CPU share tenfold, so they are used
  unscaled.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Calibration"]


@dataclass
class Calibration:
    """Service times in microseconds at real (paper) scale.

    Use :meth:`cost` to obtain scaled seconds for the simulator.
    """

    #: Global time scale: simulated service times are ``value × scale``.
    scale: float = 10.0

    # -- sequencer service (§7.1) --------------------------------------
    sequencer_request_us: float = 20.8   # 1/20.8µs ≈ 48 kops/s saturation
    chain_head_us: float = 31.2          # assign + forward ⇒ ~32 kops/s (−33%)
    chain_mid_us: float = 25.0
    chain_tail_us: float = 25.0

    # -- Eunomia service -------------------------------------------------
    eunomia_insert_op_us: float = 0.5    # red-black tree insert + bookkeeping
    eunomia_batch_us: float = 1.0        # per received AddOpBatch
    eunomia_heartbeat_us: float = 0.2
    eunomia_propagate_op_us: float = 2.0  # per op per destination (bottleneck)
    eunomia_stab_round_us: float = 10.0  # PROCESS_STABLE fixed cost
    eunomia_ack_us: float = 3.0          # FT replica: emit BatchAck per batch

    # -- sharded Eunomia ---------------------------------------------------
    #: shard-side serialization of one stable-run op (the propagation work
    #: minus the destination fan-out, done once per op on the shard's core)
    eunomia_shard_serialize_op_us: float = 2.0
    #: coordinator per-op forward of a pre-serialized run, per destination —
    #: a K-way heap pop plus a buffer splice, far cheaper than serializing
    eunomia_coord_op_us: float = 0.4
    eunomia_coord_round_us: float = 10.0   # fixed cost per merge/drain round

    # -- durability (WAL + checkpoints, ``durability="wal"``) ------------
    #: CPU to serialize one accepted op into the log's staging buffer —
    #: charged on the ingest path next to the buffer insert
    wal_append_op_us: float = 0.25
    #: group-commit fsync barrier (disk lane; NVMe-class flush latency)
    wal_fsync_us: float = 30.0
    #: per-byte sequential log bandwidth (~1 GB/s), also per fsync'd byte
    wal_byte_us: float = 0.001
    #: write + atomically swap one checkpoint (disk lane, per interval)
    checkpoint_write_us: float = 100.0
    #: decode + re-apply one WAL record during recovery replay
    wal_replay_record_us: float = 0.5

    # -- partition-side (Riak-like storage nodes) ------------------------
    partition_read_us: float = 150.0
    partition_update_us: float = 400.0
    #: write one remote version — charged on the message that carries the
    #: payload (``RemoteData``), under every protocol, before the §7.2.2
    #: arrival stamp (core/partition.py, ``StoragePartition._install``)
    partition_apply_remote_us: float = 100.0
    #: touch a buffered record: what a receiver's release (``ApplyRemote``)
    #: costs — pair, publish, ack — the one per-op cost inside Alg. 5's cycle
    partition_remote_data_us: float = 20.0
    eunomia_update_extra_us: float = 35.0   # vector stamp + uplink + data ship
    uplink_op_us: float = 1.0               # serialize one op into a batch
    uplink_batch_us: float = 2.0            # per batch per replica

    # -- §5 propagation-tree relays ---------------------------------------
    relay_forward_us: float = 0.5         # buffer one incoming message
    relay_flush_us: float = 1.0           # emit one combined window

    # -- receivers (Alg. 5) ----------------------------------------------
    receiver_enqueue_op_us: float = 1.0
    receiver_flush_us: float = 5.0

    # -- sequencer-based stores (S-Seq / A-Seq) ---------------------------
    sseq_update_extra_us: float = 10.0    # forwarding state per update
    sseq_reply_us: float = 10.0           # handle the sequencer's reply

    # -- clients ----------------------------------------------------------
    client_op_us: float = 30.0            # per-op client-side work
    emulated_partition_gen_us: float = 160.0  # §7.1 load driver: ~6.2 kops/s

    # -- GentleRain / Cure (global stabilization) ------------------------
    gentlerain_read_extra_us: float = 6.0
    gentlerain_update_extra_us: float = 30.0
    gentlerain_gst_round_us: float = 200.0   # per partition per GST round
    cure_read_extra_us: float = 12.0
    cure_update_extra_us: float = 60.0
    cure_gst_round_us: float = 400.0
    gst_heartbeat_us: float = 3.0            # send/receive a sibling heartbeat

    def cost(self, name: str) -> float:
        """Per-op service time in **seconds**, scaled (see module docstring)."""
        return getattr(self, name + "_us") * 1e-6 * self.scale

    def overhead(self, name: str) -> float:
        """Periodic/per-batch service time in **seconds**, unscaled."""
        return getattr(self, name + "_us") * 1e-6

    def throughput_scale(self) -> float:
        """Divide paper ops/s by this to compare with simulated ops/s."""
        return self.scale
