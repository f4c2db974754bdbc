"""Storage partitions: the one every protocol deploys, and EunomiaKV's.

The paper compares protocols "implemented using the codebase of EunomiaKV"
so that every measured difference is protocol, not plumbing.  At this layer
the shared codebase is :class:`StoragePartition`: clocks, the versioned
store, sibling wiring, reads, the construction of a local update (with its
trace span) and — written once, in :meth:`StoragePartition._install` — what
it means for a remote update to become visible and how §7.2.2 accounts for
it.  A protocol's partition adds its cost table, its timestamp and what it
does between commit and install; :class:`ReceiverFedPartition` is the part
EunomiaKV and the sequencer stores share (Alg. 5 releases paired with §5
payloads).

:class:`EunomiaPartition` (Algorithm 2, extended per §4 and §5) models one
logical Riak partition.  Responsibilities:

* serve client reads/updates, timestamping updates with the hybrid clock —
  local vector entry ``max(Clock_n, MaxTs_n+1, VClock_c[m]+1)``, remote
  entries copied from the client's vector (§4 "Update");
* feed committed updates to the local Eunomia service through an
  :class:`repro.core.uplink.EunomiaUplink` (batched, acked, heartbeats);
* ship update *payloads* directly to sibling partitions in remote
  datacenters (§5 separation of data and metadata), so Eunomia only ever
  orders lightweight identifiers;
* execute remote updates handed over by the local receiver (Alg. 5 line 14),
  pairing metadata with the out-of-band payload, installing the version
  under convergent LWW, and recording visibility metrics.
"""

from __future__ import annotations

from typing import Optional

from ..calibration import Calibration
from ..clocks.hlc import HybridLogicalClock
from ..clocks.physical import PhysicalClock
from ..clocks.vector import vc_zero
from ..kvstore.storage import VersionedStore
from ..kvstore.types import ORDER_KEY, Update, Versioned
from ..sim.env import Environment
from ..sim.process import Process
from .config import EunomiaConfig
from .messages import (
    ApplyRemote,
    ApplyRemoteOk,
    BatchAck,
    ClientRead,
    ClientReadReply,
    ClientUpdate,
    ClientUpdateReply,
    RemoteData,
)
from .uplink import EunomiaUplink

__all__ = ["StoragePartition", "ReceiverFedPartition", "EunomiaPartition"]


class StoragePartition(Process):
    """Partition p_n^m of any protocol: storage, reads, local commit and
    remote visibility.  Subclasses pass their cost table and implement
    ``on_client_update`` and whatever feeds :meth:`_install`."""

    #: Only client operations are served on the foreground ``cpu`` lane.
    #: Remote replication work runs on a background lane: real stores
    #: apply replicated updates on separate scheduler threads; queueing
    #: them behind foreground client operations would inflate visibility
    #: latency far beyond anything the paper measures — client service
    #: times are scaled by ``Calibration.scale``, the protocol intervals
    #: the visibility path is made of are not (see calibration.py,
    #: "scale").
    LANES = {"RemoteData": "replication"}

    def __init__(self, env: Environment, name: str, dc_id: int, index: int,
                 n_dcs: int, clock: PhysicalClock, costs: dict):
        super().__init__(env, name, site=dc_id, costs=costs)
        self.dc_id = dc_id
        self.index = index
        self.n_dcs = n_dcs
        self.clock = clock
        self.hlc = HybridLogicalClock(clock)
        self.store = VersionedStore()
        self.siblings: dict[int, Process] = {}   # remote dc -> sibling part.
        #: vector returned for never-written keys (protocol metadata width;
        #: a protocol with another width replaces it)
        self.zero_vts = vc_zero(n_dcs)
        self._seq = 0
        self.local_updates = 0
        self.remote_applies = 0
        # visibility series names per origin DC, formatted once
        self._vis_labels = [(f"vis_extra_ms:{k}->{dc_id}",
                             f"vis_total_ms:{k}->{dc_id}")
                            for k in range(n_dcs)]

    def set_sibling(self, dc_id: int, partition: Process) -> None:
        """Register the same-index partition of a remote datacenter."""
        if dc_id != self.dc_id:
            self.siblings[dc_id] = partition

    def datastore(self) -> VersionedStore:
        """The store used for convergence checks (client-visible data)."""
        return self.store

    # ------------------------------------------------------------------
    # Client operations
    # ------------------------------------------------------------------
    def on_client_read(self, msg: ClientRead, src: Process) -> None:
        version = self.store.get(msg.key)
        if version is None:
            reply = ClientReadReply(msg.key, None, self.zero_vts,
                                    msg.request_id)
        else:
            reply = ClientReadReply(msg.key, version.value, version.vts,
                                    msg.request_id)
        self.send(src, reply)

    def _new_update(self, msg: ClientUpdate, ts: int, vts: tuple) -> Update:
        """The next local update, stamped ``(ts, vts)``, its span opened."""
        self._seq += 1
        update = Update(
            key=msg.key, value=msg.value, origin_dc=self.dc_id,
            partition_index=self.index, seq=self._seq, ts=ts, vts=vts,
            commit_time=self.now, value_bytes=msg.value_bytes,
        )
        tracer = self.metrics.tracer
        if tracer is not None:
            # issued_at == 0.0 means "not threaded" (senders other than
            # SessionClient); the span then opens at commit.
            issued = msg.issued_at if msg.issued_at > 0.0 else None
            span = tracer.commit(update, self.now, issued_at=issued)
            if span is not None and self.siblings:
                tracer.stage(update, "replicate", self.now, self.dc_id)
        return update

    def _commit_local(self, update: Update) -> None:
        """Install a local update under its final stamp."""
        self.store.put(update.key, Versioned(update.value, update.ts,
                                             self.dc_id, update.vts))
        self.local_updates += 1

    def _replicate(self, update: Update) -> None:
        """Ship the payload to every sibling partition."""
        self.multicast(self.siblings.values(), RemoteData(update))

    # ------------------------------------------------------------------
    # Remote visibility
    # ------------------------------------------------------------------
    def _install(self, items) -> None:
        """Make ``(update, arrival)`` pairs visible, in order.

        The single definition of remote visibility.  Accounting follows
        §7.2.2 exactly: the *extra* delay of a remote update is measured
        from the moment its payload arrived at this datacenter
        (``arrival``) to the moment it is installed; network transit is
        factored out.  One body for a single pair and for a deferred-set
        drain: a summary broadcast can release hundreds of updates at
        once, so the per-item handle resolution (store put, metrics point,
        tracer) is hoisted out of the loop.

        What this costs, for all six protocols: **the storage write of a
        remote version is charged on the message that carries its payload**
        (``partition_apply_remote`` on ``RemoteData``; on ``ApplyRemote``
        only when Eunomia runs unseparated and the value rides the
        metadata), so ``arrival`` — stamped by that message's handler, when
        its slot completes — is the instant the version is written, and
        "extra" means extra over an eventually consistent store under every
        protocol.  Whatever later makes the version visible (a receiver's
        release, a summary broadcast) costs its own bookkeeping and never a
        second write: no ×``scale`` service time sits between ``arrival``
        and here (``tests/test_lanes.py`` reads the cost tables).
        """
        if not items:
            return
        put = self.store.put
        point = self.metrics.point
        tracer = self.metrics.tracer
        now = self.now
        m = self.dc_id
        labels = self._vis_labels
        for update, arrival in items:
            put(update.key, Versioned(update.value, update.ts,
                                      update.origin_dc, update.vts))
            k = update.origin_dc
            extra_ms = max(0.0, (now - arrival) * 1e3)
            total_ms = (now - update.commit_time) * 1e3
            extra_label, total_label = labels[k]
            point(extra_label, now, extra_ms)
            point(total_label, now, total_ms)
            if tracer is not None:
                tracer.stage_once(update, "visible", now, m)
        self.remote_applies += len(items)


class ReceiverFedPartition(StoragePartition):
    """A partition whose remote updates are released by the local receiver
    (Alg. 5 line 14): ordering metadata arrives as ``ApplyRemote``, the
    payload out of band as ``RemoteData`` (§5), and the pair installs.

    The payload is written when it lands — milliseconds before its metadata
    can be stable — so a release costs the pairing, the publish and the ack
    (``partition_remote_data``), and Algorithm 5's stop-and-wait cycle is
    ``2·LAN + publish + receiver_flush`` with no scaled write inside it.
    Releases ride a ``release`` lane of their own, so the cycle does not
    wait behind the payload writes of unrelated updates either."""

    LANES = {"ApplyRemote": "release", "RemoteData": "replication"}

    def __init__(self, env: Environment, name: str, dc_id: int, index: int,
                 n_dcs: int, clock: PhysicalClock, costs: dict):
        super().__init__(env, name, dc_id, index, n_dcs, clock, costs)
        self._pending_data: dict[tuple, tuple[Update, float]] = {}
        self._pending_apply: dict[tuple, tuple[Update, Process]] = {}
        #: per origin DC, the order key of the last remote update installed
        #: (releases arrive in that order, one at a time per origin)
        self._last_installed: list[tuple] = [(0, -1, -1)] * n_dcs
        #: per-origin-partition series names, formatted on first use
        self._vis_part_labels: dict[tuple[int, int], str] = {}

    def on_remote_data(self, msg: RemoteData, src: Process) -> None:
        update = msg.update
        waiting = self._pending_apply.pop(update.uid, None)
        if waiting is not None:
            # Metadata got here first: execute now, the write just done;
            # extra delay is zero because execution is immediate upon data
            # arrival.
            meta, receiver = waiting
            self._execute_remote(meta.with_value(update.value),
                                 data_arrival=self.now, receiver=receiver)
        else:
            self._pending_data[update.uid] = (update, self.now)

    def on_apply_remote(self, msg: ApplyRemote, src: Process) -> None:
        update = msg.update
        if ORDER_KEY(update) <= self._last_installed[update.origin_dc]:
            # Released again by a receiver that crashed before the ack got
            # back: it is installed (and its §5 payload consumed), so only
            # the acknowledgement is repeated.
            self.send(src, ApplyRemoteOk(update.uid))
            return
        if update.value is None:
            held = self._pending_data.pop(update.uid, None)
            if held is None:
                # Payload still in flight; pair it up on arrival.
                self._pending_apply[update.uid] = (update, src)
                return
            data, arrival = held
            # Ordering metadata (vts, commit time) always comes from the
            # receiver's copy — payloads may have been shipped before the
            # final stamp was known (S-Seq ships at request time).
            self._execute_remote(update.with_value(data.value),
                                 data_arrival=arrival, receiver=src)
        else:
            self._execute_remote(update, data_arrival=self.now, receiver=src)

    def _execute_remote(self, update: Update, data_arrival: float,
                        receiver: Process) -> None:
        self._install(((update, data_arrival),))
        k = update.origin_dc
        self._last_installed[k] = ORDER_KEY(update)
        # Per-origin-partition breakdown: the straggler experiment (Fig. 7)
        # distinguishes updates born on healthy partitions from the
        # straggler's own.
        origin = (k, update.partition_index)
        part_label = self._vis_part_labels.get(origin)
        if part_label is None:
            part_label = self._vis_part_labels[origin] = (
                f"{self._vis_labels[k][0]}:p{update.partition_index}")
        now = self.now
        self.metrics.point(part_label, now,
                           max(0.0, (now - data_arrival) * 1e3))
        self.send(receiver, ApplyRemoteOk(update.uid))


class EunomiaPartition(ReceiverFedPartition):
    """Partition p_n^m: local storage + Eunomia uplink + remote execution."""

    #: the lane the uplink's frames and queued heartbeats wait in (read
    #: once by :class:`~repro.core.uplink.EunomiaUplink`; a host class that
    #: says nothing ships from ``cpu``, as the §7.1 emulators must)
    UPLINK_LANE = "uplink"
    #: The uplink's acknowledgements (``BatchAck``, beside its frames) run
    #: on their own background lane, like remote replication work.
    LANES = {**ReceiverFedPartition.LANES, "BatchAck": UPLINK_LANE}

    def __init__(self, env: Environment, name: str, dc_id: int, index: int,
                 n_dcs: int, clock: PhysicalClock, config: EunomiaConfig,
                 calibration: Optional[Calibration] = None):
        cal = calibration or Calibration()
        # The write rides the message that carries the payload
        # (StoragePartition._install): RemoteData — or, unseparated, when
        # none is sent, the ApplyRemote that holds the value.
        written_on, touched_on = (("RemoteData", "ApplyRemote")
                                  if config.separate_data_metadata
                                  else ("ApplyRemote", "RemoteData"))
        super().__init__(env, name, dc_id, index, n_dcs, clock, {
            "ClientRead": cal.cost("partition_read"),
            "ClientUpdate": (cal.cost("partition_update")
                             + cal.cost("eunomia_update_extra")),
            written_on: cal.cost("partition_apply_remote"),
            touched_on: cal.cost("partition_remote_data"),
        })
        self.config = config
        #: mutable so the straggler injector (Fig. 7) can inflate it live
        self.batch_interval = config.batch_interval
        self.uplink = EunomiaUplink(
            host=self, partition_index=index, config=config, hlc=self.hlc,
            clock=clock, op_cost=cal.cost("uplink_op"),
            batch_cost=cal.overhead("uplink_batch"),
        )

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def set_eunomia(self, replicas: list[Process]) -> None:
        """Point the uplink at the local Eunomia service/replica set."""
        self.uplink.set_replicas(replicas)

    def start(self) -> None:
        self.uplink.start()

    def recover(self) -> None:
        """Restart after a crash-stop *and re-arm the uplink tick*.

        The crash epoch retired the uplink's periodic flush; without this
        override a recovered partition would accept client updates but
        never ship them, freezing its entry of PartitionTime — and with it
        the whole DC's StableTime — forever (the uplink single-point
        stall).  ``restart`` also resets retransmission backoff so
        outstanding windows are re-offered to the replicas immediately.
        """
        super().recover()
        self.uplink.restart()

    # ------------------------------------------------------------------
    # Client updates (Algorithm 2, vector form of §4)
    # ------------------------------------------------------------------
    def on_client_update(self, msg: ClientUpdate, src: Process) -> None:
        m = self.dc_id
        client_vts = msg.client_vts
        # Local entry: max(Clock_n, MaxTs_n+1, VClock_c[m]+1) — Alg. 2 l.5.
        ts = self.hlc.update(client_vts[m])
        vts = client_vts[:m] + (ts,) + client_vts[m + 1:]
        update = self._new_update(msg, ts, vts)
        self._commit_local(update)
        if self.config.separate_data_metadata:
            # §5: Eunomia orders identifiers; payloads go partition→sibling.
            self.uplink.record(update.with_value(None))
            self._replicate(update)
        else:
            self.uplink.record(update)
        self.send(src, ClientUpdateReply(vts, msg.request_id))

    def on_batch_ack(self, msg: BatchAck, src: Process) -> None:
        self.uplink.on_ack(msg, src)
