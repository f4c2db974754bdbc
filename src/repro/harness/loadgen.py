"""§7.1 load rigs: driving Eunomia and sequencers to saturation.

The paper stretches both services by connecting load generators *directly*,
bypassing the data store: "each client simulates a different partition in a
multi-server datacenter", which lets the authors emulate datacenters far
larger than their testbed.  This module reproduces that methodology:

* :class:`PartitionEmulator` — an eager closed-loop producer that owns a
  hybrid clock and a full Eunomia uplink (batching, acks, heartbeats), i.e.
  exactly the partition-side protocol with the storage stripped away;
* :class:`SequencerLoadClient` — the equivalent driver for a sequencer:
  request a number, wait, request the next (the waiting *is* the point);
* :class:`RemoteSink` — stands in for a remote datacenter's receiver, so
  Eunomia pays its propagation cost (its real bottleneck per §7.1);
* rig builders assembling each service with N drivers on an intra-DC
  network.

Throughput is read from the service-side marks: ``eunomia_stable:dc0``
(ops leaving PROCESS_STABLE) and ``seq_assigned:dc0`` (numbers issued).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from ..calibration import Calibration
from ..clocks.hlc import HybridLogicalClock
from ..clocks.physical import PhysicalClock
from ..core.assembly import build_stabilizer_stack
from ..core.config import (RETRY_BACKOFF_CAP, SEQ_RETRY_TIMEOUT,
                           EunomiaConfig)
from ..core.messages import BatchAck
from ..core.uplink import EunomiaUplink
from ..kvstore.types import Update
from ..metrics import MetricsHub, steady_window, throughput
from ..sim.env import Environment
from ..sim.latency import ConstantLatency
from ..sim.network import Network
from ..sim.process import Process
from .. import baselines
from ..baselines.messages import SeqReply, SeqRequest
from ..baselines.sequencer import build_chain

__all__ = [
    "RemoteSink",
    "PartitionEmulator",
    "SequencerLoadClient",
    "ServiceRig",
    "build_eunomia_rig",
    "build_sequencer_rig",
]

INTRA_DC_LATENCY = 0.00015  # 150 µs LAN hop, as in the geo deployments


class RemoteSink(Process):
    """Counts ordered updates arriving from a service (a remote DC stand-in).

    Set ``record = True`` (before the run) to also keep the exact arrival
    sequence of update uids — the sharded-determinism tests compare these
    across shard counts.
    """

    def __init__(self, env: Environment, name: str = "sink"):
        super().__init__(env, name, site=1)
        self.received = 0
        self.last_batch_ts = 0
        self.record = False
        self.collected: list[tuple] = []

    def on_remote_stable_batch(self, msg, src: Process) -> None:
        self.received += len(msg.ops)
        if msg.ops:
            self.last_batch_ts = msg.ops[-1].ts
            if self.record:
                self.collected.extend(op.uid for op in msg.ops)


class PartitionEmulator(Process):
    """An eagerly-updating partition without the storage substrate."""

    def __init__(self, env: Environment, name: str, index: int,
                 config: EunomiaConfig):
        super().__init__(env, name, site=0)
        cal = env.calibration
        self.index = index
        self.config = config
        self.clock = PhysicalClock.random(env, env.rng.stream(f"empart/{name}"))
        self.hlc = HybridLogicalClock(self.clock)
        self.batch_interval = config.batch_interval
        self.gen_cost = cal.cost("emulated_partition_gen")
        self.uplink = EunomiaUplink(
            host=self, partition_index=index, config=config,
            hlc=self.hlc, clock=self.clock,
            op_cost=cal.cost("uplink_op"),
            batch_cost=cal.overhead("uplink_batch"),
        )
        self._seq = 0
        self._stopped = False
        self.generated = 0

    def set_eunomia(self, replicas: list[Process]) -> None:
        self.uplink.set_replicas(replicas)

    def start(self) -> None:
        self.uplink.start()
        self._enqueue(self._generate, self.gen_cost)

    def recover(self) -> None:
        """Rejoin after a crash: re-arm the uplink and restart the loop."""
        super().recover()
        self.uplink.restart()
        if not self._stopped:
            self._enqueue(self._generate, self.gen_cost)

    def stop(self) -> None:
        """Stop generating load; the uplink stays alive and drains."""
        self._stopped = True

    def _generate(self) -> None:
        if self._stopped:
            return
        ts = self.hlc.tick()
        self._seq = seq = self._seq + 1
        # Update(key, value, origin_dc, partition_index, seq, ts, vts,
        #        commit_time), built positionally on this hot path
        self.uplink.record(Update(seq & 1023, None, 0, self.index, seq, ts,
                                  (ts,), self.now))
        self.generated += 1
        self._enqueue(self._generate, self.gen_cost)

    def on_batch_ack(self, msg: BatchAck, src: Process) -> None:
        self.uplink.on_ack(msg, src)


class SequencerLoadClient(Process):
    """Closed-loop driver of a (possibly chain-replicated) sequencer.

    Fault-tolerant like the real partitions: an in-flight request that
    outlives ``SEQ_RETRY_TIMEOUT`` is re-sent to the head with exponential
    backoff capped at ``RETRY_BACKOFF_CAP``, and a late original reply
    racing the retry's is deduplicated by uid so one request never
    completes twice.
    """

    def __init__(self, env: Environment, name: str, index: int,
                 head: Process):
        super().__init__(env, name, site=0)
        self.index = index
        self.head = head
        self.gen_cost = env.calibration.cost("emulated_partition_gen")
        self._seq = 0
        self._outstanding = None        # uid of the in-flight request
        self.completed = 0
        self.retries = 0
        self.duplicate_replies = 0

    def start(self) -> None:
        self._enqueue(self._request, self.gen_cost)

    def _request(self) -> None:
        self._seq += 1
        update = Update(
            key=self._seq & 1023, value=None, origin_dc=0,
            partition_index=self.index, seq=self._seq, ts=0, vts=(0,),
            commit_time=self.now,
        )
        self._outstanding = update.uid
        self.send(self.head, SeqRequest(update))
        self.after(SEQ_RETRY_TIMEOUT, self._maybe_retry, update, 0)

    def _maybe_retry(self, update, attempt: int) -> None:
        if self._outstanding != update.uid:
            return                      # answered meanwhile — timer is moot
        self.retries += 1
        self.send(self.head, SeqRequest(replace(update, value=None)))
        delay = min(SEQ_RETRY_TIMEOUT * (1 << (attempt + 1)),
                    RETRY_BACKOFF_CAP)
        self.after(delay, self._maybe_retry, update, attempt + 1)

    def on_seq_reply(self, msg: SeqReply, src: Process) -> None:
        if msg.uid != self._outstanding:
            self.duplicate_replies += 1
            return
        self._outstanding = None
        self.completed += 1
        self._enqueue(self._request, self.gen_cost)


@dataclass
class ServiceRig:
    """A service (Eunomia or sequencer) under synthetic partition load."""

    env: Environment
    drivers: list
    service_processes: list
    sink: RemoteSink
    throughput_mark: str
    #: replica-failure targets, in election order
    #: (:class:`~repro.core.replica.ReplicaGroup`); empty when the service
    #: has no replicas to crash
    groups: list = field(default_factory=list)
    _run_window: tuple[float, float] = field(default=(0.0, 0.0))

    @property
    def metrics(self) -> MetricsHub:
        """The run's hub (``env.metrics``)."""
        return self.env.metrics

    def start(self) -> None:
        for proc in self.service_processes:
            proc.start()
        for driver in self.drivers:
            driver.start()

    def observe(self, sample_every: int = 16):
        """Attach a sampled causal tracer to the rig (see repro.obs).

        Rig ops are emulator-generated (no client issue stamp), so spans
        open at service ingestion; WAL group commits are hooked the same
        way the geo spine does it.  Returns the tracer.
        """
        from ..obs import attach_tracer  # local import keeps obs optional here

        return attach_tracer(self.env, self.service_processes, sample_every)

    def run(self, duration: float) -> None:
        self.start()
        start = self.env.now
        self.env.run(until=start + duration)
        self._run_window = (start, self.env.now)

    def throughput(self) -> float:
        """Service ops/second over the steady-state window."""
        window = steady_window(*self._run_window)
        return throughput(self.metrics.mark_times(self.throughput_mark), window)

    def throughput_timeline(self, width: float = 1.0) -> list[tuple[float, float]]:
        from ..metrics import windowed_rate

        start, end = self._run_window
        return windowed_rate(self.metrics.mark_times(self.throughput_mark),
                             start, end, width)


def build_eunomia_rig(n_partitions: int,
                      config: Optional[EunomiaConfig] = None,
                      calibration: Optional[Calibration] = None,
                      seed: int = 0) -> ServiceRig:
    """Eunomia under emulator load: R replicas of a K-shard pipeline, any
    R and K the config names; ``calibration`` is the rig environment's."""
    config = config or EunomiaConfig()
    config.validate()
    env = Environment(seed=seed, calibration=calibration)
    Network(env, ConstantLatency(INTRA_DC_LATENCY))

    stack = build_stabilizer_stack(env, 0, n_partitions, config,
                                   stable_mark="eunomia_stable:dc0")
    sink = RemoteSink(env)
    for propagator in stack.propagators():
        propagator.add_destination(sink)

    drivers = [
        PartitionEmulator(env, f"part{i}", i, config)
        for i in range(n_partitions)
    ]
    stack.wire_uplinks(drivers)

    return ServiceRig(env, drivers, stack.processes(), sink,
                      throughput_mark="eunomia_stable:dc0",
                      groups=stack.crash_units())


def build_sequencer_rig(n_clients: int, chain_length: int = 1,
                        calibration: Optional[Calibration] = None,
                        seed: int = 0) -> ServiceRig:
    """A sequencer (a chain of ``chain_length`` nodes) under load;
    ``calibration`` is the rig environment's."""
    env = Environment(seed=seed, calibration=calibration)
    Network(env, ConstantLatency(INTRA_DC_LATENCY))

    sink = RemoteSink(env)
    nodes = build_chain(env, 0, chain_length)
    nodes[-1].add_destination(sink)

    drivers = [
        SequencerLoadClient(env, f"client{i}", i, nodes[0])
        for i in range(n_clients)
    ]
    return ServiceRig(env, drivers, [], sink,
                      throughput_mark="seq_assigned:dc0")
