"""The geo-replicated deployment spine, shared by every protocol.

:func:`build_geo_system` assembles M datacenters over the paper's WAN
topology — NTP-disciplined drifting clocks, a consistent-hash ring,
closed-loop client sessions, pairwise receiver/sibling wiring — and asks
the named :class:`~repro.core.protocols.ProtocolSpec` plugin for the
protocol-specific pieces of each site.  Every protocol in the registry
(EunomiaKV and all of the paper's baselines) deploys over this one frame,
so every measured difference is protocol, not plumbing:

    system = build_geo_system("gentlerain", GeoSystemSpec(seed=1),
                              WorkloadSpec())
    system.run(duration=10.0)
    print(system.total_throughput())

Every protocol comes back as the same :class:`GeoSystem` facade, so every
experiment script treats protocols uniformly — including failure injection:
``system.failures()`` hands out the system's
:class:`~repro.sim.failure.FailureSchedule`, armed at start, for any
protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from ..calibration import Calibration
from ..clocks.ntp import NtpSynchronizer
from ..core.client import SessionClient
from ..core.placement import PlacementMap
from ..core.protocols import ProtocolSpec, get_protocol
from ..kvstore.ring import ConsistentHashRing
from ..metrics import steady_window, throughput
from ..sim.env import Environment
from ..sim.latency import RttMatrix, paper_topology
from ..sim.network import Network
from ..workload.generator import WorkloadSpec
from .datacenter import Datacenter

__all__ = ["GeoSystemSpec", "GeoSystem", "build_geo_system"]


@dataclass
class GeoSystemSpec:
    """Deployment shape shared by every protocol builder."""

    n_dcs: int = 3
    partitions_per_dc: int = 8
    clients_per_dc: int = 16
    seed: int = 0
    rtt: Optional[RttMatrix] = None          # default: the paper's topology
    calibration: Calibration = field(default_factory=Calibration)
    ntp_residual_us: float = 100.0
    #: selects nothing; kept for the frozen perf/ harness ("heap" | "wheel")
    scheduler: str = "heap"
    #: which partition indices each DC stores.  ``None``/``"full"`` is
    #: full replication; ``"stride:K"``, an explicit ``"dc0=0,1;..."``
    #: string, a ``{dc: indices}`` dict, or a
    #: :class:`~repro.core.placement.PlacementMap` select partial shapes
    #: with client forwarding to the nearest resident DC.
    placement: Union[None, str, dict, PlacementMap] = None
    #: client retry timeout (seconds) for lost in-flight operations.
    #: ``None`` (default) keeps the historical no-retry closed loop; set
    #: it for fault schedules that crash forwarding targets, where a
    #: dropped request would otherwise stall the session forever.
    client_retry: Optional[float] = None

    def topology(self) -> RttMatrix:
        return self.rtt if self.rtt is not None else paper_topology(self.n_dcs)

    def placement_map(self) -> PlacementMap:
        """The normalized placement (:meth:`PlacementMap.full` for full
        replication)."""
        return PlacementMap.from_spec(self.n_dcs, self.partitions_per_dc,
                                      self.placement)


class GeoSystem:
    """A running multi-datacenter deployment plus its measurement state."""

    def __init__(self, env: Environment, spec: GeoSystemSpec,
                 datacenters: Sequence,
                 clients: Sequence[SessionClient], protocol: str,
                 placement: PlacementMap, ntp=None):
        self.env = env
        self.spec = spec
        #: the run's hub (``env.metrics``), read after the run
        self.metrics = env.metrics
        self.datacenters = list(datacenters)
        self.clients = list(clients)
        self.protocol = protocol
        #: the normalized placement map
        self.placement = placement
        #: observability handle, set by :meth:`observe` (None = unobserved)
        self.obs = None
        #: the NTP synchronizer disciplining every site clock (None for
        #: hand-assembled systems) — the chaos DSL's ntp_outage target
        self.ntp = ntp
        self._started = False
        self._run_start = 0.0
        self._run_end = 0.0
        self._failures = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._started:
            return
        self._started = True
        for dc in self.datacenters:
            dc.start()
        for client in self.clients:
            client.start()
        if self._failures is not None:
            self._failures.arm()

    def failures(self):
        """This deployment's :class:`~repro.sim.failure.FailureSchedule`.

        One shared schedule per system, armed automatically at
        :meth:`start` — so crash/recover timelines apply uniformly to any
        protocol's processes (partitions, stabilizers, sequencers):

            leader = system.datacenters[0].leader()
            system.failures().crash_at(1.0, leader).recover_at(1.6, leader)

        (Crashing a storage *partition* of a receiver-fed protocol —
        ``eunomia``, ``sseq`` — currently stalls its datacenter's receiver
        for good; see ``tests/test_protocol_failures.py``.)
        """
        if self._failures is None:
            from ..sim.failure import FailureSchedule

            self._failures = FailureSchedule(self.env)
            if self._started:
                self._failures.arm()
        return self._failures

    def observe(self, **kwargs):
        """Attach causal tracing + stage-lag gauges (see repro.obs).

        Convenience for ``attach_observability(self, **kwargs)``; call
        before :meth:`run`.  The handle is also kept on ``self.obs``.
        """
        from ..obs import attach_observability  # local import avoids cycle

        self.obs = attach_observability(self, **kwargs)
        return self.obs

    def run(self, duration: float) -> None:
        """Start (if needed) and advance the simulation ``duration`` seconds."""
        self.start()
        self._run_start = self.env.now
        self.env.run(until=self.env.now + duration)
        self._run_end = self.env.now

    def quiesce(self, drain: float = 2.0) -> None:
        """Stop clients, then run ``drain`` seconds so replication settles."""
        for client in self.clients:
            client.stop()
        self.env.run(until=self.env.now + drain)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def window(self) -> tuple[float, float]:
        """Steady-state measurement window of the last ``run`` call."""
        return steady_window(self._run_start, self._run_end)

    def total_throughput(self) -> float:
        """Aggregate client ops/second over the steady-state window."""
        return throughput(self.metrics.mark_times("ops"), self.window())

    def dc_throughput(self, dc_id: int) -> float:
        return throughput(self.metrics.mark_times(f"ops:dc{dc_id}"),
                          self.window())

    def visibility_extra_ms(self, origin: int, dest: int) -> list[float]:
        """Per-update extra visibility delays (ms) within the window."""
        lo, hi = self.window()
        series = self.metrics.point_series(f"vis_extra_ms:{origin}->{dest}")
        return [v for t, v in series if lo <= t <= hi]

    def converged(self) -> bool:
        """True iff every partition's resident DCs hold identical data
        (call after quiesce): each partition is compared across the DCs
        that store it (all of them under full replication)."""
        for index in range(self.placement.n_partitions):
            prints = {
                self.datacenters[dc].partitions[index].datastore().fingerprint()
                for dc in self.placement.residents(index)
            }
            if len(prints) != 1:
                return False
        return True

    def snapshots(self) -> list[dict]:
        return [dc.store_snapshot() for dc in self.datacenters]


def build_geo_system(protocol: Union[str, ProtocolSpec],
                     spec: GeoSystemSpec,
                     workload: WorkloadSpec,
                     history=None,
                     **options) -> GeoSystem:
    """Construct a complete deployment of any registered protocol.

    This is the one spine every protocol deploys over: environment, WAN
    topology, NTP discipline, ring, per-site plugin build, pairwise
    receiver/sibling wiring, and identical closed-loop clients.
    ``options`` are protocol tunables, normalized once by the plugin's
    :meth:`~repro.core.protocols.ProtocolSpec.prepare` (e.g. ``config=``
    for EunomiaKV, ``gst_interval=`` for the GST stores,
    ``chain_length=`` for the chain-replicated sequencer).
    """
    proto = get_protocol(protocol) if isinstance(protocol, str) else protocol
    unknown = set(options) - set(proto.option_names())
    if unknown:
        raise TypeError(
            f"unknown option(s) for protocol {proto.name!r}: "
            f"{sorted(unknown)}; it understands "
            f"{sorted(proto.option_names()) or 'no options'}")
    options = proto.prepare(spec, dict(options))
    pmap = spec.placement_map()
    if spec.scheduler not in ("heap", "wheel"):
        raise ValueError(f"unknown scheduler {spec.scheduler!r}")
    env = Environment(seed=spec.seed, calibration=spec.calibration)
    topo = spec.topology()
    Network(env, topo)
    ntp = NtpSynchronizer(env, residual_us=spec.ntp_residual_us)
    ring = ConsistentHashRing(spec.partitions_per_dc)

    datacenters = [
        Datacenter(env, dc_id, spec.n_dcs, spec.partitions_per_dc, ring,
                   ntp=ntp,
                   protocol=proto, options=options, placement=pmap)
        for dc_id in range(spec.n_dcs)
    ]
    for a in datacenters:
        for b in datacenters:
            if a is not b:
                a.connect(b)

    built = workload.build()
    n_entries = proto.client_entries(spec.n_dcs)
    clients = []
    for dc in datacenters:
        # Read/write forwarding: a non-resident index routes to the
        # nearest resident DC's same-index partition over the normal
        # client lanes; the reply's vector metadata merges into the
        # session clock exactly as for a local operation.  A resident
        # index routes home.
        routing = [
            datacenters[pmap.nearest_resident(dc.dc_id, index,
                                              topo)].partitions[index]
            for index in range(spec.partitions_per_dc)
        ]
        for c in range(spec.clients_per_dc):
            clients.append(SessionClient(
                env, f"dc{dc.dc_id}/client{c}", dc.dc_id,
                n_entries=n_entries, partitions=routing, ring=ring,
                workload=built, think_time=workload.think_time,
                history=history, retry_timeout=spec.client_retry,
            ))
    return GeoSystem(env, spec, datacenters, clients,
                     protocol=proto.name, placement=pmap, ntp=ntp)
