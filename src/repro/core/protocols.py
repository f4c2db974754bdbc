"""The protocol registry: one deployment spine, pluggable protocols.

The paper's whole measurement argument is that GentleRain and Cure "are
implemented using the codebase of EunomiaKV", so every measured difference
is protocol, not plumbing.  This module is where that promise lives in
code: a :class:`ProtocolSpec` is a *thin plugin* that contributes only the
protocol-specific pieces of a datacenter —

* its per-partition storage processes,
* its stabilizer/sequencer complex (Eunomia stacks, per-DC sequencers,
  GST aggregation — whatever orders or gates updates), and
* its remote receiver (when the protocol ships an ordered metadata
  stream; ``None`` for the all-to-all designs),

while the shared spine — :class:`repro.geo.datacenter.Datacenter`,
:func:`repro.geo.system.build_geo_system`, and
:func:`repro.core.assembly.build_stabilizer_stack` — owns everything
protocols have in common: the WAN topology, NTP-disciplined clocks, the
consistent-hash ring, closed-loop clients, uplink wiring, metrics,
and failure injection.  Every cross-protocol axis (placement,
:class:`~repro.sim.failure.FailureSchedule`, workload specs, crash
schedules) therefore applies to every protocol by construction.

Plugins register themselves at import time via :func:`register_protocol`;
:func:`get_protocol` lazily imports the module that owns a name, so this
module never imports upward into :mod:`repro.geo` or
:mod:`repro.baselines` at load time (layering stays acyclic).

Registered protocols (the paper's full evaluation matrix):

==============  ========================================================
``eunomia``     EunomiaKV — any shards × replicas stack of
                :func:`repro.core.assembly.build_stabilizer_stack`
``eventual``    eventually consistent yardstick (zero causal metadata)
``gentlerain``  scalar global stable time (Du et al., SoCC'14)
``cure``        vector global stable time (Akkoorath et al., ICDCS'16)
``sseq``        synchronous per-DC sequencer (plain, or chain-replicated
                via ``chain_length=N``)
``aseq``        the paper's asynchronous-sequencer ablation
==============  ========================================================
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Any, Optional, TYPE_CHECKING

from ..calibration import Calibration
from ..clocks.physical import PhysicalClock
from ..sim.env import Environment
from ..sim.process import Process

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..clocks.ntp import NtpSynchronizer
    from ..kvstore.ring import ConsistentHashRing
    from .placement import PlacementMap

__all__ = [
    "SiteContext",
    "SitePlan",
    "ProtocolSpec",
    "register_protocol",
    "get_protocol",
    "available_protocols",
    "PROTOCOL_ORDER",
]


@dataclass
class SiteContext:
    """Everything the spine provides a plugin to build one datacenter.

    Created by :class:`repro.geo.datacenter.Datacenter`; plugins consume
    it in :meth:`ProtocolSpec.build_site`.  ``options`` is the normalized
    per-system option dict returned by :meth:`ProtocolSpec.prepare` —
    protocol tunables (``config``, ``gst_interval``, ``chain_length``)
    travel through it uniformly.  ``placement`` is always a map — full
    replication is :meth:`PlacementMap.full` — so a plugin wires every
    deployment through ``placement.resident_partitions(dc_id)`` and
    ``placement.residents(index)``, with no full-replication special case.
    """

    env: Environment
    dc_id: int
    n_dcs: int
    n_partitions: int
    ring: "ConsistentHashRing"
    calibration: Calibration
    #: which partition indices each DC stores
    placement: "PlacementMap"
    ntp: Optional["NtpSynchronizer"] = None
    options: dict = field(default_factory=dict)

    def clock(self) -> PhysicalClock:
        """Draw the next NTP-disciplined physical clock for this site.

        All protocols draw from the same per-DC stream in partition-index
        order, so identical seeds give identical clock ensembles across
        protocols — the frame-sharing guarantee the goldens pin down.
        """
        rng = self.env.rng.stream(f"clocks/dc{self.dc_id}")
        clock = PhysicalClock.random(self.env, rng)
        if self.ntp is not None:
            self.ntp.manage(clock)
        return clock

    def pname(self, index: int) -> str:
        """Canonical partition process name (``dc0/p3``)."""
        return f"dc{self.dc_id}/p{index}"


@dataclass
class SitePlan:
    """What a plugin built for one datacenter, in deployment-agnostic form.

    The spine starts processes in the order ``partitions → extras →
    receiver`` and, on :meth:`Datacenter.connect`, points every
    propagator at the remote site's receiver (when both exist) and links
    same-index partitions as siblings.
    """

    #: the N storage partitions, index order; must expose ``datastore()``
    partitions: list = field(default_factory=list)
    #: non-partition processes to start after partitions (stabilizers,
    #: sequencers, aggregation helpers); entries without ``start`` are fine
    extras: list = field(default_factory=list)
    #: Algorithm 5-style remote receiver, or None for all-to-all designs
    receiver: Optional[Process] = None
    #: processes that ship ordered stable/metadata streams to remote
    #: receivers (gain every remote receiver as a destination on connect)
    propagators: list = field(default_factory=list)
    #: protocol-private stack handle for introspection (Eunomia's
    #: :class:`~repro.core.assembly.StabilizerStack`)
    stack: Any = None


class ProtocolSpec:
    """Base class for protocol plugins.  Subclass, instantiate, register."""

    #: registry key; also the :class:`~repro.geo.system.GeoSystem` label
    name = "?"

    def client_entries(self, n_dcs: int) -> int:
        """Width of the client session vector (0 = no causal metadata)."""
        raise NotImplementedError

    def option_names(self) -> tuple:
        """Every option key the plugin understands.

        The spine rejects anything else up front (``TypeError``), so a
        typo'd tunable — or one meant for a different protocol — fails
        loudly instead of silently running the experiment without it.
        """
        return ()

    def prepare(self, spec, options: dict) -> dict:
        """Normalize/validate per-system options once, before any site is
        built.  Raise ``ValueError``/``TypeError`` on bad combinations."""
        return options

    def build_site(self, site: SiteContext) -> SitePlan:
        """Build the protocol-specific pieces of one datacenter."""
        raise NotImplementedError

    def leader(self, plan: SitePlan):
        """The process currently shipping this site's ordered stream
        (introspection; protocols without one return None)."""
        if plan.stack is not None:
            return plan.stack.leader()
        return plan.propagators[0] if plan.propagators else None


_REGISTRY: dict[str, ProtocolSpec] = {}

#: canonical presentation order (eventual first: it is the normalization
#: baseline of Figures 1 and 5)
PROTOCOL_ORDER = ("eventual", "eunomia", "gentlerain", "cure", "sseq", "aseq")

#: lazily imported module that registers each protocol name
_LAZY_MODULES = {
    "eunomia": "repro.geo.datacenter",
    "eventual": "repro.baselines.eventual",
    "gentlerain": "repro.baselines.gst",
    "cure": "repro.baselines.gst",
    "sseq": "repro.baselines.seqstore",
    "aseq": "repro.baselines.seqstore",
}


def register_protocol(spec: ProtocolSpec) -> ProtocolSpec:
    """Add ``spec`` to the registry (idempotent per name; last wins)."""
    _REGISTRY[spec.name] = spec
    return spec


def get_protocol(name: str) -> ProtocolSpec:
    """Resolve a protocol by name, importing its plugin module on demand."""
    spec = _REGISTRY.get(name)
    if spec is None and name in _LAZY_MODULES:
        importlib.import_module(_LAZY_MODULES[name])
        spec = _REGISTRY.get(name)
    if spec is None:
        known = ", ".join(available_protocols())
        raise ValueError(f"unknown protocol {name!r}; pick one of ({known})")
    return spec


def available_protocols() -> tuple[str, ...]:
    """Every resolvable protocol name, canonical order first."""
    names = set(_LAZY_MODULES) | set(_REGISTRY)
    ordered = [n for n in PROTOCOL_ORDER if n in names]
    ordered.extend(sorted(names - set(ordered)))
    return tuple(ordered)
