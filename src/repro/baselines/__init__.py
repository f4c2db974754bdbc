"""Every comparison system from the paper's evaluation, implemented on the
same substrate as EunomiaKV:

* :mod:`sequencer` — traditional per-DC sequencers, plain and
  chain-replicated (§7.1's competitor);
* :mod:`seqstore` — S-Seq and A-Seq geo-replicated stores (§2, Figure 1);
* :mod:`gst` — the global-stabilization stores, GentleRain and Cure, as
  two flavors of one machinery (Figures 1, 5, 6);
* :mod:`eventual` — the zero-overhead eventually consistent yardstick.

Each module registers a :class:`~repro.core.protocols.ProtocolSpec`
plugin, so every baseline deploys through the same
:func:`~repro.geo.system.build_geo_system` spine as EunomiaKV — the same
topology, NTP-disciplined clocks, ring, closed-loop clients, and failure
injection (the paper makes the same point: GentleRain and Cure "are
implemented using the codebase of EunomiaKV").  ``build_system``
dispatches to any of them (plus EunomiaKV) by name.
"""

from typing import Optional

from ..core.protocols import available_protocols
from ..geo.system import GeoSystem, GeoSystemSpec, build_geo_system
from ..metrics.collector import MetricsHub
from ..workload.generator import WorkloadSpec
from .eventual import EventualPartition, EventualProtocol
from .gst import (
    CurePartition,
    GentleRainPartition,
    GstPartition,
    GstProtocol,
    GstTimings,
)
from .messages import (
    ChainForward,
    GstBroadcast,
    GstHeartbeat,
    GstReport,
    SeqReply,
    SeqRequest,
)
from .seqstore import SeqPartition, SequencerProtocol
from .sequencer import ChainSequencerNode, build_chain

__all__ = [
    "ChainSequencerNode",
    "build_chain",
    "SeqPartition",
    "SequencerProtocol",
    "GstTimings",
    "GstPartition",
    "GstProtocol",
    "GentleRainPartition",
    "CurePartition",
    "EventualPartition",
    "EventualProtocol",
    "build_system",
    "PROTOCOLS",
    "SeqRequest",
    "SeqReply",
    "ChainForward",
    "GstHeartbeat",
    "GstReport",
    "GstBroadcast",
]

def __getattr__(name: str):
    if name == "PROTOCOLS":
        # Live view, not an import-time snapshot: protocols registered
        # after import (via repro.register_protocol) appear immediately.
        return available_protocols()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def build_system(protocol: str, spec: GeoSystemSpec, workload: WorkloadSpec,
                 metrics: Optional[MetricsHub] = None, **kwargs) -> GeoSystem:
    """Uniform entry point: build any of the paper's systems by name.

    A thin alias of :func:`repro.geo.system.build_geo_system` — every
    protocol, EunomiaKV included, goes through the one deployment spine.
    """
    if protocol in ("sseq", "aseq") and "synchronous" in kwargs:
        raise TypeError("pick the protocol name, not a synchronous= flag")
    return build_geo_system(protocol, spec, workload, metrics=metrics,
                            **kwargs)
