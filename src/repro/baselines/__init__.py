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
implemented using the codebase of EunomiaKV").
"""

from .eventual import EventualPartition, EventualProtocol
from .gst import (
    CurePartition,
    GentleRainPartition,
    GstPartition,
    GstProtocol,
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
    "GstPartition",
    "GstProtocol",
    "GentleRainPartition",
    "CurePartition",
    "EventualPartition",
    "EventualProtocol",
    "SeqRequest",
    "SeqReply",
    "ChainForward",
    "GstHeartbeat",
    "GstReport",
    "GstBroadcast",
]
