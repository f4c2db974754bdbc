"""Eunomia: the paper's primary contribution.

* :class:`EunomiaService` — Algorithm 3, the unobtrusive site-wide orderer
  (:class:`EunomiaShard` × K behind a :class:`ShardCoordinator` when sharded).
* :class:`ReplicaRole` / :class:`ReplicaGroup` — Algorithm 4, its
  fault-tolerant form (prefix property + Ω leader election), one role and
  one crash unit whichever of the two heads a replica.
* :class:`EunomiaPartition` — Algorithm 2 partitions with hybrid-clock
  timestamping, batching, heartbeats, and §5's data/metadata separation.
* :class:`SessionClient` — Algorithm 1 client sessions (vector form of §4).
* :class:`EunomiaConfig` — protocol timing knobs.
"""

from .assembly import StabilizerStack, build_stabilizer_stack
from .client import SessionClient
from .config import EunomiaConfig
from .election import OmegaElection
from .messages import (
    AddOpBatch,
    ApplyRemote,
    ApplyRemoteOk,
    BatchAck,
    ClientRead,
    ClientReadReply,
    ClientUpdate,
    ClientUpdateReply,
    PartitionHeartbeat,
    RemoteData,
    RemoteStableBatch,
    ReplicaAlive,
    ShardStableBatch,
    ShardStableVector,
    StableAnnounce,
    StateTransferReply,
    StateTransferRequest,
)
from .partition import EunomiaPartition
from .protocols import (
    ProtocolSpec,
    SiteContext,
    SitePlan,
    available_protocols,
    get_protocol,
    register_protocol,
)
from .tree import CombinedBatch, TreeRelay
from .replica import ReplicaGroup, ReplicaRole
from .service import EunomiaService, StabilizerBase
from .shard import EunomiaShard, ShardCoordinator, ShardMap
from .uplink import EunomiaUplink

__all__ = [
    "EunomiaConfig",
    "EunomiaService",
    "ReplicaRole",
    "ReplicaGroup",
    "StabilizerBase",
    "EunomiaShard",
    "ShardCoordinator",
    "ShardMap",
    "StabilizerStack",
    "build_stabilizer_stack",
    "EunomiaPartition",
    "EunomiaUplink",
    "SessionClient",
    "OmegaElection",
    "TreeRelay",
    "CombinedBatch",
    "ProtocolSpec",
    "SiteContext",
    "SitePlan",
    "register_protocol",
    "get_protocol",
    "available_protocols",
    "AddOpBatch",
    "ApplyRemote",
    "ApplyRemoteOk",
    "BatchAck",
    "ClientRead",
    "ClientReadReply",
    "ClientUpdate",
    "ClientUpdateReply",
    "PartitionHeartbeat",
    "RemoteData",
    "RemoteStableBatch",
    "ReplicaAlive",
    "ShardStableBatch",
    "ShardStableVector",
    "StableAnnounce",
    "StateTransferRequest",
    "StateTransferReply",
]
