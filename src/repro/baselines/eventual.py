"""Eventually consistent multi-cluster store — the zero-overhead yardstick.

No causal metadata at all: updates are timestamped only for convergence
(LWW), shipped to sibling partitions, and applied the instant they arrive.
Every causal system in this repository is measured as overhead relative to
this baseline, exactly as the paper normalizes its Figures 1 and 5.
"""

from __future__ import annotations

from ..clocks.physical import PhysicalClock
from ..core.messages import ClientUpdate, ClientUpdateReply, RemoteData
from ..core.partition import StoragePartition
from ..core.protocols import (
    ProtocolSpec,
    SiteContext,
    SitePlan,
    register_protocol,
)
from ..sim.process import Process

__all__ = ["EventualPartition", "EventualProtocol"]


class EventualPartition(StoragePartition):
    """A partition that replicates without ordering constraints."""

    def __init__(self, env, name: str, dc_id: int, index: int, n_dcs: int,
                 clock: PhysicalClock):
        cal = env.calibration
        super().__init__(env, name, dc_id, index, n_dcs, clock, {
            "ClientRead": cal.cost("partition_read"),
            "ClientUpdate": cal.cost("partition_update"),
            "RemoteData": cal.cost("partition_apply_remote"),
        })
        self.zero_vts = ()  # this store exposes no causal metadata at all

    def on_client_update(self, msg: ClientUpdate, src: Process) -> None:
        update = self._new_update(msg, self.hlc.tick(), ())
        self._commit_local(update)
        self._replicate(update)
        self.send(src, ClientUpdateReply((), msg.request_id))

    def on_remote_data(self, msg: RemoteData, src: Process) -> None:
        # Apply on arrival: eventual consistency adds zero artificial delay
        # (arrival == now, so the §7.2.2 extra delay is identically 0.0).
        self._install(((msg.update, self.now),))


class EventualProtocol(ProtocolSpec):
    """Deployment plugin: partitions only — no stabilizer, no receiver, no
    causal metadata (clients carry a zero-width session vector)."""

    name = "eventual"
    causal = False

    def client_entries(self, n_dcs: int) -> int:
        return 0

    def build_site(self, site: SiteContext) -> SitePlan:
        partitions = [
            EventualPartition(site.env, site.pname(i), site.dc_id, i,
                              site.n_dcs, site.clock())
            for i in range(site.n_partitions)
        ]
        return SitePlan(partitions=partitions)


register_protocol(EventualProtocol())
