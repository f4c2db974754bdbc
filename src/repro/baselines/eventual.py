"""Eventually consistent multi-cluster store — the zero-overhead yardstick.

No causal metadata at all: updates are timestamped only for convergence
(LWW), shipped to sibling partitions, and applied the instant they arrive.
Every causal system in this repository is measured as overhead relative to
this baseline, exactly as the paper normalizes its Figures 1 and 5.
"""

from __future__ import annotations


from typing import Optional

from ..calibration import Calibration
from ..clocks.physical import PhysicalClock
from ..core.config import EunomiaConfig
from ..core.messages import ClientUpdate, ClientUpdateReply, RemoteData
from ..core.partition import EunomiaPartition
from ..core.protocols import (
    ProtocolSpec,
    SiteContext,
    SitePlan,
    register_protocol,
)
from ..kvstore.types import Update, Versioned
from ..metrics.collector import MetricsHub
from ..sim.process import CostModel, Process

__all__ = ["EventualPartition", "EventualProtocol"]


class EventualPartition(EunomiaPartition):
    """A partition that replicates without ordering constraints."""

    def __init__(self, env, name: str, dc_id: int, index: int, n_dcs: int,
                 clock: PhysicalClock, config: EunomiaConfig,
                 calibration: Optional[Calibration] = None,
                 metrics: Optional[MetricsHub] = None):
        cal = calibration or Calibration()
        cost_model = CostModel(costs={
            "ClientRead": cal.cost("partition_read"),
            "ClientUpdate": cal.cost("partition_update"),
            "RemoteData": cal.cost("partition_apply_remote"),
        })
        super().__init__(env, name, dc_id, index, n_dcs, clock, config,
                         calibration=cal, metrics=metrics,
                         cost_model=cost_model)
        self.zero_vts = ()  # this store exposes no causal metadata at all

    def start(self) -> None:
        # No uplink, no Eunomia: nothing periodic to run.
        pass

    def on_client_update(self, msg: ClientUpdate, src: Process) -> None:
        ts = self.hlc.tick()
        self._seq += 1
        update = Update(
            key=msg.key, value=msg.value, origin_dc=self.dc_id,
            partition_index=self.index, seq=self._seq, ts=ts, vts=(),
            commit_time=self.now, value_bytes=msg.value_bytes,
        )
        self.store.put(msg.key, Versioned(msg.value, ts, self.dc_id, ()))
        self.local_updates += 1
        tracer = self.metrics.tracer
        if tracer is not None:
            issued = msg.issued_at if msg.issued_at > 0.0 else None
            span = tracer.commit(update, self.now, issued_at=issued)
            if span is not None and self.siblings:
                tracer.stage(update, "replicate", self.now, self.dc_id)
        data = RemoteData(update)
        self.multicast(self.siblings.values(), data)
        self.send(src, ClientUpdateReply((), msg.request_id))

    def on_remote_data(self, msg: RemoteData, src: Process) -> None:
        # Apply immediately: eventual consistency adds zero artificial delay.
        self._execute_remote_unordered(msg.update)

    def _execute_remote_unordered(self, update: Update) -> None:
        self.store.put(update.key, Versioned(update.value, update.ts,
                                             update.origin_dc, update.vts))
        self.remote_applies += 1
        now = self.now
        k, m = update.origin_dc, self.dc_id
        total_ms = (now - update.commit_time) * 1e3
        extra_label, total_label = self._vis_labels[k]
        self.metrics.point(extra_label, now, 0.0)
        self.metrics.point(total_label, now, total_ms)
        tracer = self.metrics.tracer
        if tracer is not None:
            tracer.stage_once(update, "visible", now, m)
        slo = self.metrics.slo
        if slo is not None:
            slo.visibility(k, m, total_ms, 0.0)


class EventualProtocol(ProtocolSpec):
    """Deployment plugin: partitions only — no stabilizer, no receiver, no
    causal metadata (clients carry a zero-width session vector)."""

    name = "eventual"

    def client_entries(self, n_dcs: int) -> int:
        return 0

    def option_names(self) -> tuple:
        return ("config",)

    def prepare(self, spec, options: dict) -> dict:
        options["config"] = options.get("config") or EunomiaConfig()
        return options

    def build_site(self, site: SiteContext) -> SitePlan:
        partitions = [
            EventualPartition(site.env, site.pname(i), site.dc_id, i,
                              site.n_dcs, site.clock(),
                              site.options["config"],
                              calibration=site.calibration,
                              metrics=site.metrics)
            for i in range(site.n_partitions)
        ]
        return SitePlan(partitions=partitions)


register_protocol(EventualProtocol())
