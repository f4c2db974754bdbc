"""Observability: causal tracing, SLO sketches, and stage-lag gauges.

One call wires the whole surface onto a built :class:`~repro.geo.system.
GeoSystem` (any protocol on the ProtocolSpec spine)::

    system = build_geo_system("eunomia", spec)
    obs = attach_observability(system, sample_every=16)
    system.run(2.0); system.quiesce(2.5)
    print(render_slo_report(system.metrics, tracer=obs.tracer))
    write_chrome_trace("trace.json", tracer=obs.tracer,
                       metrics=system.metrics)

Everything hangs off the already-injected :class:`MetricsHub` — components
read ``metrics.tracer`` / ``metrics.slo`` (``None`` when detached), so an
unobserved run pays one attribute fetch per call site and goldens stay
bit-for-bit identical whether observability is attached or not (the
tracer draws no randomness and schedules nothing; the gauge scraper only
reads state).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .trace import STAGES, STAGE_DESCRIPTIONS, Span, Tracer
from .sketch import LogBinHistogram, SloRecorder
from .gauges import SCRAPE_INTERVAL, GaugeScraper
from .export import chrome_trace, write_chrome_trace, render_slo_report

__all__ = [
    "STAGES", "STAGE_DESCRIPTIONS", "Span", "Tracer",
    "LogBinHistogram", "SloRecorder",
    "GaugeScraper", "chrome_trace", "write_chrome_trace",
    "render_slo_report", "Observability", "attach_observability",
]


@dataclass
class Observability:
    """Handles to the attached instruments (any may be ``None``)."""

    tracer: Optional[Tracer] = None
    slo: Optional[SloRecorder] = None
    gauges: Optional[GaugeScraper] = None

    def detach(self, metrics=None) -> None:
        """Stop the gauge scraper and unhook the hub attributes."""
        if self.gauges is not None:
            self.gauges.detach()
        if metrics is not None:
            if metrics.tracer is self.tracer:
                metrics.tracer = None
            if metrics.slo is self.slo:
                metrics.slo = None


def attach_observability(system, sample_every: int = 16,
                         gauge_interval: float = SCRAPE_INTERVAL,
                         trace: bool = True, slo: bool = True,
                         gauges: bool = True,
                         rel_err: float = 0.01) -> Observability:
    """Attach tracer + SLO sketches + gauge scraper to a built system.

    Call after ``build_geo_system`` and before ``run``.  Each instrument
    can be switched off independently; WAL fsync hooks are wired for every
    stabilizer process that owns a WAL so durable deployments get the
    ``wal_stage``/``wal_fsync`` stages.
    """
    obs = Observability()
    metrics = system.metrics
    if trace:
        obs.tracer = Tracer(sample_every=sample_every)
        metrics.tracer = obs.tracer
        for dc in system.datacenters:
            stack = getattr(dc, "stack", None)
            if stack is None:
                continue
            for proc in stack.processes():
                wal = getattr(proc, "wal", None)
                if wal is not None:
                    wal.obs_hook = obs.tracer.wal_hook(system.env, proc.site)
    if slo:
        obs.slo = SloRecorder(rel_err=rel_err)
        metrics.slo = obs.slo
    if gauges:
        obs.gauges = GaugeScraper(system, interval=gauge_interval).attach()
    return obs
