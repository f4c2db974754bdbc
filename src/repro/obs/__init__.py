"""Observability: causal tracing and stage-lag gauges.

One call wires the whole surface onto a built :class:`~repro.geo.system.
GeoSystem` (any protocol on the ProtocolSpec spine)::

    system = build_geo_system("eunomia", spec)
    obs = attach_observability(system, sample_every=16)
    system.run(2.0); system.quiesce(2.5)
    print(render_slo_report(system.metrics, tracer=obs.tracer))
    write_chrome_trace("trace.json", tracer=obs.tracer,
                       metrics=system.metrics)

Every measured value lives in the exact series of the run's one
:class:`MetricsHub` (``env.metrics``); the SLO report computes its
percentiles from them.  Components read ``self.metrics.tracer`` (``None``
when no tracer is attached), so an unobserved run pays one attribute
fetch per call site and goldens stay
bit-for-bit identical whether observability is attached or not (the
tracer draws no randomness and schedules nothing; the gauge scraper only
reads state).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .trace import STAGES, STAGE_DESCRIPTIONS, Span, Tracer
from .gauges import GaugeScraper
from .export import chrome_trace, write_chrome_trace, render_slo_report

__all__ = [
    "STAGES", "STAGE_DESCRIPTIONS", "Span", "Tracer", "attach_tracer",
    "GaugeScraper", "chrome_trace", "write_chrome_trace",
    "render_slo_report", "Observability", "attach_observability",
]


@dataclass
class Observability:
    """Handles to the attached instruments (``gauges`` may be ``None``)."""

    tracer: Tracer
    gauges: Optional[GaugeScraper] = None


def attach_tracer(env, processes, sample_every: int = 16) -> Tracer:
    """Hang a sampled :class:`Tracer` on the run's hub (``env.metrics``)
    and hook the group commit of every WAL among ``processes``, so durable
    deployments get the ``wal_stage``/``wal_fsync`` stages.  Returns the
    tracer."""
    tracer = Tracer(sample_every=sample_every)
    env.metrics.tracer = tracer
    for proc in processes:
        wal = getattr(proc, "wal", None)
        if wal is not None:
            wal.obs_hook = tracer.wal_hook(env, proc.site)
    return tracer


def attach_observability(system, sample_every: int = 16,
                         gauges: bool = True) -> Observability:
    """Attach the tracer and (unless ``gauges=False``) the gauge scraper
    to a built system.  Call after ``build_geo_system`` and before ``run``.
    """
    processes = [proc for dc in system.datacenters
                 if getattr(dc, "stack", None) is not None
                 for proc in dc.stack.processes()]
    obs = Observability(tracer=attach_tracer(system.env, processes,
                                             sample_every))
    if gauges:
        obs.gauges = GaugeScraper(system).attach()
    return obs
