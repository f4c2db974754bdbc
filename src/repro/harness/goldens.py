"""Golden fingerprints: byte-stable digests of a whole protocol run.

The deployment-spine refactor (one ``ProtocolSpec`` plugin per protocol
over ``core/protocols.py`` + ``geo/``) must not change a single bit of any
protocol's behaviour — the paper's measurement argument rests on every
system sharing the same frame, and ours rests on the frame *swap* being
observationally invisible.  This module defines the fingerprint that
proves it: for a fixed seed, a digest over

* the per-datacenter store fingerprints and sorted store snapshots
  (client-visible final state),
* the *ordered* remote-visibility series per datacenter pair — the
  ``vis_total_ms``/``vis_extra_ms`` points in emission order, which pin
  down the full timing of every remote install, and
* the completed-operation count (throughput-side behaviour).

``capture_golden`` computes one; ``scripts/capture_goldens.py`` recorded
``tests/golden/baseline_goldens.json`` against the *pre-refactor* builders
and ``tests/test_protocol_goldens.py`` asserts the post-refactor spine
reproduces them bit-for-bit.

``vis_sorted_sha`` is an order-*independent* variant of the visibility
digest: a structure that legally reorders installs within one stabilization
round emits the same point multiset in a different order, which moves the
strict ordered ``stable_sha`` but not the sorted one — so a drift in only
the former names an ordering change, not a timing change.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

__all__ = ["GOLDEN_SPEC", "GOLDEN_WORKLOAD", "GOLDEN_SEEDS",
           "capture_golden", "run_fingerprint"]

#: deployment shape every golden is captured at (small but multi-partition,
#: multi-client — enough concurrency to exercise all wiring paths)
GOLDEN_SPEC = dict(n_dcs=3, partitions_per_dc=2, clients_per_dc=2)
GOLDEN_WORKLOAD = dict(read_ratio=0.75, n_keys=64)
GOLDEN_SEEDS = (1234, 77)
_RUN_SECONDS = 2.0
_DRAIN_SECONDS = 2.5


def _sha(payload: Any) -> str:
    blob = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()[:20]


def _visibility_points(system) -> list:
    """Every remote-visibility point, per (origin, dest) pair, in order."""
    series = []
    n = system.spec.n_dcs
    for k in range(n):
        for m in range(n):
            if k == m:
                continue
            for label in (f"vis_total_ms:{k}->{m}", f"vis_extra_ms:{k}->{m}"):
                points = system.metrics.point_series(label)
                series.append((label, [(t, v) for t, v in points]))
    return series


def run_fingerprint(system) -> dict:
    """Digest a finished (run + quiesced) :class:`GeoSystem` run."""
    snapshots = []
    for dc in system.datacenters:
        snapshot = dc.store_snapshot()
        snapshots.append(_sha(sorted(snapshot.items(), key=lambda kv: str(kv[0]))))
    vis = _visibility_points(system)
    flat_points = sorted((label, t, v) for label, pts in vis
                         for t, v in pts)
    return {
        "fingerprints": [format(dc.fingerprint() & 0xFFFFFFFF, "08x")
                         for dc in system.datacenters],
        "snapshot_sha": snapshots,
        "stable_sha": _sha(vis),
        "vis_sorted_sha": _sha(flat_points),
        "ops": len(system.metrics.mark_times("ops")),
        "converged": system.converged(),
    }


def capture_golden(protocol: str, seed: int,
                   run_seconds: float = _RUN_SECONDS,
                   drain_seconds: float = _DRAIN_SECONDS,
                   observe: bool = False,
                   **kwargs) -> dict:
    """Build ``protocol`` at ``seed`` on the golden frame and digest it.

    ``observe=True`` attaches the full observability surface
    (tracing + gauges, ``repro.obs``) before the run; the
    instruments draw no randomness and schedule only read-only periodics,
    so the digest must not depend on this flag — the golden-preservation
    test asserts exactly that.
    """
    from ..baselines import build_system
    from ..geo.system import GeoSystemSpec
    from ..workload.generator import WorkloadSpec

    spec = GeoSystemSpec(seed=seed, **GOLDEN_SPEC)
    workload = WorkloadSpec(**GOLDEN_WORKLOAD)
    system = build_system(protocol, spec, workload, **kwargs)
    if observe:
        system.observe(sample_every=16)
    system.run(run_seconds)
    system.quiesce(drain_seconds)
    out = {"protocol": protocol, "seed": seed}
    out.update(run_fingerprint(system))
    return out
