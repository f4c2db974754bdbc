"""Shape-parity digest: every stabilizer configuration, with and without a
leader failure, reduced to one line each.

PR 18 folded the K=1 and K>1 Algorithm 4 implementations into one replica
role; ``perf/`` samples two of the shapes.  This script covers the rest, and
runs unchanged on the parent commit and on the change so the two outputs can
be compared byte for byte::

    PYTHONPATH=src python benchmarks/shape_parity.py > shape_parity.txt

Rig cases: section 7.1 rig, 8 emulated partitions, seed 11, 1.2 sim-s, over
K in {1, 2, 4} x {plain, FT R=1, 2, 3} x durability in {none, wal} x
{no fault, leader crash-stop @0.30 s + rejoin @0.62 s, the same as an
amnesia crash (wal only)}; faults need a crash unit, so fault-tolerant shapes
only.  Each line carries the sha of ``sink.collected`` in arrival order, the
loop/network counters and per-replica ``ops_stabilized``.  Geo cases: seven
3x4x4 shapes (seed 5, 50:50) by ``run_fingerprint`` plus the same counters.

PR 19 put GentleRain and Cure on one deferred-update set; the GST family
pins them the same way — default options only, so the file still runs on
both commits: {gentlerain, cure} x placement {full, stride:2, island} x
seeds {5, 6} on the 3x4x4 frame (50:50), by ``run_fingerprint`` (strict
ordered ``stable_sha`` included), the counters, and the partitions' total
``remote_applies`` and left-over deferred updates.

PR 22 put every storage partition on one base class; the ``store`` family
pins the other four partition classes and every placement the same way:
{eunomia, eventual, sseq, sseq ``chain_length=3``, aseq} x the three
placements x seeds {5, 6}, by ``run_fingerprint``, the counters and the
partitions' total ``remote_applies``.

The committed ``benchmarks/shape_parity.txt`` is this script's output; the
``perf-smoke`` CI job regenerates and ``diff``s it, so a change that moves
a digest re-blesses that one file and its diff states what moved.
"""

from __future__ import annotations

import hashlib
import json

from repro.core import EunomiaConfig
from repro.geo.system import GeoSystemSpec, build_geo_system
from repro.harness.goldens import run_fingerprint
from repro.harness.loadgen import build_eunomia_rig
from repro.workload import WorkloadSpec

FAULTS = ("none", "crash-stop", "amnesia")


def counters(env) -> tuple:
    net = env.network
    return (env.loop.processed_events, net.messages_sent,
            net.messages_attempted, net.bytes_sent, net.messages_dropped)


def restart(unit):
    """The crash unit's restart entry point (``rejoin`` where the parent's
    K=1 unit has no restarting ``recover``)."""
    return getattr(unit, "rejoin", unit.recover)


def rig_case(n_shards: int, n_replicas: int, durability: str,
             fault: str) -> dict:
    fault_tolerant = n_replicas > 0
    config = EunomiaConfig(
        n_shards=n_shards, fault_tolerant=fault_tolerant,
        n_replicas=max(1, n_replicas), durability=durability,
        checkpoint_interval=0.1, state_transfer_timeout=0.2,
        replica_alive_interval=0.05, replica_suspect_timeout=0.16)
    rig = build_eunomia_rig(8, config=config, seed=11)
    rig.sink.record = True
    if fault != "none":
        unit = rig.groups[0]
        lose = fault == "amnesia"
        rig.env.loop.schedule_at(0.30, lambda: unit.crash(lose_state=lose))
        rig.env.loop.schedule_at(0.62, restart(unit))
    rig.run(1.2)
    blob = json.dumps(rig.sink.collected).encode()
    return {
        "sink_sha": hashlib.sha256(blob).hexdigest()[:20],
        "sink_ops": len(rig.sink.collected),
        "counters": counters(rig.env),
        "ops_stabilized": [g.ops_stabilized for g in rig.groups],
    }


def rig_cases():
    for n_shards in (1, 2, 4):
        for n_replicas in (0, 1, 2, 3):          # 0 = plain (not FT)
            for durability in ("none", "wal"):
                for fault in FAULTS:
                    if fault != "none" and n_replicas == 0:
                        continue
                    if fault == "amnesia" and durability != "wal":
                        continue
                    shape = ("plain" if n_replicas == 0
                             else f"ft-r{n_replicas}")
                    yield (f"rig k{n_shards} {shape} {durability} {fault}",
                           (n_shards, n_replicas, durability, fault))


GEO_SHAPES = (
    ("plain", dict()),
    ("k2", dict(n_shards=2)),
    ("ft-r2", dict(fault_tolerant=True, n_replicas=2)),
    ("ft-r3-wal", dict(fault_tolerant=True, n_replicas=3, durability="wal")),
    ("k2-ft-r2", dict(n_shards=2, fault_tolerant=True, n_replicas=2)),
    ("k2-ft-r2-wal", dict(n_shards=2, fault_tolerant=True, n_replicas=2,
                          durability="wal")),
    ("k4-wal", dict(n_shards=4, durability="wal")),
)


def geo_case(options: dict) -> dict:
    spec = GeoSystemSpec(n_dcs=3, partitions_per_dc=4, clients_per_dc=4,
                         seed=5)
    return run_digest(build_geo_system(
        "eunomia", spec, WorkloadSpec(read_ratio=0.5),
        config=EunomiaConfig(**options)))


def run_digest(system) -> dict:
    system.run(1.5)
    system.quiesce(2.0)
    digest = run_fingerprint(system)
    digest["counters"] = counters(system.env)
    return digest


PLACEMENTS = (
    ("full", None),
    ("stride2", "stride:2"),
    ("island", "dc0=0,1;dc1=0,1;dc2=2,3"),
)


def placed_case(protocol: str, placement, seed: int, **options):
    """One 3x4x4 run under a placement: the digest (with the partitions'
    total ``remote_applies``) and the resident partitions it summed over."""
    spec = GeoSystemSpec(n_dcs=3, partitions_per_dc=4, clients_per_dc=4,
                         seed=seed, placement=placement)
    system = build_geo_system(protocol, spec, WorkloadSpec(read_ratio=0.5),
                              **options)
    digest = run_digest(system)
    parts = [p for dc in system.datacenters for p in dc.resident_partitions()]
    digest["remote_applies"] = sum(p.remote_applies for p in parts)
    return digest, parts


def gst_case(protocol: str, placement, seed: int) -> dict:
    digest, parts = placed_case(protocol, placement, seed)
    digest["deferred_left"] = sum(p.pending_count() for p in parts)
    return digest


STORE_PROTOCOLS = (
    ("eunomia", "eunomia", dict()),
    ("eventual", "eventual", dict()),
    ("sseq", "sseq", dict()),
    ("sseq-chain3", "sseq", dict(chain_length=3)),
    ("aseq", "aseq", dict()),
)


def main() -> None:
    for label, args in rig_cases():
        print(label, json.dumps(rig_case(*args), sort_keys=True))
    for label, options in GEO_SHAPES:
        print("geo", label, json.dumps(geo_case(options), sort_keys=True))
    for protocol in ("gentlerain", "cure"):
        for label, placement in PLACEMENTS:
            for seed in (5, 6):
                print("gst", protocol, label, f"seed{seed}", json.dumps(
                    gst_case(protocol, placement, seed), sort_keys=True))
    for label, protocol, options in STORE_PROTOCOLS:
        for plabel, placement in PLACEMENTS:
            for seed in (5, 6):
                print("store", label, plabel, f"seed{seed}", json.dumps(
                    placed_case(protocol, placement, seed, **options)[0],
                    sort_keys=True))


if __name__ == "__main__":
    main()
