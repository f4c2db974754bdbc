"""Ablations of DESIGN.md's called-out design choices (§5, §6) plus the
sharded-stabilizer axis this repo adds on top of the paper.

Knobs the paper motivates but does not sweep in a numbered figure:

* **batching interval** — §7.1: "Eunomia's throughput can be further
  stretched by increasing the batching time (while slightly increasing the
  remote update visibility latency)"; the sweep shows exactly that
  dial;
* **separation of data and metadata** — §5: shipping values through Eunomia
  couples its load to value size; with separation its traffic is
  metadata-only;
* **propagation tree** — §5: interior relays coalesce the partition fan-in,
  cutting the message rate into the service;
* **shard count K** — beyond the paper: the sequential stabilizer split
  across K workers with a merging coordinator, swept under the overload
  methodology of §7.1 (emulated partitions driving the service straight to
  saturation, a remote sink charging the propagation cost);
* **unstable-op buffer** — beyond the paper: the run-aware buffer every
  stabilizer holds (O(1) monotone ingestion + k-way-merge FIND_STABLE)
  against the §6 tree buffer it replaced, swept over buffer × batch size ×
  partition count.
"""

import time

import pytest

from repro.calibration import Calibration
from repro.core import EunomiaConfig, TreeRelay
from repro.geo.system import GeoSystemSpec, build_geo_system
from repro.harness.loadgen import build_eunomia_rig
from repro.harness.report import format_table
from repro.metrics import percentile
from repro.workload import WorkloadSpec

SPEC = GeoSystemSpec(n_dcs=3, partitions_per_dc=4, clients_per_dc=6, seed=77)
WL = WorkloadSpec(read_ratio=0.9, n_keys=500)


def bench_batching_interval_sweep(benchmark):
    """Larger uplink batches: same throughput, higher visibility latency."""

    def sweep():
        rows = []
        for interval_ms in (1, 5, 20):
            config = EunomiaConfig(batch_interval=interval_ms / 1e3,
                                   heartbeat_interval=interval_ms / 1e3)
            system = build_geo_system("eunomia", SPEC, WL, config=config)
            system.run(4.0)
            rows.append((interval_ms, system.total_throughput(),
                         percentile(system.visibility_extra_ms(0, 1), 90)))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print(format_table(["batch_ms", "ops_s", "vis_p90_ms"], rows))
    vis = [v for _, _, v in rows]
    thpt = [t for _, t, _ in rows]
    assert vis[0] < vis[1] < vis[2]          # visibility pays for batching
    assert min(thpt) > 0.9 * max(thpt)       # throughput barely moves here


def bench_data_metadata_separation(benchmark):
    """§5: without separation, Eunomia's bytes scale with value size."""

    def compare():
        out = {}
        for separated in (True, False):
            config = EunomiaConfig(separate_data_metadata=separated)
            system = build_geo_system(
                "eunomia", SPEC,
                WorkloadSpec(read_ratio=0.9, n_keys=500, value_bytes=1000),
                config=config)
            system.run(3.0)
            eunomia = system.datacenters[0].heads[0]
            stable = eunomia.ops_stabilized
            thpt = system.total_throughput()
            out[separated] = (thpt, stable)
        return out

    out = benchmark.pedantic(compare, rounds=1, iterations=1)
    print()
    print(format_table(
        ["separated", "ops_s", "dc1_ops_stabilized"],
        [[k, v[0], v[1]] for k, v in out.items()]))
    # both modes do the ordering work; separation is about *bytes*, which
    # the wire accounting below asserts directly
    assert out[True][1] > 0 and out[False][1] > 0


def bench_metadata_bytes_independent_of_value_size(benchmark):
    """Direct §5 claim: Eunomia's inbound bytes don't grow with values."""
    from repro.kvstore.types import Update

    def wire_sizes():
        small = Update(key="k", value=None, origin_dc=0, partition_index=0,
                       seq=1, ts=1, vts=(1, 0, 0), value_bytes=100)
        large = Update(key="k", value=None, origin_dc=0, partition_index=0,
                       seq=1, ts=1, vts=(1, 0, 0), value_bytes=100_000)
        return small.metadata_bytes, large.metadata_bytes

    small, large = benchmark(wire_sizes)
    assert small == large


def bench_propagation_tree_fanin(benchmark):
    """§5 tree: ~8x fewer messages into Eunomia at fanout 8."""

    def run_tree():
        config = EunomiaConfig(use_propagation_tree=True, tree_fanout=8)
        rig = build_eunomia_rig(24, config=config, seed=9)
        rig.run(1.5)
        relays = [p for p in rig.service_processes
                  if isinstance(p, TreeRelay)]
        ratios = [r.compression_ratio() for r in relays]
        return rig.throughput(), ratios

    thpt, ratios = benchmark.pedantic(run_tree, rounds=1, iterations=1)
    print(f"\ntree rig: {thpt:.0f} ops/s, relay compression ratios "
          f"{[round(r, 1) for r in ratios]}")
    assert thpt > 0
    assert all(ratio > 3.0 for ratio in ratios)


def bench_opbuffer_sweep(benchmark):
    """RunBuffer vs the §6 tree buffer across batch size and partition
    count.

    The ingestion pattern is Algorithm 3's: randomly interleaved batches,
    monotone timestamps per partition, periodic FIND_STABLE drains.  The
    bar the run buffer was adopted on is asserted here too: ≥3× over the
    red–black tree at batch ≥ 8.
    """
    from bench_trees import monotone_batches, opbuffer_ingestion

    n_ops = 20_000

    def sweep():
        rows = []
        for n_parts in (4, 16, 64):
            for batch in (1, 8, 64):
                batches = monotone_batches(n_parts, batch, n_ops)
                stab_every = max(1, 400 // batch)
                cell = {}
                for backend in ("runs", "rbtree"):
                    best = min(
                        _timed(opbuffer_ingestion, backend, batches,
                               stab_every)
                        for _ in range(3))
                    cell[backend] = best
                rows.append((n_parts, batch,
                             round(cell["runs"] * 1e3, 2),
                             round(cell["rbtree"] * 1e3, 2),
                             round(cell["rbtree"] / cell["runs"], 2)))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print(format_table(
        ["n_parts", "batch", "runs_ms", "rbtree_ms", "speedup"],
        rows))
    # The acceptance bar — >=3x at batch >= 8 — is asserted at the
    # configuration of bench_opbuffer_ingestion (16 partitions);
    # other partition counts get a looser floor: the k-way-merge fan-in
    # grows with partition count, and their margins (~3.1x at 64 parts)
    # are too thin to hard-fail on noise.
    for n_parts, batch, _, _, speedup in rows:
        if batch < 8:
            continue
        floor = 3.0 if n_parts == 16 else 2.0
        assert speedup >= floor, (
            f"runs backend only {speedup}x over rbtree "
            f"(n_parts={n_parts}, batch={batch}, floor {floor}x)")


def _timed(fn, *args):
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def bench_durability_overhead_sweep(benchmark):
    """WAL durability cost across stabilizer shapes (durability × K × R).

    Each shape runs the §7.1 overload rig twice — crash-stop-with-perfect-
    memory (``durability="none"``) versus the write-ahead-log stack
    (``durability="wal"`` at the default checkpoint interval: per-op log
    staging on the ingest path, group-commit fsyncs + checkpoints on the
    disk lane, ack-after-fsync for the fault-tolerant shapes) — and reports
    the stabilization-throughput overhead of durability.  The acceptance
    bar: ≤ 15% at the default checkpoint interval for every shape,
    including the K=4 × R=3 composition the recovery drill crashes.
    """
    cal = Calibration(emulated_partition_gen_us=25.0)

    def run_shape(n_shards, n_replicas, durability):
        config = EunomiaConfig(n_shards=n_shards, n_replicas=n_replicas,
                               fault_tolerant=n_replicas > 1,
                               durability=durability)
        rig = build_eunomia_rig(24, config=config, calibration=cal, seed=13)
        rig.run(1.0)
        return rig.throughput()

    def sweep():
        rows = []
        for n_shards, n_replicas in ((1, 1), (1, 3), (4, 3)):
            plain = run_shape(n_shards, n_replicas, "none")
            durable = run_shape(n_shards, n_replicas, "wal")
            rows.append((n_shards, n_replicas, round(plain, 0),
                         round(durable, 0),
                         round(100.0 * (1.0 - durable / plain), 1)))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print(format_table(
        ["n_shards", "n_replicas", "none_ops_s", "wal_ops_s", "overhead_%"],
        rows))
    for n_shards, n_replicas, _, _, overhead in rows:
        assert overhead <= 15.0, (
            f"durability overhead {overhead}% at K={n_shards} R={n_replicas} "
            "exceeds the 15% bar (default checkpoint interval)")


def bench_shard_count_sweep(benchmark):
    """Sharded stabilization under overload: throughput must scale with K.

    48 emulated partitions generate ~4x what a single stabilizer can absorb
    (the fig-2/fig-6-style overload regime: offered load far above the
    service's saturation point).  Sweeping K ∈ {1, 2, 4, 8} shows
    stabilization throughput scaling near-linearly until the merging
    coordinator (cheap per-op forwards of pre-serialized runs) or the
    offered load caps it.
    """
    # Faster generators than the paper's ~6.2 kops/s drivers so 48 of them
    # overload even an 8-shard deployment within a short simulation.
    cal = Calibration(emulated_partition_gen_us=25.0)

    def sweep():
        rows = []
        for n_shards in (1, 2, 4, 8):
            config = EunomiaConfig(n_shards=n_shards)
            rig = build_eunomia_rig(48, config=config, calibration=cal,
                                    seed=11)
            rig.run(1.5)
            rows.append((n_shards, rig.throughput(), rig.sink.received))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    base = rows[0][1]
    print()
    print(format_table(
        ["n_shards", "stab_ops_s", "sink_ops", "speedup"],
        [[k, t, r, t / base] for k, t, r in rows]))
    by_k = {k: t for k, t, _ in rows}
    # stable ordering keeps flowing in every configuration
    assert all(t > 0 for t in by_k.values())
    # the acceptance bar: K=4 sustains at least 2x the K=1 stabilizer
    assert by_k[4] >= 2.0 * by_k[1]
    # and the axis is monotone through the scaling regime
    assert by_k[1] < by_k[2] < by_k[4] <= by_k[8] * 1.05
