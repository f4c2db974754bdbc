"""Partial geo-replication, pinned by equivalence tests.

Three layers of guarantees, each tested here:

1. **Full placement is bit-for-bit the old spine.**  ``placement="full"``
   must reproduce every protocol's pre-placement golden digest exactly —
   the placement map, forwarding tables, and placement-aware stable cut
   are provably inert until a partial shape is requested.
2. **Restriction equivalence.**  A partial deployment's stable output is
   the full deployment's output *restricted* to the partitions it stores:
   same ops, same (ts, origin, seq) order, nothing extra, nothing
   stalled.  Checked pipeline-level (injected deterministic timelines
   into the Eunomia stabilizer stack, and injected remote streams into a
   GentleRain partition), because end-to-end forwarding legitimately
   changes HLC stamps and LWW winners.
3. **Forwarding correctness end to end.**  Non-resident operations
   round-trip through the nearest resident DC, survive network partitions
   with client retries, keep every causal session guarantee, and are
   always served by a resident DC (``check_placement_routing``); the
   stable cut never stalls on zero-overlap origins.
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.calibration import Calibration
from repro.checker import CausalChecker, SessionHistory
from repro.clocks.physical import PhysicalClock
from repro.core import EunomiaConfig, build_stabilizer_stack
from repro.core.messages import AddOpBatch, PartitionHeartbeat, RemoteData
from repro.core.placement import PLACEMENT_POLICIES, PlacementMap
from repro.core.protocols import available_protocols
from repro.baselines.gst import (
    UNTRACKED,
    CurePartition,
    GentleRainPartition,
    GstTimings,
)
from repro.geo.system import GeoSystemSpec, build_geo_system
from repro.harness.goldens import (
    GOLDEN_SPEC,
    GOLDEN_WORKLOAD,
    run_fingerprint,
)
from repro.kvstore.ring import ConsistentHashRing
from repro.kvstore.types import Update
from repro.sim import ConstantLatency, Environment, Network, Process
from repro.workload import WorkloadSpec

GOLDENS = json.loads(
    (Path(__file__).parent / "golden" / "baseline_goldens.json").read_text())
STRICT_FIELDS = ("fingerprints", "snapshot_sha", "stable_sha",
                 "vis_sorted_sha", "ops", "converged")

#: one DC (dc2) is an island: overlaps nobody, forwards 0/1, serves 2/3
ISLAND = "dc0=0,1;dc1=0,1;dc2=2,3"
#: every partition has exactly one home; every DC forwards something
SPARSE = "stride:1"


# ----------------------------------------------------------------------
# PlacementMap unit behaviour
# ----------------------------------------------------------------------
class TestPlacementMap:
    def test_full_is_canonical_and_inert(self):
        pmap = PlacementMap.full(3, 4)
        assert pmap.is_full()
        assert PlacementMap.from_spec(3, 4, None) == pmap
        assert PlacementMap.from_spec(3, 4, "full") == pmap
        assert pmap.island_dcs() == ()

    def test_spec_string_round_trips(self):
        pmap = PlacementMap.from_spec(3, 4, ISLAND)
        assert PlacementMap.from_spec(3, 4, pmap.describe()) == pmap
        assert pmap.resident_partitions(2) == (2, 3)
        assert pmap.residents(0) == (0, 1)
        assert not pmap.overlaps(0, 2)
        assert pmap.island_dcs() == (2,)

    def test_stride_covers_everything(self):
        pmap = PlacementMap.stride(3, 6, copies=2)
        for p in range(6):
            assert len(pmap.residents(p)) == 2
        for dc in range(3):
            assert pmap.resident_partitions(dc)

    def test_orphan_partition_rejected(self):
        with pytest.raises(ValueError, match="resident nowhere"):
            PlacementMap.from_spec(2, 3, {0: [0, 1], 1: [0]})

    def test_empty_dc_rejected(self):
        with pytest.raises(ValueError, match="storing nothing"):
            PlacementMap.from_spec(2, 2, {0: [0, 1], 1: []})

    def test_nearest_resident_prefers_self_then_rtt(self):
        pmap = PlacementMap.from_spec(3, 4, ISLAND)
        spec = GeoSystemSpec(n_dcs=3, partitions_per_dc=4)
        rtt = spec.topology()
        assert pmap.nearest_resident(0, 1, rtt) == 0     # resident: stay home
        target = pmap.nearest_resident(2, 0, rtt)        # forwarded
        assert target in (0, 1)
        assert rtt.one_way_s(2, target) == min(
            rtt.one_way_s(2, d) for d in pmap.residents(0))


def test_policy_knob_names_are_exported():
    assert PLACEMENT_POLICIES == ("full", "stride")


# ----------------------------------------------------------------------
# Layer 1: placement="full" is bit-for-bit the pre-placement spine
# ----------------------------------------------------------------------
def test_every_registered_protocol_has_a_golden():
    assert set(available_protocols()) == {g["protocol"] for g in GOLDENS}


@pytest.mark.parametrize(
    "golden", GOLDENS, ids=lambda g: f"{g['protocol']}-seed{g['seed']}")
def test_explicit_full_placement_reproduces_goldens(golden):
    spec = GeoSystemSpec(seed=golden["seed"], placement="full",
                         **GOLDEN_SPEC)
    system = build_geo_system(golden["protocol"], spec,
                              WorkloadSpec(**GOLDEN_WORKLOAD))
    system.run(2.0)
    system.quiesce(2.5)
    fresh = run_fingerprint(system)
    for field in STRICT_FIELDS:
        assert fresh[field] == golden[field], (
            f"{golden['protocol']}/seed{golden['seed']}: {field} drifted "
            f"under placement='full'")


# ----------------------------------------------------------------------
# Layer 2a: Eunomia stack restriction equivalence (pipeline level)
# ----------------------------------------------------------------------
def _make_op(ts, partition, seq):
    return Update(key=f"k{ts}", value=None, origin_dc=0,
                  partition_index=partition, seq=seq, ts=ts, vts=(ts,),
                  commit_time=0.0)


class _StableSink(Process):
    def __init__(self, env):
        super().__init__(env, "sink", site=1)
        self.ops = []

    def on_remote_stable_batch(self, msg, src):
        self.ops.extend(msg.ops)


class _AckFeeder(Process):
    def on_batch_ack(self, msg, src):
        pass


def run_stack(ts_by_partition, indices, n_shards):
    """Feed fixed per-partition timelines into one DC's stabilizer stack
    (restricted to ``indices`` when not None) and return the delivered
    stable serialization as (partition, uid) pairs."""
    env = Environment(seed=11)
    Network(env, ConstantLatency(0.0001))
    n_parts = len(ts_by_partition)
    config = EunomiaConfig(stabilization_interval=0.004, n_shards=n_shards)
    config.validate()
    stack = build_stabilizer_stack(env, 0, n_parts, config, Calibration(),
                                   indices=indices)
    sink = _StableSink(env)
    for propagator in stack.propagators():
        propagator.add_destination(sink)
    for proc in stack.processes():
        proc.start()
    feeder = _AckFeeder(env, "feeder")
    fed = list(range(n_parts)) if indices is None else sorted(indices)
    top = 0
    for p in fed:
        ops = [_make_op(ts, p, seq=i + 1)
               for i, ts in enumerate(ts_by_partition[p])]
        if ops:
            top = max(top, ops[-1].ts)
            batch = AddOpBatch(p, tuple(ops), prev_ts=0)
            for target in stack.uplink_targets(p):
                feeder.send(target, batch)
    for p in fed:
        beat = PartitionHeartbeat(p, top + 1)
        for target in stack.uplink_targets(p):
            feeder.send(target, beat)
    env.run(until=0.5)
    return [(op.partition_index, op.uid) for op in sink.ops]


stack_timelines = st.lists(
    st.lists(st.integers(min_value=1, max_value=400),
             min_size=0, max_size=12),
    min_size=3, max_size=6,
).map(lambda per_part: [sorted(set(ts)) for ts in per_part])


@settings(max_examples=15, deadline=None)
@given(timelines=stack_timelines, data=st.data())
def test_stack_restriction_equivalence(timelines, data):
    """The resident-only stable cut is a *restriction*: for any timeline
    set and any resident subset, the partial stack (K-sharded included)
    emits exactly the full stack's serialization filtered to resident
    partitions — same ops, same order, no stall on absent partitions."""
    n_parts = len(timelines)
    resident = sorted(data.draw(
        st.sets(st.integers(min_value=0, max_value=n_parts - 1),
                min_size=1, max_size=n_parts),
        label="resident"))
    n_shards = min(data.draw(st.sampled_from([1, 2, 3]), label="shards"),
                   len(resident))
    full = run_stack(timelines, indices=None, n_shards=1)
    partial = run_stack(timelines, indices=resident, n_shards=n_shards)
    assert partial == [(p, uid) for p, uid in full if p in resident]


def test_stack_restriction_equivalence_pinned():
    """One deterministic K-sharded instance of the property (no shrink
    budget needed to debug a regression)."""
    timelines = [[10, 30, 50], [20, 40], [15, 35, 55], [25, 45]]
    full = run_stack(timelines, indices=None, n_shards=1)
    partial = run_stack(timelines, indices=[0, 2, 3], n_shards=2)
    assert partial == [(p, uid) for p, uid in full if p in (0, 2, 3)]
    assert {p for p, _ in partial} == {0, 2, 3}


# ----------------------------------------------------------------------
# Layer 2b: GST restriction equivalence + no-stall (pipeline level)
# ----------------------------------------------------------------------
class _RecordingGR(GentleRainPartition):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.installed = []

    def _install(self, items):
        self.installed.extend(update.uid for update, _ in items)
        super()._install(items)


def drive_gst_partition(tracked, origin1_present):
    """One GentleRain partition at dc0 (3-DC world), self-aggregating.
    Origin 2 streams updates + a heartbeat; origin 1 sends heartbeats
    only when present (the full-replication world).  Returns the
    partition after the run."""
    env = Environment(seed=5)
    Network(env, ConstantLatency(0.0001))
    part = _RecordingGR(env, "p0", dc_id=0, index=0, n_dcs=3,
                        clock=PhysicalClock(env), timings=GstTimings())
    part.local_partitions = [part]      # single-partition DC roster
    part.aggregator = part
    part.tracked = tracked
    part.start()
    feeder = Process(env, "feeder", site=2)
    for i, ts in enumerate((1000, 2000, 3000)):
        feeder.send(part, RemoteData(_make_op_from(ts, origin=2, seq=i + 1)))
    from repro.baselines.messages import GstHeartbeat
    feeder.after(0.01, lambda: feeder.send(part, GstHeartbeat(2, 0, 4000)))
    if origin1_present:
        feeder.after(0.01, lambda: feeder.send(part, GstHeartbeat(1, 0, 4000)))
    env.run(until=0.2)
    return part


def _make_op_from(ts, origin, seq):
    return Update(key=f"k{ts}", value=None, origin_dc=origin,
                  partition_index=0, seq=seq, ts=ts, vts=(ts,),
                  commit_time=0.0)


def test_gst_tracked_cut_restricts_and_does_not_stall():
    """The placement-aware GST cut: a partition whose index dc1 does not
    store (tracked = {0, 2}) installs exactly what the full-replication
    partition installs from the origins that exist — and does so without
    dc1's heartbeats, while the untracked-and-silent origin pins the
    *full* partition's GST at zero forever (the stall the cut removes)."""
    full = drive_gst_partition(tracked=None, origin1_present=True)
    partial = drive_gst_partition(tracked=(0, 2), origin1_present=False)
    assert full.installed, "full run installed nothing - harness broken"
    assert partial.installed == full.installed
    assert partial.summary[0] >= 4000
    assert partial.pending_count() == 0
    # and the counterfactual: without the tracked cut, the silent origin
    # stalls visibility forever
    stalled = drive_gst_partition(tracked=None, origin1_present=False)
    assert stalled.installed == []
    assert stalled.pending_count() == 3


def test_cure_untracked_origins_report_sentinel():
    env = Environment(seed=5)
    Network(env, ConstantLatency(0.0001))
    part = CurePartition(env, "p0", dc_id=0, index=0, n_dcs=3,
                         clock=PhysicalClock(env), timings=GstTimings())
    part.vv = [7, 0, 9]
    assert part._local_summary() == (7, 0, 9)
    part.tracked = (0, 2)
    assert part._local_summary() == (7, UNTRACKED, 9)
    # an arbitrarily large dependency on the untracked origin releases
    # unconditionally once the GSV entry is the sentinel (nothing from
    # that origin can be resident here, so the entry is vacuous)
    part.summary = (7, UNTRACKED, 9)
    dep = Update(key="k", value=None, origin_dc=2, partition_index=0,
                 seq=1, ts=5, vts=(0, 10 ** 9, 5), commit_time=0.0)
    assert part._releasable(dep)
    blocked = Update(key="k", value=None, origin_dc=2, partition_index=0,
                     seq=2, ts=10, vts=(0, 0, 10), commit_time=0.0)
    assert not part._releasable(blocked)   # tracked entries still gate


# ----------------------------------------------------------------------
# Layer 3: forwarding, end to end
# ----------------------------------------------------------------------
def _run_partial(protocol, placement, seed=1234, client_retry=None,
                 run_for=1.2, drain=2.2, **options):
    spec = GeoSystemSpec(n_dcs=3, partitions_per_dc=4, clients_per_dc=2,
                         seed=seed, placement=placement,
                         client_retry=client_retry)
    history = SessionHistory()
    system = build_geo_system(protocol, spec, WorkloadSpec(read_ratio=0.5),
                              history=history, **options)
    system.run(run_for)
    system.quiesce(drain)
    return system, history


def _protocol_options(protocol, placement):
    if protocol != "eunomia":
        return {}
    # K-sharded where the shape allows it: a shard must own >= 1 of the
    # DC's resident partitions, so K is capped by the thinnest DC.
    pmap = PlacementMap.from_spec(3, 4, placement)
    thinnest = min(len(pmap.resident_partitions(d)) for d in range(3))
    return {"config": EunomiaConfig(n_shards=min(2, thinnest))}


PARTIAL_PROTOCOLS = ["eunomia", "gentlerain", "cure", "sseq", "eventual"]


@pytest.mark.parametrize("protocol", PARTIAL_PROTOCOLS)
@pytest.mark.parametrize("placement", [ISLAND, SPARSE],
                         ids=["island", "sparse"])
def test_partial_run_is_causal_routed_and_converges(protocol, placement):
    """Every protocol under two partial shapes: sessions stay causal
    through forwarding, every op lands on a resident DC, and every
    partition converges across exactly its resident DCs."""
    system, history = _run_partial(protocol, placement,
                                   **_protocol_options(protocol, placement))
    assert history.total_ops > 0
    assert system.converged()
    checker = CausalChecker(history)
    assert checker.check() == []
    assert checker.check_write_read_pairs() == []
    assert checker.check_placement_routing(
        system.placement, ConsistentHashRing(4)) == []
    # forwarding actually happened: some op was served away from home
    forwarded = [r for c in history.clients() for r in history.session(c)
                 if r.served_by is not None
                 and r.served_by != int(c[2])]     # "dcN/clientM"
    assert forwarded, "no op was forwarded under a partial placement"


def test_forwarded_write_is_read_back():
    """Read-your-writes across a forwarding hop: with think-less clients
    on the sparse shape, every client's own written values reappear on
    its subsequent reads of the same key (the session checker enforces
    the general property; this pins the concrete round-trip)."""
    spec = GeoSystemSpec(n_dcs=3, partitions_per_dc=4, clients_per_dc=1,
                         seed=1234, placement=SPARSE)
    history = SessionHistory()
    system = build_geo_system("gentlerain", spec,
                              WorkloadSpec(read_ratio=0.5, n_keys=8),
                              history=history)
    system.run(1.2)
    system.quiesce(2.2)
    seen_roundtrip = False
    for client in history.clients():
        written = {}
        for r in history.session(client):
            if r.kind == "update":
                written[r.key] = r.value
            elif r.key in written and r.value == written[r.key]:
                home = int(client[2])
                if r.served_by != home:
                    seen_roundtrip = True
    assert seen_roundtrip, "no forwarded write/read round-trip observed"


def test_forwarding_survives_partition_with_retries():
    """Cut the island DC's clients off from every forwarding target
    mid-run: retries bridge the outage, sessions resume after heal, and
    all oracles still pass."""
    spec = GeoSystemSpec(n_dcs=3, partitions_per_dc=4, clients_per_dc=2,
                         seed=909, placement=ISLAND, client_retry=0.2)
    history = SessionHistory()
    system = build_geo_system("gentlerain", spec,
                              WorkloadSpec(read_ratio=0.5), history=history)
    island_clients = [c for c in system.clients if c.dc_id == 2]
    targets = [dc.partitions[i] for dc in system.datacenters[:2]
               for i in (0, 1)]
    fs = system.failures()
    fs.partition_at(0.5, island_clients, targets)
    fs.heal_at(1.0, island_clients, targets)
    system.run(1.8)
    system.quiesce(2.2)
    assert sum(c.retries for c in island_clients) > 0
    post_heal = [r for c in history.clients() for r in history.session(c)
                 if c.startswith("dc2/") and r.time > 1.1]
    assert post_heal, "island sessions never resumed after heal"
    assert system.converged()
    checker = CausalChecker(history)
    assert checker.check() == []
    assert checker.check_placement_routing(
        system.placement, ConsistentHashRing(4)) == []


@pytest.mark.parametrize("protocol,options",
                         [("eunomia", {"config": EunomiaConfig(n_shards=2)}),
                          ("gentlerain", {}), ("sseq", {})],
                         ids=["eunomia", "gentlerain", "sseq"])
def test_zero_overlap_origins_do_not_stall(protocol, options):
    """The island DC shares no partition with anyone: its stable cut must
    advance on local input alone, and the mainland receivers/partitions
    must drain completely — no queue waits on an origin that never
    sends."""
    system, history = _run_partial(protocol, ISLAND, **options)
    assert system.converged()
    for dc in system.datacenters:
        if dc.receiver is not None:
            backlog = sum(len(q) for q in dc.receiver.queues.values())
            assert backlog == 0, (
                f"dc{dc.dc_id} receiver holds {backlog} undelivered updates")
        for part in dc.resident_partitions():
            if hasattr(part, "pending_count"):
                assert part.pending_count() == 0
            if hasattr(part, "summary"):
                assert part.summary[0] > 0, (
                    f"dc{dc.dc_id}/p{part.index} stable summary never "
                    f"advanced - zero-overlap stall")
