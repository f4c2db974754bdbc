"""Chaos-matrix tests: the three closed stalls, schedule determinism, and
a smoke slice of the randomized matrix.

Each "stall closure" test pins one of the single-point failures the chaos
issue named, and asserts *bounded* recovery — not just eventual health:

* a dead/unreachable GST aggregator used to freeze its datacenter's GST
  forever; partitions now re-elect by round-robin view advance;
* a crashed sequencer (or chain link) used to strand every in-flight
  request; partitions now retry with backoff and chains repair around the
  dead link;
* a recovered Eunomia partition used to come back with a dead uplink,
  freezing the whole DC's StableTime; ``recover()`` now re-arms it.
"""

import pytest

from repro.checker import CausalChecker, SessionHistory
from repro.geo.system import GeoSystemSpec, build_geo_system
from repro.harness.loadgen import build_eunomia_rig
from repro.sim.failure import FailureSchedule
from repro.harness.chaos import (
    CHAOS_PLACEMENTS,
    ChaosSchedule,
    FaultEvent,
    _options_for,
    apply_schedule,
    run_case,
    run_exactly_once_drill,
    sample_schedule,
)
from repro.workload import WorkloadSpec

SPEC = GeoSystemSpec(n_dcs=2, partitions_per_dc=2, clients_per_dc=2, seed=31)
WL = WorkloadSpec(read_ratio=0.75, n_keys=32)


# ----------------------------------------------------------------------
# Stall closures
# ----------------------------------------------------------------------
def test_gst_aggregator_reelection_bounds_the_stall():
    """An unreachable aggregator loses office within 10 × gst_interval:
    the surviving partition elects itself, the GST keeps advancing while
    the old aggregator is cut off, and office converges back after heal."""
    system = build_geo_system("gentlerain", SPEC, WL)
    dc0 = system.datacenters[0]
    old, other = dc0.partitions[0], dc0.partitions[1]
    samples = {}
    fs = system.failures()
    fs.partition_at(0.8, [old], [other])
    fs.at(0.9, lambda: samples.__setitem__("cut", other.summary), label="s0")
    fs.at(1.3, lambda: samples.__setitem__("alone", other.summary), label="s1")
    fs.heal_at(1.4, [old], [other])
    system.run(2.4)
    # re-election happened, bounded: within [0.8, 1.3] the survivor took
    # office and advanced its GST without the old aggregator
    assert other.aggregator_failovers >= 1
    assert samples["alone"] > samples["cut"]
    # after heal the DC converges back onto the min-index aggregator
    assert other.aggregator_view == 0
    assert old.is_aggregator and not other.is_aggregator
    assert other.summary > samples["alone"]


def test_chain_repair_bounds_sequencer_outage():
    """Crash the chain head mid-run: survivors repair the chain and keep
    assigning numbers *during* the outage; requesters' retries make the
    client path exactly-once; everything still converges and stays causal."""
    history = SessionHistory()
    system = build_geo_system("sseq", SPEC, WL, history=history,
                              chain_length=3)
    head = system.datacenters[0].extras[0]
    fs = system.failures()
    fs.crash_at(0.8, head)
    fs.recover_at(1.6, head)
    system.run(2.4)
    system.quiesce(2.5)
    # bounded recovery: assignments resumed while the head was still down
    # (repair window = suspect_timeout 0.16s + one retry round ≲ 0.3s)
    resumed = [t for t in system.metrics.mark_times("seq_assigned:dc0")
               if 1.2 < t < 1.6]
    assert resumed, "no assignments during the outage: chain never repaired"
    retries = sum(p.seq_retries for p in system.datacenters[0].partitions)
    assert retries > 0
    assert system.converged()
    checker = CausalChecker(history)
    assert checker.check() == []
    assert checker.check_write_read_pairs() == []


def test_plain_sequencer_crash_recovers_via_retries():
    """Without a chain, a crashed sequencer stalls its DC only until it
    recovers: partition retries (deduplicated at the sequencer) re-drive
    every lost request instead of stranding clients forever."""
    history = SessionHistory()
    system = build_geo_system("sseq", SPEC, WL, history=history)
    seq = system.datacenters[0].extras[0]
    fs = system.failures()
    fs.crash_at(0.8, seq)
    fs.recover_at(1.2, seq)
    system.run(2.2)
    system.quiesce(2.5)
    after = [t for t in system.metrics.mark_times("seq_assigned:dc0")
             if t > 1.2]
    assert after, "sequencer never served again after recovery"
    assert sum(p.seq_retries for p in system.datacenters[0].partitions) > 0
    assert system.converged()
    assert CausalChecker(history).check() == []


def test_eunomia_partition_recovery_rearms_uplink():
    """A recovered Eunomia partition must restart its uplink: before the
    fix the DC's StableTime (min over per-partition batch clocks) froze
    forever, killing stabilization for the whole datacenter even though
    every other partition kept shipping."""
    rig = build_eunomia_rig(n_partitions=4)
    victim = rig.drivers[1]
    fs = FailureSchedule(rig.env)
    fs.crash_at(0.8, victim)
    fs.recover_at(1.2, victim)
    fs.arm()
    rig.run(2.4)
    stable = rig.metrics.mark_times("eunomia_stable:dc0")
    frozen = [t for t in stable if 1.0 < t <= 1.2]
    late = [t for t in stable if t > 1.5]
    assert not frozen, "StableTime advanced without the crashed partition"
    assert late, ("DC StableTime froze after partition recovery: "
                  "uplink was not re-armed")


# ----------------------------------------------------------------------
# Schedule determinism & serialization
# ----------------------------------------------------------------------
def test_sampled_schedules_are_deterministic_and_serializable():
    a = sample_schedule("eunomia", 42)
    b = sample_schedule("eunomia", 42)
    assert a == b
    assert a != sample_schedule("eunomia", 43)
    assert a != sample_schedule("sseq", 42)
    assert ChaosSchedule.from_json(a.to_json()) == a


def test_clock_mode_axis_is_deterministic_and_post_event():
    """The hybrid-vs-physical clock axis: sampled deterministically, both
    modes reachable, and drawn *after* the event draws — so a seed's fault
    stream is exactly what the pre-axis sampler produced."""
    a = sample_schedule("gentlerain", 1000)
    assert a.clock_mode in ("hybrid", "physical")
    assert a.clock_mode == sample_schedule("gentlerain", 1000).clock_mode
    modes = {sample_schedule("gentlerain", s).clock_mode
             for s in range(1000, 1012)}
    assert modes == {"hybrid", "physical"}
    # pre-axis JSON artifacts (no clock_mode/placement keys) still replay
    import json
    raw = json.loads(a.to_json())
    del raw["clock_mode"], raw["placement"]
    old = ChaosSchedule.from_json(json.dumps(raw))
    assert old.events == a.events
    assert (old.clock_mode, old.placement) == ("hybrid", "full")


def test_physical_clock_mode_case_passes_oracles():
    base = sample_schedule("gentlerain", 1000)
    forced = ChaosSchedule(protocol=base.protocol, seed=base.seed,
                           events=base.events, clock_mode="physical")
    result = run_case(forced)
    assert result.ok, result.failures


# ----------------------------------------------------------------------
# Region outages (partial placement only)
# ----------------------------------------------------------------------
def test_region_outage_sampling_targets_only_island_dcs():
    """Full placement never samples a region outage; the island placement
    does, and only ever aims it at the island DC (dc2), whose loss drops
    no inter-DC replication stream."""
    full_classes = {e.cls for s in range(1000, 1020)
                    for e in sample_schedule("cure", s).events}
    assert "region_outage" not in full_classes
    outages = [e for s in range(1000, 1020)
               for e in sample_schedule("cure", s,
                                        placement="island").events
               if e.cls == "region_outage"]
    assert outages, "island placement never sampled a region outage"
    assert {e.params["dc"] for e in outages} == {2}


def test_region_outage_island_converges_after_heal():
    """Crash every process in the island DC mid-run: forwarded clients
    retry through the outage, the island recovers, and all oracles —
    causal checks, placement routing, per-partition convergence, post-heal
    progress — hold."""
    schedule = ChaosSchedule(
        protocol="eunomia", seed=7, placement="island",
        events=[FaultEvent("region_outage", 0.6, 1.0, {"dc": 2})])
    result = run_case(schedule)
    assert result.ok, result.failures
    assert any(line.startswith("crash dc2/") for line in result.fired)
    assert any(line.startswith("recover dc2/") for line in result.fired)


def test_region_outage_rearms_island_stabilizers():
    """The outage recovers stabilizer *replica groups* (the one rejoin
    path), not their member processes one by one: a stabilizer brought
    back by a bare ``Process.recover`` has no θ tick, no Ω broadcasts and
    no checkpoint tick, so the island's StableTime froze at the crash and
    nothing it committed afterwards was ever stabilized — unnoticed,
    because nobody consumes an island's outbound stream."""
    spec = GeoSystemSpec(n_dcs=3, partitions_per_dc=4, clients_per_dc=2,
                         seed=7, placement=CHAOS_PLACEMENTS["island"],
                         client_retry=0.25)
    system = build_geo_system("eunomia", spec,
                              WorkloadSpec(read_ratio=0.75, n_keys=48),
                              **_options_for("eunomia", "island"))
    apply_schedule(system, ChaosSchedule(
        protocol="eunomia", seed=7, placement="island",
        events=[FaultEvent("region_outage", 0.6, 1.0, {"dc": 2})]))
    island = system.datacenters[2]

    def stabilized():
        return sum(head.ops_stabilized for head in island.heads)

    system.run(1.1)                     # healed at 1.0
    floor, before = island.stable_time_us(), stabilized()
    system.run(1.1)
    assert not any(proc.crashed for proc in island.extras)
    assert island.stable_time_us() > floor, (
        "island StableTime frozen after the outage healed")
    assert stabilized() > before, (
        "island stabilized nothing after the outage healed")


def test_region_outage_rejects_replicated_region():
    """A DC whose partitions replicate elsewhere loses in-flight streams
    unrecoverably when the whole region crashes — the resolver refuses."""
    schedule = ChaosSchedule(
        protocol="gentlerain", seed=7, placement="island",
        events=[FaultEvent("region_outage", 0.6, 1.0, {"dc": 0})])
    with pytest.raises(ValueError, match="island"):
        run_case(schedule)


@pytest.mark.parametrize("protocol", ["eventual", "gentlerain"])
def test_failure_log_repeats_for_a_seed(protocol):
    """The same fault schedule and seed produce the identical (time, label)
    log, one entry per action."""
    def run():
        spec = GeoSystemSpec(n_dcs=2, partitions_per_dc=2, clients_per_dc=2,
                             seed=17)
        system = build_geo_system(protocol, spec, WL)
        victim = system.datacenters[0].partitions[1]
        other = system.datacenters[1].partitions[0]
        fs = system.failures()
        fs.crash_at(0.5, victim)
        fs.partition_at(0.6, [victim], [other], symmetric=False)
        fs.clock_drift_at(0.7, other.clock, 150.0, step_us=80.0)
        fs.recover_at(0.9, victim)
        fs.heal_at(1.0, [victim], [other])
        if system.ntp is not None:
            fs.ntp_outage(0.4, 1.1, system.ntp)
        system.run(1.5)
        return list(fs.log)

    log = run()
    assert log == run()
    assert len(log) == 7


# ----------------------------------------------------------------------
# Matrix smoke slice (the full 20-seed matrix runs in the chaos CI job)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("protocol", ["gentlerain", "sseq"])
def test_chaos_case_smoke(protocol):
    result = run_case(sample_schedule(protocol, 1000))
    assert result.ok, result.failures
    assert result.fired            # the schedule actually injected faults


def test_exactly_once_drill_smoke():
    assert run_exactly_once_drill(0) == []
