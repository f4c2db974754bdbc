#!/usr/bin/env python3
"""Failover drill: killing Eunomia replicas under live traffic.

Deploys EunomiaKV with a 3-replica fault-tolerant Eunomia in every
datacenter, then crashes dc1's leader replica — twice — while clients keep
writing.  The drill shows the paper's §3.3 story end to end:

* partitions keep streaming updates to *all* replicas (prefix property),
  so nothing is lost when a leader dies;
* the Ω failure detector elects the next replica, which resumes the site
  stabilization procedure from its own state;
* remote datacenters deduplicate the overlap the new leader re-ships;
* after quiescence, every datacenter converges to identical data and the
  recorded history passes the causal-consistency checker.

Act 2 repeats the drill with every replica sharded (Alg. 4 × K): the same
three replica groups per datacenter, each now a coordinator heading K=4
shards, and dc1's whole leader group (coordinator + 4 shards) is killed
mid-run through the same crash unit.  The drill then *asserts* that no stable op
was lost or duplicated at any remote site: every remote receiver must
have applied exactly one copy of every update committed elsewhere — a
duplicate apply would push the count over, a lost op would leave it
under — on top of convergence and the causal checker.

Act 3 goes beyond crash-stop: the K=4 × R=3 leader group is killed with
**state loss** (`crash(lose_state=True)`) — its unstable buffers,
PartitionTime, and merge queues are gone — and later *rejoins* through
the durability subsystem (`durability="wal"`): checkpoint + WAL-suffix
replay rebuilds each shard, a peer state transfer adopts the survivors'
shipped floors, and only then does the group re-enter the Ω election and
reclaim leadership.  The drill asserts the deduplicated stable stream is
**op-for-op identical** to a crash-free run of the same workload.

Run:
    python examples/failover_drill.py
"""

from repro import Calibration, EunomiaConfig, GeoSystemSpec, WorkloadSpec
from repro.checker import CausalChecker, SessionHistory
from repro.geo import build_geo_system
from repro.harness.loadgen import build_eunomia_rig
from repro.metrics import windowed_rate


def act1_unsharded() -> None:
    config = EunomiaConfig(
        fault_tolerant=True, n_replicas=3,
        replica_alive_interval=0.25, replica_suspect_timeout=0.8,
    )
    spec = GeoSystemSpec(n_dcs=3, partitions_per_dc=4, clients_per_dc=6,
                         seed=1717)
    history = SessionHistory()
    system = build_geo_system("eunomia", spec,
                              WorkloadSpec(read_ratio=0.75),
                              config=config, history=history)
    system.start()

    replicas = system.datacenters[0].replica_groups
    print(f"dc1 Eunomia group: {[r.name for r in replicas]}")
    system.env.loop.schedule_at(4.0, replicas[0].crash)
    system.env.loop.schedule_at(10.0, replicas[1].crash)
    print("crashing dc1's leader at t=4s and its successor at t=10s ...\n")

    system.run(16.0)
    system.quiesce(4.0)

    marks = system.metrics.mark_times(replicas[0].stable_mark)
    print("dc1 stabilization throughput (2 s windows):")
    for t, rate in windowed_rate(marks, 0.0, 16.0, 2.0):
        leader = "r0" if t < 4 else ("r1" if t < 10 else "r2")
        bar = "#" * int(rate / 40)
        print(f"  t={t:5.1f}s  {rate:7.1f} ops/s  [{leader}] {bar}")

    survivor = replicas[2]
    print(f"\nfinal dc1 leader        : {survivor.name} "
          f"(is_leader={survivor.is_leader()})")
    print(f"ops stabilized by group : "
          f"{sum(r.ops_stabilized for r in replicas)}")
    print(f"datacenters converged   : {system.converged()}")
    violations = CausalChecker(history).check()
    print(f"causal violations       : {len(violations)} "
          f"over {history.total_ops} client ops")


def act2_sharded() -> None:
    """Alg. 4 × K: kill a whole K=4-sharded leader replica group."""
    config = EunomiaConfig(
        n_shards=4, n_replicas=3, fault_tolerant=True,
        replica_alive_interval=0.25, replica_suspect_timeout=0.8,
    )
    spec = GeoSystemSpec(n_dcs=3, partitions_per_dc=4, clients_per_dc=6,
                         seed=2727)
    history = SessionHistory()
    system = build_geo_system("eunomia", spec,
                              WorkloadSpec(read_ratio=0.75),
                              config=config, history=history)
    system.start()

    dc0 = system.datacenters[0]
    groups = dc0.replica_groups
    print(f"dc1 sharded Eunomia groups: {[g.name for g in groups]} "
          f"(K=4 shards each)")
    system.env.loop.schedule_at(4.0, groups[0].crash)
    print("crashing dc1's whole leader group (coordinator + 4 shards) "
          "at t=4s ...\n")

    system.run(10.0)
    system.quiesce(4.0)

    marks = system.metrics.mark_times(groups[0].stable_mark)
    print("dc1 stabilization throughput (2 s windows):")
    for t, rate in windowed_rate(marks, 0.0, 10.0, 2.0):
        leader = "g0" if t < 4 else "g1"
        bar = "#" * int(rate / 40)
        print(f"  t={t:5.1f}s  {rate:7.1f} ops/s  [{leader}] {bar}")

    print(f"\nfinal dc1 leader        : {dc0.leader().name} "
          f"(group 1 leads: {groups[1].is_leader()})")
    print(f"datacenters converged   : {system.converged()}")
    violations = CausalChecker(history).check()
    print(f"causal violations       : {len(violations)} "
          f"over {history.total_ops} client ops")

    # The drill's contract: exactly-once delivery of the stable stream.
    # Every remote receiver must have applied each update committed in the
    # other datacenters exactly once, leader crash or not.
    for dc in system.datacenters:
        expected = sum(p.local_updates
                       for other in system.datacenters if other is not dc
                       for p in other.partitions)
        applied = dc.receiver.applied
        status = "ok" if applied == expected else "MISMATCH"
        print(f"dc{dc.dc_id + 1} remote applies     : {applied} "
              f"(expected {expected}, "
              f"{dc.receiver.duplicates_dropped} re-shipped dups dropped) "
              f"[{status}]")
        assert applied == expected, (
            f"dc{dc.dc_id}: {applied} applied vs {expected} committed "
            "remotely — a stable op was lost or duplicated")
    assert system.converged() and not violations
    print("exactly-once contract held: no stable op lost or duplicated")


def act3_amnesia_rejoin() -> None:
    """Kill the K=4 x R=3 leader group *with state loss*, then rejoin it.

    Two runs of the same seeded workload on the §7.1 rig: a crash-free
    reference, and one where the leader group suffers an amnesia crash at
    t=0.6s and rejoins at t=1.4s via WAL replay + peer state transfer.
    The contract asserted: the deduplicated delivered stable stream is
    op-for-op identical to the reference — durable recovery changes
    availability, never the serialization.
    """
    config = EunomiaConfig(
        n_shards=4, n_replicas=3, fault_tolerant=True,
        durability="wal", checkpoint_interval=0.25,
        replica_alive_interval=0.1, replica_suspect_timeout=0.35,
        state_transfer_timeout=0.3,
    )
    cal = Calibration()

    def collect(crash: bool):
        rig = build_eunomia_rig(8, config=config, calibration=cal, seed=4747)
        rig.sink.record = True
        if crash:
            group = rig.groups[0]
            rig.env.loop.schedule_at(
                0.6, lambda: group.crash(lose_state=True))
            rig.env.loop.schedule_at(1.4, group.recover)
        rig.run(2.4)
        for driver in rig.drivers:
            driver.stop()
        rig.env.run(until=rig.env.now + 1.6)   # drain + heartbeats stabilize
        return rig

    reference = collect(False)
    rig = collect(True)

    group = rig.groups[0]
    print("dc1 leader group: amnesia crash at t=0.6s, rejoin at t=1.4s")
    for report in rig.groups[0].recovery.reports:
        print(f"  restored {report.name}: {report.records_replayed} WAL "
              f"records -> {report.ops_rebuilt} buffered ops, floor "
              f"{report.floor} (checkpoint: {report.had_checkpoint})")
    shard = group.shards[0]
    print(f"  {shard.name} WAL: {shard.wal.commits} group commits, "
          f"{shard.wal.records_truncated} records truncated at checkpoints, "
          f"{shard.checkpoints.writes} checkpoints")

    seen, deduped = set(), []
    for uid in rig.sink.collected:            # Alg. 5 dedup, first copy wins
        if uid not in seen:
            seen.add(uid)
            deduped.append(uid)
    dups = len(rig.sink.collected) - len(deduped)
    print(f"\nstable stream: {len(deduped)} unique ops delivered "
          f"({dups} re-shipped duplicates dropped)")
    print(f"restored group leads    : {group.is_leader()}")
    assert group.is_leader(), "rejoined lowest-id group must reclaim Omega"
    assert deduped == reference.sink.collected, (
        "amnesia crash + rejoin changed the stable serialization")
    print("op-for-op contract held: deduplicated stable output identical "
          "to the crash-free run")


def act4_partition_and_gray_disk() -> None:
    """Chaos-style drill: isolate the Ω leader group (no crash — it keeps
    believing it leads), and degrade a survivor shard's WAL disk 20× for
    the same window.  The partitioned leader ships nothing; the survivors
    elect group 1, which stabilizes on through stalled group commits; the
    drivers' at-least-once uplinks re-deliver everything the old leader
    missed once the partition heals, and Ω's min-id tie-break hands
    leadership back.  Asserted: failover is bounded (stabilization resumes
    well inside one suspect window after the cut) and the deduplicated
    stable stream is op-for-op identical to a fault-free run.
    """
    from repro.sim.failure import FailureSchedule

    config = EunomiaConfig(
        n_shards=4, n_replicas=3, fault_tolerant=True,
        durability="wal", checkpoint_interval=0.25,
        replica_alive_interval=0.1, replica_suspect_timeout=0.35,
        state_transfer_timeout=0.3,
    )
    cal = Calibration()
    CUT, HEAL = 0.6, 1.4

    def collect(faulty: bool):
        rig = build_eunomia_rig(8, config=config, calibration=cal, seed=5757)
        rig.sink.record = True
        if faulty:
            leader = rig.groups[0]
            rest = [p for g in rig.groups[1:] for p in g.processes()]
            rest += list(rig.drivers) + [rig.sink]
            gray = rig.groups[1].shards[0].wal.disk
            fs = FailureSchedule(rig.env)
            fs.partition_at(CUT, leader.processes(), rest)
            fs.degrade_disk_at(CUT, gray, factor=20.0)
            fs.heal_at(HEAL, leader.processes(), rest)
            fs.restore_disk_at(HEAL, gray)
            fs.arm()
        rig.run(2.4)
        for driver in rig.drivers:
            driver.stop()
        rig.env.run(until=rig.env.now + 1.6)
        return rig

    reference = collect(False)
    rig = collect(True)
    leader = rig.groups[0]

    print(f"dc1 leader group isolated on [{CUT}s, {HEAL}s); "
          f"{rig.groups[1].shards[0].wal.name} disk 20x slower meanwhile")
    # Bounded failover: the longest stabilization stall anywhere in the
    # fault window (the isolated leader drains its buffer, then the site
    # is silent until the survivors' Ω suspects it and group 1 takes over).
    marks = [t for t in rig.metrics.mark_times("eunomia_stable:dc0")
             if CUT <= t <= HEAL]
    stall = max(b - a for a, b in zip([CUT] + marks, marks + [HEAL]))
    print(f"longest stabilization stall in the window: {stall:.3f}s "
          f"(suspect timeout {config.replica_suspect_timeout}s)")
    assert stall < 2 * config.replica_suspect_timeout, (
        "failover after leader isolation was not bounded")

    seen, deduped = set(), []
    for uid in rig.sink.collected:
        if uid not in seen:
            seen.add(uid)
            deduped.append(uid)
    dups = len(rig.sink.collected) - len(deduped)
    print(f"stable stream           : {len(deduped)} unique ops "
          f"({dups} re-shipped duplicates dropped)")
    print(f"healed group leads      : {leader.is_leader()}")
    assert leader.is_leader(), "healed min-id group must reclaim Omega"
    assert deduped == reference.sink.collected, (
        "partition + gray disk changed the stable serialization")
    print("exactly-once contract held: stream identical to the "
          "fault-free run")


def main() -> None:
    print("=== Act 1: Algorithm 4 failover (K=1, 3 replicas) ===")
    act1_unsharded()
    print("\n=== Act 2: sharded failover (Alg. 4 x K=4, 3 replica groups) "
          "===")
    act2_sharded()
    print("\n=== Act 3: amnesia crash -> WAL/checkpoint rejoin "
          "(K=4 x R=3, durability='wal') ===")
    act3_amnesia_rejoin()
    print("\n=== Act 4: leader-group partition + gray disk "
          "(chaos-style, no crash) ===")
    act4_partition_and_gray_disk()


if __name__ == "__main__":
    main()
