"""Cross-protocol failure scenarios over the shared spine.

Before the single-spine refactor the baselines deployed over their own
frame, cut off from :class:`repro.sim.failure.FailureSchedule` — a
baseline under a crash schedule was unbuildable.  Now any protocol's
processes are schedulable through ``system.failures()``; these tests
crash and recover baseline *partitions* mid-run and assert the stores
keep their promises:

* **eventual** — a crash-stop partition loses the remote updates shipped
  while it was down (no recovery log), but the protocol promises nothing
  about them; sessions never observe a violation.
* **GentleRain** — the crashed partition's stale report freezes the
  datacenter-wide GST (the min spans *all* partitions), stalling remote
  visibility; on recovery its periodic machinery re-arms, the GST thaws
  past the freeze point, and every recorded session still satisfies the
  causal session guarantees.

One liveness case runs over five protocols: a 200 ms crash-stop of one
storage partition must not stop the *other* partitions of its datacenter
from installing remote updates.  It holds for the all-to-all stores and is
a strict ``xfail`` for the two receiver-fed ones (``eunomia``, ``sseq``),
where the receiver's in-flight ``ApplyRemote`` dies with the partition and
nothing re-releases it.  Re-releasing it is not enough.  With the receiver
sending its in-flight ``ApplyRemote`` messages to the victim again 0.1 ms
after the recovery:

* ``eunomia`` installs both heads (their §5 payloads were held), then
  wedges on each origin's next update: that update's ``RemoteData`` landed
  during the outage and was dropped, and the victim's ``_pending_apply``
  ends holding 2;
* ``sseq`` wedges at once: the heads' payloads were never held.

What flips the marks is a reliable ``ApplyRemote`` + payload hop: both
the receiver's releases and the §5 payloads resent until acknowledged.
The two strict xfails of ``test_partition_crash_leaves_its_datacenter_live``
turn into failures (and must be unmarked) the day it lands.

The chain-replicated sequencer test exercises the other new cross-
protocol axis: ``chain_length`` builds the §7.1 fault-tolerant sequencer
as a full end-to-end deployment on the same spine.
"""

import pytest
from mutants import MUTANTS

from repro.checker import CausalChecker, SessionHistory
from repro.geo.system import GeoSystemSpec, build_geo_system
from repro.workload import WorkloadSpec

SPEC = GeoSystemSpec(n_dcs=3, partitions_per_dc=2, clients_per_dc=3, seed=23)
WL = WorkloadSpec(read_ratio=0.75, n_keys=48)

CRASH_AT, RECOVER_AT = 0.8, 1.6


def run_with_partition_crash(protocol, **kwargs):
    history = SessionHistory()
    system = build_geo_system(protocol, SPEC, WL, history=history, **kwargs)
    # partition 1 of dc0: not the GST aggregator (index 0), so the
    # datacenter keeps aggregating — from a stale report — while it's down
    victim = system.datacenters[0].partitions[1]
    schedule = system.failures()
    schedule.crash_at(CRASH_AT, victim)
    schedule.recover_at(RECOVER_AT, victim)
    probes = {}
    schedule.at(RECOVER_AT - 0.01,
                lambda: probes.__setitem__("summary", getattr(
                    victim, "summary", None)),
                label="probe summary before recovery")
    system.run(3.5)
    system.quiesce(2.5)
    return system, history, victim, probes


def test_eventual_survives_partition_crash():
    system, history, victim, _ = run_with_partition_crash("eventual")
    assert [(t, label) for t, label in system.failures().log
            if not label.startswith("probe")] == [
        (CRASH_AT, f"crash {victim.name}"),
        (RECOVER_AT, f"recover {victim.name}"),
    ]
    assert not victim.crashed
    assert system.total_throughput() > 0
    # sessions on the surviving partitions kept completing operations
    # throughout the outage and after recovery
    assert any(r.time > RECOVER_AT for c in history.clients()
               for r in history.session(c))
    # eventual exposes no causal metadata, so there is nothing to violate —
    # but the recorded histories must still be internally consistent
    assert CausalChecker(history).check() == []
    assert CausalChecker(history).check_write_read_pairs() == []


def test_gentlerain_survives_partition_crash():
    system, history, victim, probes = run_with_partition_crash("gentlerain")
    assert not victim.crashed
    assert system.total_throughput() > 0
    checker = CausalChecker(history)
    assert checker.check() == []
    assert checker.check_write_read_pairs() == []
    # the victim resumed stabilization: its GST advanced past the value it
    # held when recovery fired (periodics re-armed by GstPartition.recover)
    assert victim.summary > probes["summary"]
    # and remote updates deferred behind the frozen GST did drain — in
    # every DC, as the victim's sibling heartbeats resumed and thawed the
    # remote GSTs its silence had pinned
    assert all(partition.pending_count() == 0
               for dc in system.datacenters for partition in dc.partitions)


def test_the_gst_thaw_test_kills_a_recover_that_skips_restart():
    with MUTANTS["gst_recover_skips_restart"].applied():
        with pytest.raises(AssertionError):
            test_gentlerain_survives_partition_crash()


def test_gentlerain_gst_stall_is_bounded_by_report_timeout():
    """The datacenter-wide min cannot advance past a dead partition's last
    report — but only until the aggregator's freshness gate expires that
    report (``_aggregator_timeout()``, 10 × gst_interval = 50 ms).
    The unbounded freeze used to be GentleRain's failure mode; now the
    stall is bounded and the GST resumes while the partition is still down."""
    system = build_geo_system("gentlerain", SPEC, WL)
    victim = system.datacenters[0].partitions[1]
    sibling = system.datacenters[0].partitions[0]
    samples = {}
    schedule = system.failures()
    schedule.crash_at(CRASH_AT, victim)
    # Within the freshness window the dead partition's stale report pins
    # the min: the GST is genuinely frozen.
    schedule.at(CRASH_AT + 0.015,
                lambda: samples.__setitem__("early", sibling.summary),
                label="sample frozen GST")
    schedule.at(CRASH_AT + 0.045,
                lambda: samples.__setitem__("pinned", sibling.summary),
                label="sample GST still frozen")
    # Past the window the aggregator drops the stale report and the GST
    # advances again — with the victim still down.
    schedule.at(CRASH_AT + 0.4,
                lambda: samples.__setitem__("thawed", sibling.summary),
                label="sample GST past the stall")
    schedule.recover_at(RECOVER_AT + 0.5, victim)
    system.run(3.5)
    assert samples["pinned"] == samples["early"]        # frozen inside window
    assert samples["thawed"] > samples["pinned"]        # bounded stall
    assert sibling.summary > samples["thawed"]          # advancing after rejoin


_RECEIVER_STALL = pytest.mark.xfail(strict=True, reason=(
    "the ApplyRemote in flight to the crashed partition is dropped and never "
    "re-released, so both origins stay in Receiver._inflight and the whole "
    "DC stops applying remote updates; re-releasing the heads at recovery "
    "+ 0.1 ms does not help: eunomia installs them, then wedges on each "
    "origin's next update, whose RemoteData was dropped during the outage "
    "(_pending_apply ends holding 2), and sseq wedges at once, its heads' "
    "payloads never held"))


@pytest.mark.parametrize("protocol", [
    pytest.param("eunomia", marks=_RECEIVER_STALL),
    pytest.param("sseq", marks=_RECEIVER_STALL),
    "gentlerain", "cure", "eventual"])
def test_partition_crash_leaves_its_datacenter_live(protocol):
    """A partition down for 200 ms loses what was shipped to it meanwhile
    (by design, in every protocol), so this asserts liveness, not
    convergence: the datacenter's healthy partitions keep installing remote
    updates after the recovery, and the receiver's in-flight set drains."""
    spec = GeoSystemSpec(n_dcs=3, partitions_per_dc=4, clients_per_dc=4,
                         seed=1)
    system = build_geo_system(protocol, spec, WorkloadSpec(read_ratio=0.5))
    dc = system.datacenters[0]
    victim = dc.partitions[1]
    healthy = [p for p in dc.partitions if p is not victim]
    applied = {}
    schedule = system.failures()
    schedule.crash_at(1.0, victim)
    schedule.recover_at(1.2, victim)
    schedule.at(1.5, lambda: applied.update(
        (p.name, p.remote_applies) for p in healthy),
        label="count remote applies after the recovery")
    system.run(2.5)
    system.quiesce(1.5)
    assert not victim.crashed
    for partition in healthy:
        assert partition.remote_applies > applied[partition.name], (
            f"{partition.name} installed nothing after the recovery")
    if dc.receiver is not None:
        assert not dc.receiver._inflight


def test_failure_actions_added_mid_run_still_fire():
    """system.failures() arms at start; actions added *after* that (or
    between run() windows) must schedule immediately, not vanish."""
    system = build_geo_system("eventual", SPEC, WL)
    system.run(0.5)
    victim = system.datacenters[0].partitions[1]
    system.failures().crash_at(1.0, victim)
    system.run(1.0)
    assert victim.crashed
    system.failures().recover_at(system.env.now + 0.2, victim)
    system.run(0.5)
    assert not victim.crashed
    assert [label for _, label in system.failures().log] == [
        f"crash {victim.name}", f"recover {victim.name}"]


@pytest.mark.parametrize("chain_length", [1, 3])
def test_chain_sequencer_end_to_end(chain_length):
    """sseq × chain_length: the §7.1 chain-replicated sequencer as a full
    deployment — converges and passes the causal checker like plain sseq."""
    history = SessionHistory()
    system = build_geo_system("sseq", SPEC, WL, history=history,
                              chain_length=chain_length)
    system.run(2.0)
    system.quiesce(2.5)
    assert system.converged()
    assert system.total_throughput() > 0
    checker = CausalChecker(history)
    assert checker.check() == []
    assert checker.check_write_read_pairs() == []
    extras = system.datacenters[0].extras
    assert len(extras) == chain_length
    if chain_length > 1:
        # every node logged every assignment (the replication invariant)
        head, tail = extras[0], extras[-1]
        assert head.is_head and tail.is_tail
        assert len(head.log) == len(tail.log) > 0
