"""End-to-end EunomiaKV integration tests: the full 3-DC deployment."""

import pytest

from repro.baselines import build_system
from repro.checker import CausalChecker, SessionHistory
from repro.core import EunomiaConfig
from repro.core.service import StabilizerBase
from repro.geo.system import GeoSystemSpec, build_geo_system
from repro.metrics import percentile
from repro.workload import WorkloadSpec

SPEC = GeoSystemSpec(n_dcs=3, partitions_per_dc=2, clients_per_dc=3, seed=23)
WL = WorkloadSpec(read_ratio=0.8, n_keys=64)


def run_eunomia(duration=3.0, drain=3.0, spec=SPEC, workload=WL, **kwargs):
    system = build_geo_system("eunomia", spec, workload, **kwargs)
    system.run(duration)
    system.quiesce(drain)
    return system


def ops_refused(system):
    """(duplicate ops, gap frames) the stabilizers dropped at ingestion.
    Without fault tolerance nothing is ever retransmitted, so anything but
    zero is an op the partition shipped and the service threw away."""
    stabilizers = [p for p in system.env.network.processes()
                   if isinstance(p, StabilizerBase)]
    assert stabilizers
    return (sum(p.duplicate_ops_dropped for p in stabilizers),
            sum(p.gap_frames_dropped for p in stabilizers))


def test_convergence_and_causality():
    history = SessionHistory()
    system = run_eunomia(history=history)
    assert system.converged()
    checker = CausalChecker(history)
    assert checker.check() == []
    assert checker.check_write_read_pairs() == []
    assert ops_refused(system) == (0, 0)


def test_visibility_within_paper_band():
    system = run_eunomia(duration=5.0)
    for origin, dest in [(0, 1), (1, 2), (2, 0)]:
        extras = system.visibility_extra_ms(origin, dest)
        assert extras, f"no visibility samples for {origin}->{dest}"
        # paper: ~95% of updates within 15 ms extra delay
        assert percentile(extras, 95) < 25.0
        assert percentile(extras, 50) < 15.0


def test_remote_values_actually_replicate():
    system = run_eunomia()
    snapshots = system.snapshots()
    # every DC must hold values written by clients of other DCs
    for dc_id, snapshot in enumerate(snapshots):
        origins = {origin for (_, origin, _) in snapshot.values()}
        assert origins == {0, 1, 2}


def test_deterministic_given_seed():
    a = run_eunomia()
    b = run_eunomia()
    assert a.total_throughput() == b.total_throughput()
    assert a.snapshots() == b.snapshots()


def test_different_seeds_differ():
    a = run_eunomia()
    b = run_eunomia(spec=GeoSystemSpec(n_dcs=3, partitions_per_dc=2,
                                       clients_per_dc=3, seed=24))
    assert a.total_throughput() != b.total_throughput()


def test_fault_tolerant_geo_deployment():
    config = EunomiaConfig(fault_tolerant=True, n_replicas=3)
    history = SessionHistory()
    system = run_eunomia(config=config, history=history)
    assert system.converged()
    assert CausalChecker(history).check() == []


def test_geo_survives_eunomia_leader_crash():
    config = EunomiaConfig(fault_tolerant=True, n_replicas=2,
                           replica_alive_interval=0.2,
                           replica_suspect_timeout=0.65)
    system = build_geo_system("eunomia", SPEC, WL, config=config)
    system.start()
    # crash dc0's leader replica mid-run; the follower must take over
    leader = system.datacenters[0].heads[0]
    system.env.loop.schedule(1.0, leader.crash)
    system.run(4.0)
    system.quiesce(4.0)
    assert system.converged()
    survivor = system.datacenters[0].heads[1]
    assert survivor.is_leader()
    assert survivor.ops_stabilized > 0


def test_rbtree_backed_eunomia_behaves_identically():
    """§6 reference: the paper's tree buffer, swapped into every stabilizer
    before the run, changes nothing a client can see."""
    from repro.datastruct import TreeOpBuffer

    runs = run_eunomia()
    rbtree = build_geo_system("eunomia", SPEC, WL)
    for dc in rbtree.datacenters:
        for head in dc.heads:
            head.buffer = TreeOpBuffer()
    rbtree.run(3.0)
    rbtree.quiesce(3.0)
    assert rbtree.converged()
    assert rbtree.snapshots() == runs.snapshots()


def test_without_data_metadata_separation():
    config = EunomiaConfig(separate_data_metadata=False)
    history = SessionHistory()
    system = run_eunomia(config=config, history=history)
    assert system.converged()
    assert CausalChecker(history).check() == []
    assert ops_refused(system) == (0, 0)


def test_two_datacenter_topology():
    spec = GeoSystemSpec(n_dcs=2, partitions_per_dc=2, clients_per_dc=3,
                         seed=31)
    system = run_eunomia(spec=spec)
    assert system.converged()
    assert system.total_throughput() > 0


def test_zipf_workload_converges():
    workload = WorkloadSpec(read_ratio=0.6, n_keys=64, distribution="zipf")
    history = SessionHistory()
    system = run_eunomia(workload=workload, history=history)
    assert system.converged()
    assert CausalChecker(history).check() == []


def test_eunomia_throughput_close_to_eventual():
    """The headline Figure 5 claim at small scale."""
    eunomia = run_eunomia(duration=3.0)
    eventual = build_system("eventual", SPEC, WL)
    eventual.run(3.0)
    ratio = eunomia.total_throughput() / eventual.total_throughput()
    assert ratio > 0.90


def test_dc_throughput_sums_to_total():
    system = run_eunomia()
    total = system.total_throughput()
    per_dc = sum(system.dc_throughput(d) for d in range(3))
    assert per_dc == pytest.approx(total, rel=0.01)
