"""Integration tests for the baseline stores: S-Seq, A-Seq, GentleRain,
Cure, and the eventually consistent yardstick."""

import pytest

from repro.checker import CausalChecker, SessionHistory
from repro.geo.system import GeoSystemSpec, build_geo_system
from repro.metrics import percentile
from repro.workload import WorkloadSpec


SPEC = GeoSystemSpec(n_dcs=3, partitions_per_dc=2, clients_per_dc=3, seed=17)
WL = WorkloadSpec(read_ratio=0.75, n_keys=48)


def run_protocol(protocol, duration=2.5, drain=3.0, history=None, **kwargs):
    system = build_geo_system(protocol, SPEC, WL, history=history, **kwargs)
    system.run(duration)
    system.quiesce(drain)
    return system


@pytest.mark.parametrize("protocol",
                         ["sseq", "aseq", "gentlerain", "cure", "eventual"])
def test_baseline_converges(protocol):
    system = run_protocol(protocol)
    assert system.converged()
    assert system.total_throughput() > 0


@pytest.mark.parametrize("protocol", ["sseq", "gentlerain", "cure"])
def test_causal_baselines_pass_session_checks(protocol):
    history = SessionHistory()
    system = run_protocol(protocol, history=history)
    checker = CausalChecker(history)
    assert checker.check() == []
    assert checker.check_write_read_pairs() == []
    assert history.total_ops > 500


def test_sseq_visibility_near_optimal():
    system = run_protocol("sseq")
    extras = system.visibility_extra_ms(0, 1)
    assert extras
    assert percentile(extras, 90) < 10.0  # near-zero extra delay


def test_gentlerain_false_dependency_floor():
    """No dc1→dc2 update visible with less extra delay than the far-DC gap.

    dc2↔dc3 RTT is 160 ms vs 80 ms for dc1↔dc2: the scalar GST waits for
    heartbeats from dc3, adding ≈ (160-80)/2 = 40 ms to every近 update.
    """
    system = run_protocol("gentlerain", duration=4.0)
    extras = system.visibility_extra_ms(0, 1)
    assert extras
    assert min(extras) > 30.0


def test_cure_beats_gentlerain_on_near_pair():
    gr = run_protocol("gentlerain", duration=4.0)
    cure = run_protocol("cure", duration=4.0)
    gr_p90 = percentile(gr.visibility_extra_ms(0, 1), 90)
    cure_p90 = percentile(cure.visibility_extra_ms(0, 1), 90)
    assert cure_p90 < gr_p90


def test_gentlerain_interval_trades_visibility(env):
    fast = run_protocol("gentlerain", duration=3.0,
                        gst_interval=0.002)
    slow = run_protocol("gentlerain", duration=3.0,
                        gst_interval=0.050)
    fast_p90 = percentile(fast.visibility_extra_ms(0, 1), 90)
    slow_p90 = percentile(slow.visibility_extra_ms(0, 1), 90)
    assert slow_p90 > fast_p90 + 20.0  # interval dominates the extra delay


def test_eventual_has_zero_extra_visibility():
    system = run_protocol("eventual")
    extras = system.visibility_extra_ms(0, 1)
    assert extras
    assert max(extras) == 0.0


def test_eventual_exposes_no_causal_metadata():
    history = SessionHistory()
    system = run_protocol("eventual", history=history)
    assert all(record.vts == () for client in history.clients()
               for record in history.session(client))


def test_unknown_protocol_rejected():
    with pytest.raises(ValueError):
        build_geo_system("nonsense", SPEC, WL)


def test_gst_partitions_track_remote_heartbeats():
    system = build_geo_system("gentlerain", SPEC, WL)
    system.run(1.0)
    partition = system.datacenters[0].partitions[0]
    # heartbeats every 10ms must have advanced both remote VV entries
    assert partition.vv[1] > 0
    assert partition.vv[2] > 0


def test_gst_summary_is_monotone():
    system = build_geo_system("cure", SPEC, WL)
    system.start()
    partition = system.datacenters[0].partitions[1]
    seen = []

    def sample():
        seen.append(partition.summary)

    for i in range(1, 40):
        system.env.loop.schedule(i * 0.025, sample)
    system.env.run(until=1.0)
    for a, b in zip(seen, seen[1:]):
        assert all(x <= y for x, y in zip(a, b))
