"""Event budgets: how many loop events the simulator fires per unit of work.

Deterministic counts of seeded runs, no wall clock.  ``processed_events``
is the simulator's own bookkeeping, not the modelled system's, so goldens
and digests cannot see it grow; `perf/` can, but only in the pipeline.
These ceilings make a change that puts events back name itself in tier-1.

The floor they sit on (docs/ARCHITECTURE.md, "Simulator hot path"): an
Alg. 2 heartbeat is two events — the uplink tick that sends it and the
arrival that handles it — and a zero-cost message is handled in its
arrival event when its lane is idle.
"""

from contextlib import nullcontext

import pytest
from heap_only import heap_only

import repro.baselines  # noqa: F401  (registers every protocol)
from repro import GeoSystemSpec, WorkloadSpec, build_geo_system
from repro.baselines.gst import GstPartition
from repro.baselines.messages import GstBroadcast
from repro.core import EunomiaConfig
from repro.core.protocols import available_protocols
from repro.harness.loadgen import build_eunomia_rig


def _run(protocol, clients_per_dc):
    spec = GeoSystemSpec(n_dcs=3, partitions_per_dc=2,
                         clients_per_dc=clients_per_dc, seed=5)
    system = build_geo_system(protocol, spec,
                              WorkloadSpec(read_ratio=0.8, n_keys=64))
    system.run(1.0)
    return system, system.env.loop.processed_events


def _heartbeats_sent(system):
    return sum(proc.uplink.heartbeats_sent
               for proc in system.env.network.processes()
               if hasattr(proc, "uplink"))


def test_idle_heartbeat_costs_at_most_two_events_and_change():
    """No clients: every partition heartbeats every tick.  The remainder
    over 2.0 is the stabilization, receiver and election ticks."""
    system, events = _run("eunomia", clients_per_dc=0)
    beats = _heartbeats_sent(system)
    assert beats == 5934
    # 4.62 with a sender slot and a completion event per heartbeat,
    # 3.68 with the completion fused only, 2.68 with both gone
    assert events / beats <= 2.8


def test_fault_tolerant_heartbeats_are_not_withheld_under_load():
    """A floor, not a ceiling: Alg. 2 asks for a heartbeat per tick per
    replica unless that replica still owes an ack.  On the update-heavy
    fault-tolerant benchmark shape an ack is back one LAN round trip and
    an fsync after its frame, well inside a tick, so 0.83 of ``ticks × R``
    are sent (measured − 5 % below).  With frames and acks queued behind
    4 ms client updates in the ``cpu`` lane it read 0.42: most heartbeats
    were withheld, and StableTime trailed the foreground backlog."""
    config = EunomiaConfig(fault_tolerant=True, n_replicas=2, n_shards=2,
                           durability="wal")
    spec = GeoSystemSpec(n_dcs=3, partitions_per_dc=4, clients_per_dc=6,
                         seed=5)
    system = build_geo_system("eunomia", spec,
                              WorkloadSpec(read_ratio=0.1, n_keys=500),
                              config=config)
    system.run(1.0)
    assert sum(client.ops_done for client in system.clients) > 2000
    ticks = 3 * 4 * round(1.0 / config.batch_interval)
    assert _heartbeats_sent(system) / (ticks * config.n_replicas) >= 0.78


def test_a_summary_broadcast_on_an_idle_lane_costs_one_event(monkeypatch):
    """A ``GstBroadcast`` costs nothing to *deliver* — its round is a
    ``cpu`` slot reserved by the handler — so on the background
    ``stabilization`` lane, idle but for 3 µs heartbeats and reports, it is
    handled in its arrival event.  Served from ``cpu`` with the round as its
    service cost it was two events, every time (ratio 2.0)."""
    events = {"deliver": 0, "completion": 0}
    arriving = []   # per open ``deliver`` call: is it a broadcast's?
    deliver, handle = GstPartition.deliver, GstPartition.on_gst_broadcast

    def counted_deliver(self, msg, src):
        events["deliver"] += type(msg) is GstBroadcast
        arriving.append(type(msg) is GstBroadcast)
        try:
            deliver(self, msg, src)
        finally:
            arriving.pop()

    def counted_handle(self, msg, src):
        # handled outside its arrival event: a completion event, whether
        # the heap fired it or its lane fired it in place
        events["completion"] += not (arriving and arriving[-1])
        handle(self, msg, src)

    monkeypatch.setattr(GstPartition, "deliver", counted_deliver)
    monkeypatch.setattr(GstPartition, "on_gst_broadcast", counted_handle)
    _run("cure", clients_per_dc=4)
    assert events["deliver"] > 1000
    assert sum(events.values()) / events["deliver"] <= 1.1


#: ``processed_events / client ops`` of a seeded 1 sim-s run, measured and
#: rounded up by about 3 %.  (With a completion event per zero-cost reply
#: each was a whole event per op higher; Eunomia read 19.7, and 14.9 while
#: its heartbeats still queued behind frames waiting in the ``cpu`` lane;
#: GentleRain / Cure 9.03 / 9.33 with a completion event per broadcast.)
_CEILINGS = {"eventual": 4.9, "eunomia": 14.8, "gentlerain": 8.7,
             "cure": 9.0, "sseq": 9.4, "aseq": 9.4}


def test_every_protocol_has_a_ceiling():
    assert set(_CEILINGS) == set(available_protocols())


@pytest.mark.parametrize("protocol", sorted(_CEILINGS))
def test_events_per_op_stays_under_its_ceiling(protocol):
    system, events = _run(protocol, clients_per_dc=4)
    ops = sum(client.ops_done for client in system.clients)
    assert ops > 2000
    assert events / ops <= _CEILINGS[protocol]


def test_a_saturated_stabilizer_backlog_waits_off_the_heap():
    """The section 7.1 rig drives one stabilizer past its capacity, so its
    ``cpu`` lane backlog grows for the whole run.  That backlog is parked
    in the lane, not queued on the loop's heap: the heap stays near two
    entries per process (one head per busy lane, one in-flight message or
    timer) while ``pending()`` grows by thousands.  With every completion
    on the heap it held 3 535 entries at 0.4 sim-s."""
    rig = build_eunomia_rig(75, seed=5)
    loop = rig.env.loop
    processes = len(rig.env.network.processes())
    rig.start()
    backlog = loop.pending()
    for until in (0.4, 0.8):
        rig.env.run(until=until)
        assert loop.pending() > backlog + 1000
        backlog = loop.pending()
        assert len(loop._heap) <= 3 * processes


def test_an_instants_ticks_cost_the_heap_one_entry():
    """The rig's 75 emulated partitions tick at the same instants, and a
    tick re-arms through the loop's Fifo for its period, so one instant's
    ticks cost the heap one entry: at 0.4 sim-s it holds 78 entries (152
    with every tick on it).  Nothing fires differently: ``pending()`` and
    ``processed_events`` are the heap-only reference's."""
    counts = []
    for side in (nullcontext, heap_only):
        rig = build_eunomia_rig(75, seed=5)
        loop = rig.env.loop
        with side():
            rig.start()
            rig.env.run(until=0.4)
        counts.append((len(loop._heap), loop.pending(),
                       loop.processed_events))
    (heap, pending, events), reference = counts
    assert (pending, events) == reference[1:]
    assert pending > 3000
    assert heap <= 80
