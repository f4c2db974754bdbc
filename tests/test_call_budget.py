"""Python-call budgets: how many Python frames the simulator opens per op.

Deterministic counts of seeded runs, no wall clock: ``sys.setprofile``
sees one "call" event per Python frame (C functions, ``attrgetter``
properties and builtins open none), divided by the ops done in the same
window (completed client ops; a rig's generated updates).  Host time per op falls with these counts (395 → 325
calls per op on ``geo_update_heavy_ft`` bought 4–6 % ``ops_per_host_s``),
and goldens, digests and event budgets cannot see them, so a change that
puts helper frames back names itself here.

The floor these ceilings sit on, per op of the fault-tolerant shape
(K=2 shards, R=2 replicas, WAL; 10:90): about 35 ``schedule_at``, 23
``Network.send`` + ``Process.deliver`` pairs, 22 message ``__init__``,
16 ``Fifo._fire`` and 9 ``Fifo.park`` entries, 9.5 heartbeats each
handled and staged as a WAL record (``on_partition_heartbeat``,
``stage_partition_time``), and 5.7 uplink ticks with their ``every`` and
``read_us``.  What must not open a frame: ``Process.now``,
``Update.uid`` and the order key (read in C), a WAL record's varint
sizes (inline), an idle fault-tolerant tick's target list, and the
``apply`` trampoline for a lane body of two arguments
(``Process._enqueue``).
"""

import sys

import pytest

from repro import GeoSystemSpec, WorkloadSpec, build_geo_system
from repro.core import EunomiaConfig
from repro.harness.loadgen import build_eunomia_rig


def _geo(protocol, spec, workload, **options):
    """A geo deployment; an op is a completed client op."""
    def build():
        system = build_geo_system(protocol, spec, workload, **options)
        return system, lambda: sum(c.ops_done for c in system.clients)
    return build


def _rig():
    """The §7.1 rig: 75 emulated partitions, each a non-fault-tolerant
    uplink, against one plain stabilizer; an op is a generated update."""
    rig = build_eunomia_rig(75, seed=5)
    return rig, lambda: sum(d.generated for d in rig.drivers)


#: name -> (build, ceiling): Python calls per op over 0.4 sim-s after a
#: 0.2 sim-s warm-up, measured and raised 5 % (317.8, 71.7, 41.3 and 94.1;
#: with a frame per derived key and per varint field, an ``apply`` per
#: lane body and a list per idle tick, the first two were 386.6 and
#: 76.6).  The Cure shape runs no Eunomia uplink, stabilizer or receiver
#: code: it is the control for a change to those.
SHAPES = {
    "fault_tolerant_10_90": (
        _geo("eunomia",
             GeoSystemSpec(n_dcs=3, partitions_per_dc=4, clients_per_dc=6,
                           seed=5),
             WorkloadSpec(read_ratio=0.1, n_keys=500),
             config=EunomiaConfig(fault_tolerant=True, n_replicas=2,
                                  n_shards=2, durability="wal")),
        333.6),
    "plain_90_10": (
        _geo("eunomia",
             GeoSystemSpec(n_dcs=3, partitions_per_dc=4, clients_per_dc=8,
                           seed=5),
             WorkloadSpec(read_ratio=0.9, n_keys=1000)),
        75.3),
    "rig_75": (_rig, 43.3),
    "cure_50_50": (
        _geo("cure",
             GeoSystemSpec(n_dcs=3, partitions_per_dc=4, clients_per_dc=8,
                           seed=5),
             WorkloadSpec(read_ratio=0.5, n_keys=1000, distribution="zipf",
                          zipf_s=0.99)),
        98.8),
}


def _calls_per_op(build) -> float:
    system, ops_done = build()
    system.run(0.2)
    done = ops_done()
    calls = [0]

    def count(frame, event, arg):
        if event == "call":
            calls[0] += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        system.env.run(until=system.env.now + 0.4)
    finally:
        sys.setprofile(previous)
    ops = ops_done() - done
    assert ops > 500
    return calls[0] / ops


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_python_calls_per_op_stay_under_their_ceiling(shape):
    build, ceiling = SHAPES[shape]
    assert _calls_per_op(build) <= ceiling
