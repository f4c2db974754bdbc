"""Lane lint: only the client path rides a storage partition's ``cpu`` lane.

Client service times are multiplied by ``Calibration.scale``; the protocol
intervals the visibility path is made of are not.  So anything of that path
that waits in ``cpu`` waits ten times longer than at paper scale and lands,
unscaled, in a number compared against Fig. 6 (docs/ARCHITECTURE.md,
"Lanes").  That defect was found three times by reading a latency against
its closed form — the Alg. 2 heartbeat (PR 20), frames and ``BatchAck``
(PR 21), the GST stabilization plane (PR 23); this reads the delivery plans
instead, so a fourth names itself when the handler is written.

The fourth came anyway, through the cost table instead of the lane table
(PR 24): EunomiaKV and the sequencer stores charged the ×10-scaled storage
write of a remote version on ``ApplyRemote`` — after the §7.2.2 arrival
stamp and inside Algorithm 5's one-in-flight-per-origin cycle — where
GentleRain, Cure and eventual charge it on ``RemoteData``, before the stamp.
The second lint reads the costs: the write rides the message that carries
the payload, under every protocol, and nothing handled after it costs as
much (``StoragePartition._install`` states the rule).  The third holds a
receiver-fed partition's ``ApplyRemote`` alone in its lane, so a release
never waits behind an unrelated payload write.
"""

import pytest

import repro.baselines.messages as baseline_messages
import repro.core.messages as core_messages
from repro import GeoSystemSpec, WorkloadSpec, build_geo_system
from repro.calibration import Calibration
from repro.core import EunomiaConfig
from repro.core.protocols import available_protocols

#: what a client waits for: its own request, and for the sequencer stores
#: the sequencer round trip its update's reply is held for
_CLIENT_PATH = {"ClientRead", "ClientUpdate"}
_CLIENT_PATH_OF = {"sseq": {"SeqReply"}, "aseq": {"SeqReply"}}

_MESSAGE_TYPES = [getattr(module, name)
                  for module in (core_messages, baseline_messages)
                  for name in module.__all__]


def _handled_plans(protocol, **options):
    """One partition of ``protocol`` and the delivery plan of every message
    type it handles, by type name."""
    spec = GeoSystemSpec(n_dcs=2, partitions_per_dc=1, clients_per_dc=0,
                         seed=1)
    system = build_geo_system(protocol, spec, WorkloadSpec(), **options)
    partition = system.datacenters[0].partitions[0]
    plans = {kind.__name__: partition._plan(kind) for kind in _MESSAGE_TYPES}
    return partition, {name: plan for name, plan in plans.items()
                       if plan[2] != partition._unhandled}


@pytest.mark.parametrize("protocol", sorted(available_protocols()))
def test_only_the_client_path_rides_the_cpu_lane(protocol):
    partition, plans = _handled_plans(protocol)
    lanes = {name: lane for name, (lane, _, _, _) in plans.items()}
    assert lanes.keys() >= _CLIENT_PATH
    allowed = _CLIENT_PATH | _CLIENT_PATH_OF.get(protocol, set())
    stray = sorted(name for name, lane in lanes.items()
                   if lane == "cpu" and name not in allowed)
    assert not stray, (f"{type(partition).__name__} serves {stray} in the "
                       f"cpu lane, behind scaled client operations")


@pytest.mark.parametrize("protocol, options, carrier", [
    *(pytest.param(name, {}, "RemoteData", id=name)
      for name in sorted(available_protocols())),
    # the value rides the metadata: no RemoteData is ever sent
    pytest.param("eunomia",
                 {"config": EunomiaConfig(separate_data_metadata=False)},
                 "ApplyRemote", id="eunomia-unseparated"),
])
def test_the_remote_write_rides_the_message_that_carries_the_payload(
        protocol, options, carrier):
    partition, plans = _handled_plans(protocol, **options)
    write = Calibration().cost("partition_apply_remote")
    costs = {name: cost for name, (_, cost, _, _) in plans.items()
             if name not in _CLIENT_PATH}
    assert costs[carrier] is not None and costs[carrier] >= write, (
        f"{type(partition).__name__} ({protocol}) charges {carrier}, which "
        f"carries the payload, {costs[carrier]} s: less than the storage "
        f"write ({write} s), so the write is charged somewhere later")
    # everything else here is handled between the payload's arrival stamp
    # and ``_install`` (or beside them, on the same background lanes)
    late = sorted(name for name, cost in costs.items()
                  if name != carrier and (cost is None or cost >= write))
    assert not late, (f"{type(partition).__name__} ({protocol}) charges "
                      f"{late} a storage write or more after the §7.2.2 "
                      f"arrival stamp")


@pytest.mark.parametrize("protocol, options", [
    pytest.param("eunomia", {}, id="eunomia"),
    pytest.param("sseq", {}, id="sseq"),
    pytest.param("aseq", {}, id="aseq"),
    pytest.param("eunomia",
                 {"config": EunomiaConfig(separate_data_metadata=False)},
                 id="eunomia-unseparated"),
])
def test_a_release_waits_only_for_its_own_publish(protocol, options):
    partition, plans = _handled_plans(protocol, **options)
    lanes = {name: lane for name, (lane, _, _, _) in plans.items()}
    shared = sorted(name for name, lane in lanes.items()
                    if lane == lanes["ApplyRemote"] and name != "ApplyRemote")
    assert not shared, (f"{type(partition).__name__} ({protocol}) queues "
                        f"Alg. 5 releases in the {lanes['ApplyRemote']!r} "
                        f"lane behind {shared}, inside the stop-and-wait "
                        f"cycle")
