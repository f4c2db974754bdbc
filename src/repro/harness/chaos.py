"""Randomized chaos matrix: adversarial fault schedules × every protocol.

The paper evaluates protocols on a healthy testbed; this module asks the
complementary question — *do the implementations keep their promises under
faults?* — using two oracles (plus, on every case, the placement-routing
check that each op was served by a DC storing its partition):

1. the **causal checker** (:mod:`repro.checker`): every recorded session
   must satisfy the causal session guarantees, and every read must return
   a value some write actually produced;
2. **exactly-once, lossless delivery**: after every fault heals and the
   system drains, all datacenters converge to identical stores, and (in
   the rig-based drill) the deduplicated stable output equals the
   fault-free golden run's — each generated op delivered at least once,
   duplicates only where retries are supposed to create them.

A :class:`ChaosSchedule` is a seeded, JSON-serializable sample from the
fault space; `python -m repro.harness.chaos --matrix` runs many seeds ×
protocols, and a failing case's schedule is written out so the exact run
can be replayed (``--replay file.json``) while debugging.

Fault classes are sampled per protocol from its *reliability envelope*:
the simulator's channels are lossy when cut, and these protocols (like
their real counterparts over TCP) assume reliable delivery wherever no
retry exists.  So schedules cut only paths covered by retry/repair
machinery (uplink retransmission, sequencer request retries, periodic
state-carrying reports) or crash only infrastructure with failover
(stabilizer replica groups, chain nodes); gray faults (delay, slow disks,
clock trouble) are lossless by nature and apply everywhere.  That is
exactly the regime where the recovery idioms added for the chaos matrix —
bounded timeouts, retry-with-backoff, re-election, chain repair — must
make every oracle hold on every seed.
"""

from __future__ import annotations

import argparse
import bisect
import json
import random
import sys
import zlib
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional

from ..checker import CausalChecker, SessionHistory
from ..core.config import EunomiaConfig
from ..core.placement import PlacementMap
from ..geo.system import GeoSystemSpec, build_geo_system
from ..workload.generator import WorkloadSpec
from .loadgen import build_eunomia_rig

__all__ = [
    "FAULT_CLASSES",
    "CHAOS_PROTOCOLS",
    "CHAOS_PLACEMENTS",
    "FaultEvent",
    "ChaosSchedule",
    "sample_schedule",
    "apply_schedule",
    "build_case",
    "run_case",
    "run_exactly_once_drill",
    "run_matrix",
]

#: Every fault class the chaos generator can inject.  Values are the
#: ``FaultEvent.cls`` tags; the per-protocol menu below decides which
#: classes a given protocol is sampled with.
FAULT_CLASSES = (
    "infra_crash",      # crash + recover a failover-covered infrastructure
                        # process: stabilizer replica group / chain node
    "isolation",        # network-partition a retried control path, then heal
    "gray_link",        # slow-not-dead links: extra one-way delay window
    "gray_disk",        # degraded fsync latency on a WAL's disk
    "wal_fault",        # injected fsync failures - commit retry must cover
    "clock_drift",      # drift-rate change + phase step on one node's clock
    "ntp_outage",       # suspend clock discipline for a window
    "region_outage",    # crash every process in one datacenter - sampled
                        # only for island DCs of a partial placement, whose
                        # data replicates nowhere and whose clients retry
)

#: The protocols the matrix runs by default, with the deployment options
#: that give each one its fault-tolerance machinery (Eunomia runs the
#: paper's fault-tolerant K=4 × R=3 stabilizer with a WAL; the sequencer
#: runs the §7.1 chain, length 3, with repair).
CHAOS_PROTOCOLS: dict[str, dict] = {
    "eunomia": {},          # config built per-run (mutable); see _options_for
    "gentlerain": {},
    "cure": {},
    "sseq": {"chain_length": 3},
}

#: fault classes each protocol is sampled from (its reliability envelope)
_MENU: dict[str, tuple] = {
    "eunomia": ("infra_crash", "isolation", "gray_link", "gray_disk",
                "wal_fault", "clock_drift", "ntp_outage"),
    "gentlerain": ("isolation", "gray_link", "clock_drift", "ntp_outage"),
    "cure": ("isolation", "gray_link", "clock_drift", "ntp_outage"),
    "sseq": ("infra_crash", "isolation", "gray_link", "clock_drift",
             "ntp_outage"),
}

_SPEC = dict(n_dcs=3, partitions_per_dc=4, clients_per_dc=2)
_WORKLOAD = dict(read_ratio=0.75, n_keys=48)
_RUN_FOR = 2.2          # fault window lives in [0.4, 1.6]
_DRAIN = 3.0            # generous: covers re-election + retry backoff caps

#: Placement shapes the matrix can run under.  ``"island"`` gives dc2 a
#: partition set that overlaps nobody — the only shape where crashing an
#: entire region is recoverable by construction (its data replicates
#: nowhere, so no inter-DC stream is lost) — which is exactly what the
#: ``region_outage`` fault class is gated on.  Partial-placement runs get
#: client retries: forwarded sessions would otherwise stall forever when
#: their remote target crashes.
CHAOS_PLACEMENTS: dict[str, str] = {
    "full": "full",
    "island": "dc0=0,1;dc1=0,1;dc2=2,3",
}
_CLIENT_RETRY = 0.25    # > any RTT + backoff; << the post-heal drain

#: ``clock_mode="physical"`` models loosely disciplined physical clocks
#: (NTP residual ~2.5 ms instead of the calibrated 100 us) — the regime
#: where timestamp-ordered protocols must absorb real clock error.
_PHYSICAL_RESIDUAL_US = 2500.0


def _options_for(protocol: str, placement: str = "full") -> dict:
    if protocol == "eunomia":
        # Island placements leave each DC with 2 resident partitions, so
        # the stabilizer cannot spread them over more than 2 shards.
        n_shards = 4 if placement == "full" else 2
        return {"config": EunomiaConfig(n_shards=n_shards, n_replicas=3,
                                        fault_tolerant=True,
                                        durability="wal")}
    return dict(CHAOS_PROTOCOLS[protocol])


@dataclass
class FaultEvent:
    """One sampled fault: a class tag, a window, and role-based targets.

    ``params`` names targets by *role* (``dc``, ``partition``, ``unit``…)
    rather than by object, so an event serializes to JSON and re-resolves
    against a freshly built system on replay.
    """

    cls: str
    start: float
    stop: float
    params: dict = field(default_factory=dict)


@dataclass
class ChaosSchedule:
    """A seeded, serializable fault schedule for one protocol run."""

    protocol: str
    seed: int
    events: list[FaultEvent] = field(default_factory=list)
    #: ``"hybrid"`` (calibrated NTP discipline) or ``"physical"`` (loose
    #: discipline, ~2.5 ms residual) — a sampled axis, not a fault window
    clock_mode: str = "hybrid"
    #: key into :data:`CHAOS_PLACEMENTS`; ``"full"`` replays pre-placement
    #: schedules bit-for-bit (both fields default for old JSON artifacts)
    placement: str = "full"

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ChaosSchedule":
        raw = json.loads(text)
        events = [FaultEvent(**e) for e in raw.pop("events", [])]
        return cls(events=events, **raw)


# ----------------------------------------------------------------------
# Sampling
# ----------------------------------------------------------------------
def sample_schedule(protocol: str, seed: int,
                    n_faults: Optional[int] = None,
                    placement: str = "full") -> ChaosSchedule:
    """Sample a fault schedule for ``protocol`` from its class menu.

    Deterministic in ``(protocol, seed, placement)``; fault windows land
    inside the run (healed well before drain) and may overlap —
    overlapping faults are the point of a chaos *matrix*.

    ``placement="full"`` reproduces the historical event streams exactly
    (the clock-mode draw happens after all event draws).  A placement
    with island DCs adds ``region_outage`` to the menu, targeted at an
    island DC — the one shape where losing a whole region drops no
    replication stream.
    """
    if protocol not in _MENU:
        raise ValueError(f"no chaos menu for protocol {protocol!r}; "
                         f"known: {sorted(_MENU)}")
    menu = _MENU[protocol]
    islands = PlacementMap.from_spec(
        _SPEC["n_dcs"], _SPEC["partitions_per_dc"],
        CHAOS_PLACEMENTS[placement]).island_dcs()
    if islands:
        menu = menu + ("region_outage",)
    # str hash is process-randomized; use a stable digest so a (protocol,
    # seed) pair names the same schedule in every interpreter
    tag = zlib.crc32(protocol.encode())
    rng = random.Random((seed << 8) ^ tag)
    count = n_faults if n_faults is not None else rng.randint(2, 4)
    n_dcs = _SPEC["n_dcs"]
    n_parts = _SPEC["partitions_per_dc"]
    events: list[FaultEvent] = []
    for _ in range(count):
        cls = rng.choice(menu)
        start = round(rng.uniform(0.4, 1.2), 3)
        stop = round(start + rng.uniform(0.2, 0.45), 3)
        dc = rng.randrange(n_dcs)
        part = rng.randrange(n_parts)
        params: dict = {"dc": dc}
        if cls == "region_outage":
            # retarget onto an island DC without extra draws, keeping the
            # per-event draw count class-independent
            params["dc"] = islands[dc % len(islands)]
        elif cls == "infra_crash":
            params["unit"] = rng.randrange(
                3 if protocol in ("eunomia", "sseq") else 1)
        elif cls == "isolation":
            params["partition"] = part
            # Ω-style asymmetric reachability on some samples: the isolated
            # node still *hears* the group but cannot reach it.
            params["symmetric"] = rng.random() < 0.7
        elif cls == "gray_link":
            params["partition"] = part
            params["extra_ms"] = round(rng.uniform(5.0, 40.0), 1)
        elif cls == "gray_disk":
            params["factor"] = round(rng.uniform(2.0, 8.0), 1)
        elif cls == "wal_fault":
            params["count"] = rng.randint(1, 3)
        elif cls == "clock_drift":
            params["partition"] = part
            params["drift_ppm"] = round(rng.uniform(-300.0, 300.0), 1)
            params["step_us"] = round(rng.uniform(0.0, 400.0), 1)
        events.append(FaultEvent(cls, start, stop, params))
    events.sort(key=lambda e: (e.start, e.cls))
    # Drawn after every event draw so the "full" event streams stay
    # byte-identical to the pre-axis sampler for a given (protocol, seed).
    clock_mode = rng.choice(("hybrid", "physical"))
    return ChaosSchedule(protocol=protocol, seed=seed, events=events,
                         clock_mode=clock_mode, placement=placement)


# ----------------------------------------------------------------------
# Resolution: role descriptors -> FailureSchedule DSL calls
# ----------------------------------------------------------------------
def _crash_unit(system, dc, event):
    units = (dc.stack.crash_units() if dc.stack is not None
             else [p for p in dc.extras if hasattr(p, "counter")])
    if not units:
        raise ValueError(f"{system.protocol}: no crashable infrastructure")
    return units[event.params["unit"] % len(units)]


def _isolation_groups(system, dc, event):
    part = dc.partitions[event.params.get("partition", 0) % len(dc.partitions)]
    if system.protocol == "eunomia":
        return [part], list(dc.stack.processes())
    if system.protocol in ("gentlerain", "cure"):
        # isolate the current aggregator from its local peers: the exact
        # "dead aggregator stalls its DC" shape, without losing data
        aggregator = dc.partitions[0]
        return [aggregator], [p for p in dc.partitions if p is not aggregator]
    if system.protocol in ("sseq", "aseq"):
        return [part], list(dc.extras)
    raise ValueError(f"no isolation target for {system.protocol!r}")


def _gray_pairs(system, dc, event):
    a, b = _isolation_groups(system, dc, event)
    pairs = [(x, y) for x in a for y in b] + [(y, x) for x in a for y in b]
    if system.protocol in ("gentlerain", "cure"):
        # also slow the victim partition's inter-DC sibling links (the
        # heartbeat/replication paths the GST is computed over)
        part = dc.partitions[event.params.get("partition", 0)
                             % len(dc.partitions)]
        for other in system.datacenters:
            if other is not dc:
                sibling = other.partitions[part.index]
                pairs.append((part, sibling))
                pairs.append((sibling, part))
    return pairs


def _durable_members(dc):
    return [p for p in (dc.stack.processes() if dc.stack else [])
            if getattr(p, "wal", None) is not None]


def _region_processes(system, dc):
    """Every crash unit a whole-region outage takes down: resident
    partitions (non-resident ones never started), the receiver, the
    stabilizer replicas — as :class:`~repro.core.replica.ReplicaGroup`
    units, whose ``recover`` is the one rejoin path that re-arms the θ
    tick, the election and the checkpoint tick — the protocol extras
    outside the stack (sequencer chains; Eunomia's extras *are* the stack
    members), and the DC's own clients."""
    procs = list(dc.resident_partitions())
    if dc.receiver is not None:
        procs.append(dc.receiver)
    in_stack = []
    if dc.stack is not None:
        procs.extend(dc.stack.groups)
        in_stack = dc.stack.processes()
    procs.extend(p for p in dc.extras if p not in in_stack)
    procs.extend(c for c in system.clients if c.dc_id == dc.dc_id)
    return procs


def apply_schedule(system, schedule: ChaosSchedule) -> None:
    """Program ``schedule`` into ``system.failures()``.

    Every window-shaped fault arms both its onset and its heal, so a full
    schedule always returns the system to a healthy configuration.
    """
    fs = system.failures()
    for event in schedule.events:
        dc = system.datacenters[event.params.get("dc", 0)
                                % len(system.datacenters)]
        if event.cls == "region_outage":
            if dc.dc_id not in system.placement.island_dcs():
                raise ValueError(
                    f"region_outage targets dc{dc.dc_id}, which is not an "
                    f"island of the placement — a replicated region's "
                    f"dropped streams are unrecoverable by design")
            for proc in _region_processes(system, dc):
                fs.crash_at(event.start, proc)
                fs.recover_at(event.stop, proc)
        elif event.cls == "infra_crash":
            unit = _crash_unit(system, dc, event)
            fs.crash_at(event.start, unit)
            fs.recover_at(event.stop, unit)
        elif event.cls == "isolation":
            a, b = _isolation_groups(system, dc, event)
            fs.partition_at(event.start, a, b,
                            symmetric=event.params.get("symmetric", True))
            fs.heal_at(event.stop, a, b)
        elif event.cls == "gray_link":
            pairs = _gray_pairs(system, dc, event)
            fs.degrade_links_at(event.start, pairs,
                                event.params["extra_ms"] / 1e3)
            fs.restore_links_at(event.stop, pairs)
        elif event.cls == "gray_disk":
            for proc in _durable_members(dc):
                fs.degrade_disk_at(event.start, proc.wal.disk,
                                   event.params["factor"])
                fs.restore_disk_at(event.stop, proc.wal.disk)
        elif event.cls == "wal_fault":
            members = _durable_members(dc)
            if members:
                victim = members[event.params.get("unit", 0) % len(members)]
                fs.wal_fail_fsyncs_at(event.start, victim.wal,
                                      event.params["count"])
        elif event.cls == "clock_drift":
            part = dc.partitions[event.params.get("partition", 0)
                                 % len(dc.partitions)]
            fs.clock_drift_at(event.start, part.clock,
                              event.params["drift_ppm"],
                              step_us=event.params.get("step_us", 0.0))
        elif event.cls == "ntp_outage":
            if system.ntp is not None:
                fs.ntp_outage(event.start, event.stop, system.ntp)
        else:
            raise ValueError(f"unknown fault class {event.cls!r}")


# ----------------------------------------------------------------------
# One case = one (protocol, seed) run against both oracles
# ----------------------------------------------------------------------
@dataclass
class CaseResult:
    schedule: ChaosSchedule
    ok: bool
    failures: list[str] = field(default_factory=list)
    fired: list[str] = field(default_factory=list)
    throughput: float = 0.0
    #: one entry per scheduled fault: {cls, start, stop, mttr_s} where
    #: mttr_s is the delay from the fault's heal to the next completed
    #: client op (None if the run never produced one)
    mttr: list = field(default_factory=list)
    #: Chrome-trace-event dict (sampled spans + gauges + fault windows),
    #: Perfetto-loadable; None only when the run crashed before digesting
    trace: Optional[dict] = None


def _mttr_samples(system, schedule: ChaosSchedule) -> list:
    """Time-to-recover per scheduled fault: heal → next completed op."""
    marks = sorted(system.metrics.mark_times("ops"))
    samples = []
    for event in schedule.events:
        i = bisect.bisect_right(marks, event.stop)
        mttr_s = marks[i] - event.stop if i < len(marks) else None
        samples.append({"fault": event.cls, "start": event.start,
                        "stop": event.stop, "mttr_s": mttr_s})
    return samples


def build_case(schedule: ChaosSchedule, history=None):
    """The deployment one chaos case runs, ``schedule`` programmed into
    its failure schedule (armed when the system starts)."""
    spec_kwargs = dict(_SPEC)
    spec_kwargs["placement"] = CHAOS_PLACEMENTS[schedule.placement]
    if schedule.placement != "full":
        spec_kwargs["client_retry"] = _CLIENT_RETRY
    if schedule.clock_mode == "physical":
        spec_kwargs["ntp_residual_us"] = _PHYSICAL_RESIDUAL_US
    spec = GeoSystemSpec(seed=schedule.seed, **spec_kwargs)
    system = build_geo_system(schedule.protocol, spec,
                              WorkloadSpec(**_WORKLOAD), history=history,
                              **_options_for(schedule.protocol,
                                             schedule.placement))
    apply_schedule(system, schedule)
    return system


def run_case(schedule: ChaosSchedule, observe: bool = True) -> CaseResult:
    """Run one chaos case and evaluate every oracle.

    Never raises on an oracle failure — the verdict (and the evidence)
    comes back in the :class:`CaseResult` so the matrix can keep going
    and artifacts can be written for every failing seed.  ``observe``
    (default on: it is golden-invisible and the runs are small) attaches
    the repro.obs surface so every result carries a Perfetto-loadable
    trace with fault windows, MTTR slices, spans, and gauges on one
    timeline.
    """
    history = SessionHistory()
    system = build_case(schedule, history)
    obs = system.observe(sample_every=16) if observe else None
    failures: list[str] = []
    try:
        system.run(_RUN_FOR)
        system.quiesce(_DRAIN)
    except Exception as exc:          # a crash mid-sim is itself a finding
        return CaseResult(schedule, False, [f"run crashed: {exc!r}"],
                          [l for _, l in system.failures().log])
    checker = CausalChecker(history)
    violations = checker.check()
    if violations:
        failures.append(f"causal violations: {violations[:3]}")
    pairs = checker.check_write_read_pairs()
    if pairs:
        failures.append(f"write/read pair violations: {pairs[:3]}")
    routing = checker.check_placement_routing(
        system.placement, system.datacenters[0].ring)
    if routing:
        failures.append(f"placement routing violations: {routing[:3]}")
    if not system.converged():
        failures.append("datacenters did not converge after heal + drain")
    throughput = system.total_throughput()
    if throughput <= 0:
        failures.append("no progress: zero committed throughput")
    last_stop = max((e.stop for e in schedule.events), default=0.0)
    post_fault = [r for c in history.clients()
                  for r in history.session(c) if r.time > last_stop + 0.2]
    if not post_fault:
        failures.append("stall: no client ops after the last fault healed")
    mttr = _mttr_samples(system, schedule)
    trace = None
    if obs is not None:
        from ..obs import chrome_trace

        trace = chrome_trace(tracer=obs.tracer, metrics=system.metrics,
                             fault_log=system.failures().log, mttr=mttr)
    return CaseResult(schedule, not failures, failures,
                      [l for _, l in system.failures().log], throughput,
                      mttr=mttr, trace=trace)


def run_exactly_once_drill(seed: int, n_partitions: int = 4) -> list[str]:
    """Golden-equivalence oracle on the Eunomia rig (open-loop drivers).

    A fault-free run and a faulty run (leader replica crash + fsync
    failures mid-stream) of the same seed; generation is open-loop, so the
    comparison normalizes both runs to what their drivers emitted.  The
    oracle: **deduplicated stable output = exactly the generated set** in
    both runs, and the fault-free run has no duplicates at all — i.e. the
    faulty run's deduped output is the fault-free golden output for the
    same offered load.
    """
    def build(faulty: bool):
        config = EunomiaConfig(n_replicas=3, fault_tolerant=True)
        rig = build_eunomia_rig(n_partitions, config=config, seed=seed)
        rig.sink.record = True
        sched = None
        if faulty:
            from ..sim.failure import FailureSchedule
            sched = FailureSchedule(rig.env)
            leader = rig.groups[0]
            sched.crash_at(0.3, leader)
            sched.recover_at(0.55, leader)
            sched.arm()
        return rig

    failures: list[str] = []
    outputs = {}
    for label, faulty in (("golden", False), ("faulty", True)):
        rig = build(faulty)
        rig.start()
        rig.env.run(until=0.8)
        for driver in rig.drivers:
            driver.stop()
        rig.env.run(until=4.0)
        generated = {(0, d.index, s)
                     for d in rig.drivers for s in range(1, d._seq + 1)}
        collected = list(rig.sink.collected)
        deduped = set(collected)
        if label == "golden" and len(collected) != len(deduped):
            failures.append("golden run delivered duplicates")
        missing = generated - deduped
        extra = deduped - generated
        if missing:
            failures.append(f"{label}: {len(missing)} generated ops never "
                            f"delivered (e.g. {sorted(missing)[:3]})")
        if extra:
            failures.append(f"{label}: {len(extra)} unknown ops delivered")
        outputs[label] = deduped
    return failures


# ----------------------------------------------------------------------
# The matrix + CLI
# ----------------------------------------------------------------------
def run_matrix(seeds, protocols=None, out: Optional[Path] = None,
               progress=lambda line: None,
               placement: str = "full") -> list[CaseResult]:
    """seeds × protocols, writing a replayable artifact per failing case."""
    protocols = list(protocols or CHAOS_PROTOCOLS)
    results: list[CaseResult] = []
    for protocol in protocols:
        for seed in seeds:
            schedule = sample_schedule(protocol, seed, placement=placement)
            result = run_case(schedule)
            results.append(result)
            status = "ok" if result.ok else "FAIL"
            progress(f"{protocol:<11} seed {seed:<4} {status}  "
                     f"[{', '.join(l for l in result.fired)}]")
            if not result.ok:
                for line in result.failures:
                    progress(f"    {line}")
                if out is not None:
                    out.mkdir(parents=True, exist_ok=True)
                    path = out / f"failing_{protocol}_seed{seed}.json"
                    payload = json.loads(schedule.to_json())
                    payload["oracle_failures"] = result.failures
                    payload["fired"] = result.fired
                    payload["mttr"] = result.mttr
                    path.write_text(json.dumps(payload, indent=2))
                    progress(f"    schedule written to {path}")
                    if result.trace is not None:
                        # the sampled spans + gauge series + fault windows,
                        # Perfetto-loadable next to the replayable schedule
                        trace_path = (out /
                                      f"failing_{protocol}_seed{seed}"
                                      f"_trace.json")
                        trace_path.write_text(json.dumps(result.trace))
                        progress(f"    trace written to {trace_path}")
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness.chaos",
        description="Randomized chaos matrix over every registered protocol")
    parser.add_argument("--matrix", action="store_true",
                        help="run the full seeds × protocols matrix")
    parser.add_argument("--seeds", type=int, default=20,
                        help="number of seeds per protocol (default 20)")
    parser.add_argument("--seed-base", type=int, default=1000,
                        help="first seed (seeds are base..base+n-1)")
    parser.add_argument("--protocols", nargs="*",
                        default=list(CHAOS_PROTOCOLS),
                        help="protocol subset (default: all four)")
    parser.add_argument("--placement", choices=sorted(CHAOS_PLACEMENTS),
                        default="full",
                        help="replication shape for the matrix runs "
                             "(island shapes unlock region_outage)")
    parser.add_argument("--out", type=Path, default=None,
                        help="directory for failing-schedule artifacts")
    parser.add_argument("--replay", type=Path, default=None,
                        help="re-run one failing schedule JSON artifact")
    parser.add_argument("--drill", action="store_true",
                        help="also run the rig exactly-once drills")
    args = parser.parse_args(argv)

    if args.replay is not None:
        schedule = ChaosSchedule.from_json(args.replay.read_text())
        result = run_case(schedule)
        print(f"{schedule.protocol} seed {schedule.seed}: "
              f"{'ok' if result.ok else 'FAIL'}")
        for line in result.fired:
            print(f"  fired: {line}")
        for sample in result.mttr:
            mttr_s = sample["mttr_s"]
            shown = "never recovered" if mttr_s is None else f"{mttr_s * 1e3:.2f} ms"
            print(f"  mttr: {sample['fault']} healed at {sample['stop']}s "
                  f"-> {shown}")
        for line in result.failures:
            print(f"  oracle: {line}")
        return 0 if result.ok else 1

    if not args.matrix and not args.drill:
        parser.error("nothing to do: pass --matrix and/or --drill")

    rc = 0
    if args.matrix:
        seeds = range(args.seed_base, args.seed_base + args.seeds)
        results = run_matrix(seeds, args.protocols, out=args.out,
                             progress=print, placement=args.placement)
        failed = [r for r in results if not r.ok]
        print(f"matrix: {len(results) - len(failed)}/{len(results)} cases ok")
        if failed:
            rc = 1
    if args.drill:
        for seed in range(3):
            failures = run_exactly_once_drill(seed)
            status = "ok" if not failures else "FAIL"
            print(f"exactly-once drill seed {seed}: {status}")
            for line in failures:
                print(f"  {line}")
            if failures:
                rc = 1
    return rc


if __name__ == "__main__":
    sys.exit(main())
