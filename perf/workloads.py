"""The four benchmark workloads and what is read from a finished run.

A workload builds its system from the seed alone; the program only ever
receives the ``GeoSystemSpec`` / ``WorkloadSpec`` / ``EunomiaConfig`` (or rig
arguments) built here.  Load is closed-loop and lives inside the simulation
(``SessionClient``s / ``PartitionEmulator``s), so there is no real-time
generator.  Everything read back after ``run()`` comes from public
attributes; *sim* values repeat exactly for a seed.

Sizing: ``sim_seconds`` is the simulated length of one timed repetition at
``--seconds REFERENCE_SECONDS``; it scales linearly with ``--seconds``.  The
values were chosen from timings at commit 1117f58 on a 2-core box so that one
repetition costs about 4 s of host time (see README, "Measured").
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from typing import Callable

from repro import GeoSystemSpec, WorkloadSpec
from repro.checker import CausalChecker
from repro.core import EunomiaConfig
from repro.core.service import StabilizerBase
from repro.core.shard import ShardCoordinator
from repro.geo.receiver import Receiver
from repro.geo.system import build_geo_system
from repro.harness.goldens import run_fingerprint
from repro.harness.loadgen import build_eunomia_rig, build_sequencer_rig
from repro.metrics import percentile, steady_window, throughput
from repro.obs import STAGES

from perf.reference import SLICES, calibrated, timed_kernel

__all__ = ["REFERENCE_SECONDS", "REPETITIONS", "STAGE_CHAIN", "WORKLOADS",
           "Workload", "counters", "sequencer_throughput", "sim_seconds_for",
           "stage_waits", "timed_run"]

#: ``--seconds`` at which ``Workload.sim_seconds`` applies as written
REFERENCE_SECONDS = 15
#: timed repetitions per run; their host seconds add up to about ``--seconds``
REPETITIONS = 3
#: receiver backlog per DC above which visibility latency is a function of
#: run length rather than of the system (the sustainability guard)
MAX_RECEIVER_BACKLOG = 64
#: emulated partitions (and sequencer clients) of the §7.1 rigs
RIG_PARTITIONS = 75

#: the stages whose waits are reported, in pipeline order; ``issue`` only
#: anchors the chain (``commit`` waits from it)
STAGE_CHAIN = ("commit", "uplink_ship", "wal_fsync", "ingest", "merge",
               "propagate", "recv_apply", "visible")
assert set(STAGE_CHAIN) < set(STAGES)


def _sha(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()[:20]


def _sum(objects, attr: str) -> int:
    return sum(getattr(obj, attr) for obj in objects)


def counters(env) -> dict:
    """Exact work counters, summed over every process of the deployment."""
    procs = env.network.processes()
    uplinks = [p.uplink for p in procs if hasattr(p, "uplink")]
    stabilizers = [p for p in procs if isinstance(p, StabilizerBase)]
    coordinators = [p for p in procs if isinstance(p, ShardCoordinator)]
    wals = [p.wal for p in stabilizers if p.wal is not None]
    receivers = [p for p in procs if isinstance(p, Receiver)]
    partitions = [p for p in procs if hasattr(p, "local_updates")]
    clients = [p for p in procs if hasattr(p, "ops_done")]
    net = env.network
    return {
        "processed_events": env.loop.processed_events,
        "messages_sent": net.messages_sent,
        "messages_attempted": net.messages_attempted,
        "bytes_sent": net.bytes_sent,
        "messages_dropped": net.messages_dropped,
        "uplink_ops_shipped": _sum(uplinks, "ops_shipped"),
        "uplink_retransmissions": _sum(uplinks, "retransmissions"),
        "uplink_frames_reused": _sum(uplinks, "frames_reused"),
        "uplink_heartbeats_sent": _sum(uplinks, "heartbeats_sent"),
        # PROCESS_STABLE fires every stabilization_interval on each of them
        "stable_rounds": sum(round(env.now / p.config.stabilization_interval)
                             for p in stabilizers),
        "ops_stabilized": _sum(stabilizers, "ops_stabilized"),
        "merge_rounds": _sum(coordinators, "merge_rounds"),
        "ops_merged": _sum(coordinators, "ops_stabilized"),
        "wal_commits": _sum(wals, "commits"),
        "wal_bytes_durable": _sum(wals, "bytes_durable"),
        "wal_fsync_failures": _sum(wals, "fsync_failures"),
        "receiver_applied": _sum(receivers, "applied"),
        "receiver_duplicates_dropped": _sum(receivers, "duplicates_dropped"),
        "receiver_backlog_end": sum(r.backlog() for r in receivers),
        "receiver_backlog_max": max((r.backlog() for r in receivers),
                                    default=0),
        "local_updates": _sum(partitions, "local_updates"),
        "remote_applies": _sum(partitions, "remote_applies"),
        "client_ops_done": _sum(clients, "ops_done"),
        "client_retries": _sum(clients, "retries"),
    }


def stage_waits(tracer) -> dict[str, list[float]]:
    """Sim ms each sampled op waited to reach a stage of STAGE_CHAIN from
    the previous chain stage it visited.  Origin-side stages count once (the
    first time reached); ``recv_apply`` and ``visible`` once per remote site,
    ``recv_apply`` waiting from the op's last origin-side stage (so it
    includes the WAN hop)."""
    waits: dict[str, list[float]] = {stage: [] for stage in STAGE_CHAIN}
    origin_side = ("issue",) + STAGE_CHAIN[:-2]
    for span in tracer.iter_spans():
        first: dict[str, float] = {}
        remote: dict[int, dict[str, float]] = {}
        for stage, when, site in span.events:
            if stage in ("recv_apply", "visible"):
                remote.setdefault(site, {}).setdefault(stage, when)
            elif stage in origin_side:
                first[stage] = min(when, first.get(stage, when))
        # replicas reach a stage at different times, so the order in which
        # an op first visits the stages is taken from the times themselves
        visited = sorted(first, key=lambda s: (first[s], origin_side.index(s)))
        for before, stage in zip(visited, visited[1:]):
            if stage != "issue":
                waits[stage].append((first[stage] - first[before]) * 1e3)
        left = first[visited[-1]] if visited else None
        for stages in remote.values():
            arrived = stages.get("recv_apply", left)
            if "recv_apply" in stages and left is not None:
                waits["recv_apply"].append((arrived - left) * 1e3)
            if "visible" in stages and arrived is not None:
                waits["visible"].append((stages["visible"] - arrived) * 1e3)
    return waits


def timed_run(env, sim_seconds: float) -> tuple[float, float, tuple]:
    """Advance ``env`` by ``sim_seconds`` in SLICES contiguous windows with a
    reference-kernel call around each (see ``perf/reference.py``).

    Returns (raw host seconds inside ``run``, calibrated host seconds, steady
    window).  Back-to-back ``run(until=...)`` calls fire exactly the events
    one call would, so the simulation does not depend on the slicing.
    """
    clock = time.perf_counter
    start = env.now
    raw, kernels = [], [timed_kernel()]
    for k in range(1, SLICES + 1):
        began = clock()
        env.run(until=start + sim_seconds * k / SLICES)
        raw.append(clock() - began)
        kernels.append(timed_kernel())
    return sum(raw), calibrated(raw, kernels), steady_window(start, env.now)


def _percentiles(values: list[float], *pcts: float) -> list[float]:
    return [percentile(values, p) if values else 0.0 for p in pcts]


class GeoRun:
    """One built ``GeoSystem`` and what the benchmark reads from it."""

    def __init__(self, system):
        self.system = system
        self.env = system.env
        self._sent = None

    def count_requests(self) -> None:
        """Checked repetition only: count the requests each client issues
        (``Process.send`` shadowed per instance), to find ops that were
        issued and never completed."""
        self._sent = sent = [0]
        for client in self.system.clients:
            def send(dst, msg, _send=client.send):
                sent[0] += 1
                _send(dst, msg)
            client.send = send

    def observe(self):
        return self.system.observe(sample_every=16, gauges=False).tracer

    def run(self, sim_seconds: float) -> tuple[float, float]:
        """(raw, calibrated) host seconds of the measured region.  The
        steady window is ``GeoSystem.window()``'s, kept here because the
        region is driven in slices rather than by one ``system.run``."""
        raw_s, host_s, self.window = timed_run(self.env, sim_seconds)
        return raw_s, host_s

    def ops(self) -> int:
        return _sum(self.system.clients, "ops_done")

    def _vis(self, label: str) -> list[float]:
        lo, hi = self.window
        n = self.system.spec.n_dcs
        return [v for k in range(n) for m in range(n) if k != m
                for t, v in self.system.metrics.point_series(
                    f"{label}:{k}->{m}") if lo <= t <= hi]

    def _latency(self, kind: str) -> list[float]:
        lo, hi = self.window
        return [v for dc in range(self.system.spec.n_dcs)
                for t, v in self.system.metrics.point_series(
                    f"latency_ms:{kind}:dc{dc}") if lo <= t <= hi]

    def sim(self) -> dict:
        vis = self._vis("vis_extra_ms")
        p50, p99 = _percentiles(vis, 50, 99)
        up50, up99 = _percentiles(self._latency("update"), 50, 99)
        (total50,) = _percentiles(self._vis("vis_total_ms"), 50)
        return {
            "sim_throughput_ops_s": throughput(
                self.system.metrics.mark_times("ops"), self.window),
            "vis_p50_ms": p50, "vis_p99_ms": p99, "vis_samples": len(vis),
            "vis_total_p50_ms": total50,
            "update_lat_p50_ms": up50, "update_lat_p99_ms": up99,
            "read_lat_p99_ms": _percentiles(self._latency("read"), 99)[0],
        }

    def digest(self) -> str:
        return _sha(run_fingerprint(self.system))

    def failures(self) -> list[str]:
        """Checks that hold right after ``run`` on every repetition (only
        Eunomia sites have a receiver)."""
        worst = max((dc.receiver.backlog() for dc in self.system.datacenters
                     if dc.receiver is not None), default=0)
        if worst > MAX_RECEIVER_BACKLOG:
            return [f"receiver backlog {worst} > {MAX_RECEIVER_BACKLOG} at "
                    "end of run: visibility latency depends on run length"]
        return []

    def check(self, history) -> tuple[int, int, list[str]]:
        """Drain, then (attempted, failed, reasons) of the checked repetition."""
        system = self.system
        problems = self.failures()
        system.quiesce(3.0)
        attempted = self._sent[0]
        unfinished = attempted - self.ops()
        work = counters(self.env)
        missing = max(0, work["local_updates"] * (system.spec.n_dcs - 1)
                      - work["remote_applies"])
        checker = CausalChecker(history)
        violations = checker.check() + checker.check_write_read_pairs()
        if unfinished:
            problems.append(f"{unfinished} client ops issued, never completed")
        if missing:
            problems.append(f"{missing} remote installs missing after drain")
        if not system.converged():
            problems.append("datacenters did not converge")
            missing = max(missing, 1)
        if violations:
            problems.append(f"{len(violations)} causal violations, first: "
                            f"{violations[0]}")
        return attempted, unfinished + missing + len(violations), problems


class RigRun:
    """One built §7.1 ``ServiceRig`` and what the benchmark reads from it."""

    def __init__(self, rig):
        self.system = rig
        self.env = rig.env
        self.latencies: list[tuple[float, float]] = []   # (seconds, at)
        sink = rig.sink
        sink.record = True
        handler = sink.on_remote_stable_batch
        latencies = self.latencies

        def stamped(msg, src):
            now = sink.now
            latencies.extend((now - op.commit_time, now) for op in msg.ops)
            handler(msg, src)

        # the arrival stamp is part of the workload in every repetition
        sink.on_remote_stable_batch = stamped

    def count_requests(self) -> None:
        """Nothing to shadow: emulators publish ``generated``."""

    def observe(self):
        return self.system.observe()

    def run(self, sim_seconds: float) -> tuple[float, float]:
        raw_s, host_s, self.window = timed_run(self.env, sim_seconds)
        return raw_s, host_s

    def ops(self) -> int:
        return self.system.sink.received

    def sim(self) -> dict:
        lo, hi = self.window
        vis = [lat * 1e3 for lat, t in self.latencies if lo <= t <= hi]
        p50, p99 = _percentiles(vis, 50, 99)
        return {
            "sim_throughput_ops_s": throughput(
                self.system.metrics.mark_times(self.system.throughput_mark),
                self.window),
            "vis_p50_ms": p50, "vis_p99_ms": p99, "vis_samples": len(vis),
            "vis_total_p50_ms": p50,
            "update_lat_p50_ms": 0.0, "update_lat_p99_ms": 0.0,
            "read_lat_p99_ms": 0.0,
        }

    def digest(self) -> str:
        sink = self.system.sink
        return _sha([sink.collected, sink.received, sink.last_batch_ts,
                     _sum(self.system.drivers, "generated")])

    def failures(self) -> list[str]:
        return []

    def check(self, history) -> tuple[int, int, list[str]]:
        rig = self.system
        for driver in rig.drivers:
            driver.stop()
        rig.env.run(until=rig.env.now + 2.0)
        generated = _sum(rig.drivers, "generated")
        uids = rig.sink.collected
        duplicated = len(uids) - len(set(uids))
        missing = generated - len(set(uids))
        problems = []
        if duplicated:
            problems.append(f"{duplicated} ops arrived at the sink twice")
        if missing:
            problems.append(f"{missing} generated ops never reached the sink")
        if rig.sink.received != len(uids):
            problems.append("sink.received disagrees with its uid record")
        return generated, duplicated + abs(missing), problems


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: simulated seconds of one timed repetition at REFERENCE_SECONDS
    sim_seconds: float
    #: simulated seconds of the traced repetition (and its untraced twin)
    trace_sim_seconds: float
    #: (seed, scheduler, history) -> GeoRun | RigRun
    build: Callable
    #: also time one repetition on the time-wheel scheduler (trace run)
    wheel_check: bool = False
    #: also run the sequencer rig for the Fig. 2 ratio (trace run)
    sequencer_check: bool = False


def _geo(protocol: str, spec: dict, workload: dict, **options) -> Callable:
    """``options`` are factories: a config object is built per system."""
    def build(seed: int, scheduler: str = "heap", history=None):
        system = build_geo_system(
            protocol, GeoSystemSpec(seed=seed, scheduler=scheduler, **spec),
            WorkloadSpec(**workload), history=history,
            **{name: make() for name, make in options.items()})
        return GeoRun(system)
    return build


def _rig(seed: int, scheduler: str = "heap", history=None):
    if scheduler != "heap":
        raise ValueError("the rig builder has no scheduler axis")
    return RigRun(build_eunomia_rig(RIG_PARTITIONS, seed=seed))


_FULL = dict(n_dcs=3, partitions_per_dc=8, clients_per_dc=16)

WORKLOADS = (
    Workload(
        "geo_read_heavy",
        "paper default mix (Fig. 5, 90:10 uniform): client-partition reads "
        "dominate, so sim/client/partition/kvstore carry it and the "
        "replication dataplane is nearly idle",
        sim_seconds=8.0, trace_sim_seconds=2.0, wheel_check=True,
        build=_geo("eunomia", _FULL, dict(read_ratio=0.9, n_keys=1000))),
    Workload(
        "geo_update_heavy_ft",
        "10:90 through the fault-tolerant sharded WAL stabilizer (R=2, K=2): "
        "every op crosses uplink frames, WAL group commit, shard merge, "
        "propagation and the receiver, at a sustainable receiver load",
        sim_seconds=8.5, trace_sim_seconds=2.0,
        build=_geo("eunomia",
                   dict(n_dcs=3, partitions_per_dc=4, clients_per_dc=6),
                   dict(read_ratio=0.1, n_keys=500),
                   config=lambda: EunomiaConfig(
                       fault_tolerant=True, n_replicas=2, n_shards=2,
                       durability="wal"))),
    Workload(
        "rig_saturation",
        "section 7.1 rig: 75 emulated partitions offer ~25% more than one "
        "plain stabilizer can order, so sim throughput is its capacity "
        "(Fig. 2) and service + RunBuffer + propagation carry the host time",
        sim_seconds=2.2, trace_sim_seconds=1.0, sequencer_check=True,
        build=_rig),
    Workload(
        "geo_cure_mix",
        "another protocol (Cure vector cut) on the same spine, 50:50 zipf "
        "0.99 over 10k keys: no Eunomia uplink/service/WAL/receiver code "
        "runs, so changes there must not move it and spine changes must",
        sim_seconds=15.0, trace_sim_seconds=2.0,
        build=_geo("cure", _FULL,
                   dict(read_ratio=0.5, n_keys=10000, distribution="zipf",
                        zipf_s=0.99))),
)


def sim_seconds_for(workload: Workload, seconds: float) -> float:
    """Simulated length of one timed repetition for ``--seconds``."""
    return round(workload.sim_seconds * seconds / REFERENCE_SECONDS, 2)


def sequencer_throughput(seed: int, sim_seconds: float) -> float:
    """Sim ops/s of the traditional sequencer under the same rig load."""
    rig = build_sequencer_rig(RIG_PARTITIONS, seed=seed)
    rig.run(sim_seconds)
    return rig.throughput()
