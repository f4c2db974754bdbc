"""The uplink frame cache is a pure memoization.

Disabling it (rebuilding every retransmission suffix from the pending run)
must leave the whole run *bit-identical*, including under the loss-induced
ack stalls that make the cache fire in the first place — with and without
the observability surface attached.

The cache is only safe because a frame never changes once cut, so the
frame row contract is pinned first: a window cut from the pending run is
the slice of the same ops, as a tuple, and its frame's ``size_bytes`` is
the §5 per-op sum.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import EunomiaConfig
from repro.core.messages import AddOpBatch
from repro.datastruct.opblock import OpRunBuilder
from repro.geo.system import GeoSystemSpec, build_geo_system
from repro.harness.goldens import run_fingerprint
from repro.kvstore.types import METADATA_OVERHEAD_BYTES, Update
from repro.workload.generator import WorkloadSpec

SPEC = dict(n_dcs=3, partitions_per_dc=2, clients_per_dc=1)
WL = dict(read_ratio=0.5, n_keys=48)
RUN_S = 1.2
DRAIN_S = 2.0


def _system(seed: int, config: EunomiaConfig):
    spec = GeoSystemSpec(seed=seed, **SPEC)
    return build_geo_system("eunomia", spec, WorkloadSpec(**WL),
                            config=config)


# ----------------------------------------------------------------------
# Frame row contract: OpRunBuilder.cut / take == the ops slice, as a tuple
# ----------------------------------------------------------------------
#: per op: (ts increment, metadata-only?, value bytes, vector width)
_OPS = st.lists(st.tuples(st.integers(1, 5), st.booleans(),
                          st.integers(0, 300), st.integers(1, 3)),
                min_size=1, max_size=12)


def _updates(partition, specs, ts=0, seq=0):
    ops = []
    for inc, metadata_only, value_bytes, width in specs:
        ts += inc
        seq += 1
        ops.append(Update(key=seq, value=None if metadata_only else "v",
                          origin_dc=0, partition_index=partition, seq=seq,
                          ts=ts, vts=(ts,) * width, value_bytes=value_bytes))
    return ops


def _assert_same_frame(window, ops):
    assert type(window) is tuple            # shared by R replicas
    assert window == tuple(ops)
    # §5, written out per op: a metadata-only op ships its vector and
    # framing, a full one its value bytes too
    per_op = sum(8 * len(op.vts) + METADATA_OVERHEAD_BYTES
                 + (op.value_bytes if op.value is not None else 0)
                 for op in ops)
    assert AddOpBatch(3, window).size_bytes == per_op


@settings(max_examples=60, deadline=None)
@given(specs=_OPS, more=_OPS, window=st.tuples(st.integers(0, 12),
                                              st.integers(0, 12)))
def test_cut_equals_the_ops_slice_row_for_row(specs, more, window):
    builder = OpRunBuilder()
    ops = _updates(3, specs)
    for op in ops:
        builder.append(op)
    _assert_same_frame(builder.cut(0), ops)
    start, end = sorted(min(i, len(ops) - 1) for i in window)
    _assert_same_frame(builder.cut(start, end + 1), ops[start:end + 1])
    # taking the whole run (a non-fault-tolerant ship) leaves a builder
    # that keeps cutting correct frames
    _assert_same_frame(builder.take(), ops)
    assert len(builder) == 0 and builder.ts == []
    later = _updates(3, more, ts=ops[-1].ts, seq=ops[-1].seq)
    for op in later:
        builder.append(op)
    _assert_same_frame(builder.cut(0), later)
    builder.drop_prefix(1)
    _assert_same_frame(builder.cut(0), later[1:])
    assert builder.ts == [op.ts for op in later[1:]]


# ----------------------------------------------------------------------
# Fault plans (hypothesis-drawn windows, always healed before the drain)
# ----------------------------------------------------------------------
_WINDOW = st.tuples(
    st.floats(min_value=0.15, max_value=0.7),   # start (s)
    st.floats(min_value=0.1, max_value=0.4),    # duration (s)
    st.sampled_from(["loss", "cut", "gray"]),
    st.integers(min_value=0, max_value=SPEC["n_dcs"] - 1),  # src dc
    st.integers(min_value=1, max_value=SPEC["n_dcs"] - 1),  # dst dc offset
)

_PLANS = st.lists(_WINDOW, min_size=0, max_size=3)


def _arm_uplink_faults(system, plan) -> None:
    """Degrade partition↔service links (the lane the frame cache serves).

    Both directions take the fault: dropping AddOpBatch frames forces
    whole-suffix retransmission, dropping BatchAck replies forces the ack
    stall that makes an *identical* suffix get re-shipped — the cache-hit
    case under test.
    """
    sched = system.failures()
    dcs = system.datacenters
    net = system.env.network
    for start, dur, kind, a_idx, _off in plan:
        dc = dcs[a_idx]
        pairs = []
        for p in dc.partitions:
            for replica in p.uplink.replicas:
                pairs.append((p, replica))
                pairs.append((replica, p))
        if kind == "cut":
            group_a = list(dc.partitions)
            group_b = [r for p in dc.partitions for r in p.uplink.replicas]
            sched.partition_at(start, group_a, group_b)
            sched.heal_at(start + dur, group_a, group_b)
        elif kind == "gray":
            sched.degrade_links_at(start, pairs, 0.004)
            sched.restore_links_at(start + dur, pairs)
        else:
            def begin(ps=pairs):
                for s, d in ps:
                    net.set_link_loss(s, d, 0.35)

            def end(ps=pairs):
                for s, d in ps:
                    net.set_link_loss(s, d, 0.0)

            sched.at(start, begin, "uplink-loss-on")
            sched.at(start + dur, end, "uplink-loss-off")


# ----------------------------------------------------------------------
# Uplink frame cache: pure memoization, bit-identical when disabled
# ----------------------------------------------------------------------
class _NeverCached(dict):
    """A frame cache that keeps nothing: every window is rebuilt."""

    def __setitem__(self, key, value):
        pass


def _disable_frame_cache(system) -> None:
    """Force every retransmission suffix to be rebuilt from the pending run."""
    for dc in system.datacenters:
        for p in dc.partitions:
            p.uplink.stream.frames = _NeverCached()


def _run_uplink(seed: int, plan, cache: bool, observe: bool = False):
    config = EunomiaConfig(fault_tolerant=True, n_replicas=2)
    system = _system(seed, config)
    if not cache:
        _disable_frame_cache(system)
    _arm_uplink_faults(system, plan)
    if observe:
        system.observe(sample_every=16)
    system.run(RUN_S)
    system.quiesce(DRAIN_S)
    reused = sum(p.uplink.frames_reused
                 for dc in system.datacenters for p in dc.partitions)
    retx = sum(p.uplink.retransmissions
               for dc in system.datacenters for p in dc.partitions)
    return run_fingerprint(system), reused, retx


@settings(max_examples=6, deadline=None)
@given(plan=_PLANS, seed=st.integers(min_value=0, max_value=2**10))
def test_uplink_frame_cache_is_pure_under_ack_stalls(plan, seed):
    """Resend-after-ack-stall with the suffix cache is bit-identical to
    rebuilding every frame: same fingerprints, same visibility series,
    same retransmission count — the cache touches no RNG and no state."""
    cached, _reused, retx_a = _run_uplink(seed, plan, cache=True)
    rebuilt, reused_off, retx_b = _run_uplink(seed, plan, cache=False)
    assert cached == rebuilt
    assert retx_a == retx_b
    assert reused_off == 0          # the kill-switch actually disengaged it


def test_uplink_ack_stall_reuses_frames_and_converges():
    """A one-way ack blackout across the drain boundary forces identical
    suffix resends: the cache must fire (frames_reused > 0) and the run
    must still converge once the acks flow again."""
    config = EunomiaConfig(fault_tolerant=True, n_replicas=2)
    system = _system(seed=9, config=config)
    dc = system.datacenters[0]
    replicas = [r for p in dc.partitions for r in p.uplink.replicas]
    sched = system.failures()
    # Block BatchAck (replica → partition) only; AddOpBatch keeps flowing.
    sched.partition_at(0.8, replicas, list(dc.partitions), symmetric=False)
    sched.heal_at(2.0, replicas, list(dc.partitions))
    system.run(1.0)
    system.quiesce(2.5)
    reused = sum(p.uplink.frames_reused for p in dc.partitions)
    retx = sum(p.uplink.retransmissions for p in dc.partitions)
    assert retx > 0
    assert reused > 0
    assert system.converged()


def test_uplink_frame_cache_pure_with_observability():
    """Cache purity holds with tracing/SLO/gauges attached (obs draws no
    randomness, so the twin runs must still match bit-for-bit)."""
    plan = [(0.25, 0.3, "loss", 1, 1)]
    cached, _, _ = _run_uplink(7, plan, cache=True, observe=True)
    rebuilt, _, _ = _run_uplink(7, plan, cache=False, observe=True)
    assert cached == rebuilt
