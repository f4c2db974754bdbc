"""RunBuffer correctness: equivalence with the tree-backed buffer.

The load-bearing property behind running every stabilizer on
:class:`RunBuffer`: under the ingestion contract Algorithm 3 enforces (per-origin monotone timestamps —
FIFO links + Property 2, policed by ``PartitionTime``), the run buffer must
produce *op-for-op identical* stable serializations and identical ``min_ts``
to the paper's red–black tree buffer, for any interleaving of batches,
at-least-once redeliveries, heartbeats, and stabilization points.  The test
drives both buffers through a miniature Algorithm 3 ingestion loop —
duplicate suppression included — and compares every observable after every
round.

A second group pins the safety story: a same-origin out-of-order insert
(impossible through the protocol, a FIFO/Property-2 violation if it ever
happens) must raise instead of silently corrupting the sorted-run invariant.

A third pins ``pop_stable``'s one sort against the k-way ``heapq.merge`` of
the per-origin prefixes it replaced.
"""

import heapq

import pytest
import test_eunomia_service
import test_gst_units
import test_receiver
from hypothesis import given, settings
from hypothesis import strategies as st
from mutants import MUTANTS
from rbtree import TreeOpBuffer
from runbuffer_probes import min_ts

from repro.baselines.gst import CurePartition, GentleRainPartition
from repro.core import EunomiaConfig
from repro.core.service import StabilizerBase
from repro.datastruct import RunBuffer
from repro.geo.system import GeoSystemSpec, build_geo_system
from repro.harness.loadgen import build_eunomia_rig
from repro.metrics import MetricsHub
from repro.sim import Environment
from repro.workload import WorkloadSpec


# ----------------------------------------------------------------------
# The Algorithm 3 ingestion harness (shared by both buffers under test)
# ----------------------------------------------------------------------
class MiniStabilizer:
    """PartitionTime dedup + periodic FIND_STABLE over one buffer."""

    def __init__(self, buffer, n_partitions):
        self.buffer = buffer
        self.partition_time = [0] * n_partitions
        self.stable_time = 0
        self.emitted = []

    def add_batch(self, partition, ops):
        """Alg. 3 lines 1–6: skip duplicates, advance PartitionTime."""
        pt = self.partition_time[partition]
        for ts, seq in ops:
            if ts <= pt:
                continue  # at-least-once redelivery
            pt = ts
            if ts > self.stable_time:
                self.buffer.add(ts, partition, seq, (ts, partition, seq))
        self.partition_time[partition] = pt

    def heartbeat(self, partition, ts):
        if ts > self.partition_time[partition]:
            self.partition_time[partition] = ts

    def stabilize(self):
        """Alg. 3 lines 7–11: emit the ordered stable prefix."""
        stable = min(self.partition_time)
        if stable > self.stable_time:
            self.stable_time = stable
        run = self.buffer.pop_stable(self.stable_time)
        self.emitted.extend(run)
        return run


# One script = an interleaved sequence of protocol events.  Timestamps per
# partition are made monotone by construction (the uplink guarantees this);
# duplicates are injected by re-sending a batch verbatim.
events = st.lists(
    st.one_of(
        st.tuples(st.just("batch"), st.integers(0, 3),
                  st.lists(st.integers(1, 8), min_size=1, max_size=5)),
        st.tuples(st.just("dup_last"), st.integers(0, 3)),
        st.tuples(st.just("heartbeat"), st.integers(0, 3),
                  st.integers(1, 30)),
        st.tuples(st.just("stabilize")),
    ),
    max_size=60,
)


def run_script(script, buffer):
    """Feed one event script; return (emitted runs, min_ts trace)."""
    stab = MiniStabilizer(buffer, n_partitions=4)
    clock = [0] * 4
    seq = [0] * 4
    last_batch = [None] * 4
    min_trace = []
    for event in script:
        kind = event[0]
        if kind == "batch":
            _, p, increments = event
            batch = []
            for inc in increments:
                clock[p] += inc
                seq[p] += 1
                batch.append((clock[p], seq[p]))
            last_batch[p] = batch
            stab.add_batch(p, batch)
        elif kind == "dup_last":
            _, p = event
            if last_batch[p]:
                stab.add_batch(p, last_batch[p])  # verbatim retransmission
        elif kind == "heartbeat":
            _, p, inc = event
            clock[p] += inc
            stab.heartbeat(p, clock[p])
        else:
            stab.stabilize()
        min_trace.append(min_ts(buffer))
    # Final heartbeats + stabilize drain everything (as quiescing does).
    top = max(clock) + 1
    for p in range(4):
        stab.heartbeat(p, top)
    stab.stabilize()
    min_trace.append(min_ts(buffer))
    assert len(buffer) == 0
    return stab.emitted, min_trace


class TestRunBufferEquivalence:
    @given(script=events)
    @settings(max_examples=120, deadline=None)
    def test_identical_serialization_and_min_ts_vs_rbtree(self, script):
        runs_out, runs_min = run_script(script, RunBuffer())
        tree_out, tree_min = run_script(script, TreeOpBuffer())
        assert runs_out == tree_out     # bit-identical stable serialization
        assert runs_min == tree_min     # same stability floor at every step

    @given(script=events, drop_at=st.integers(1, 40))
    @settings(max_examples=60, deadline=None)
    def test_drop_stable_equals_pop_stable_count(self, script, drop_at):
        """The follower fast path prunes exactly the materialized prefix."""
        popper = MiniStabilizer(RunBuffer(), 4)
        dropper = MiniStabilizer(RunBuffer(), 4)
        clock = [0] * 4
        seq = [0] * 4
        for event in script:
            if event[0] != "batch":
                continue
            _, p, increments = event
            batch = []
            for inc in increments:
                clock[p] += inc
                seq[p] += 1
                batch.append((clock[p], seq[p]))
            popper.add_batch(p, batch)
            dropper.add_batch(p, batch)
        popped = popper.buffer.pop_stable(drop_at)
        dropped = dropper.buffer.drop_stable(drop_at)
        assert dropped == len(popped)
        assert len(dropper.buffer) == len(popper.buffer)
        assert min_ts(dropper.buffer) == min_ts(popper.buffer)


def _merge_reference(runs, stable_ts):
    """The k-way ``heapq.merge`` drain ``pop_stable`` replaced: split each
    run's ``ts <= stable_ts`` prefix off, merge the prefixes."""
    prefixes, rest = [], []
    for run in runs:
        cut = sum(1 for entry in run if entry[0] <= stable_ts)
        prefixes.append(run[:cut])
        rest.append(run[cut:])
    return [entry[3] for entry in heapq.merge(*prefixes)], rest


#: 1–80 origins (ids drawn sparse and out of order), 0–6 entries each;
#: timestamps strictly increase per origin and collide freely across them
origin_runs = st.dictionaries(
    st.integers(0, 500),
    st.lists(st.integers(1, 4), max_size=6),
    min_size=1, max_size=80,
)


class TestSortEqualsMerge:
    @given(runs=origin_runs, stable_ts=st.integers(0, 26))
    @settings(max_examples=150, deadline=None)
    def test_pop_stable_equals_heapq_merge(self, runs, stable_ts):
        """Sorting the concatenated prefixes is the k-way merge, op for op:
        the ``(ts, origin, seq)`` keys are unique, so the sorted order is
        the only order either can produce."""
        buf = RunBuffer()
        entries = []
        for origin, increments in runs.items():
            run, ts = [], 0
            for seq, inc in enumerate(increments, 1):
                ts += inc
                run.append((ts, origin, seq, f"{origin}:{seq}"))
            buf.extend_run(run)
            entries.append(run)
        expected, rest = _merge_reference(entries, stable_ts)
        assert buf.pop_stable(stable_ts) == expected
        assert len(buf) == sum(map(len, rest))
        # the remainder is intact: draining it is the merge of the suffixes
        assert buf.pop_stable(10**9) == _merge_reference(rest, 10**9)[0]
        assert len(buf) == 0


class TestMonotonicityContract:
    def test_out_of_order_same_origin_insert_raises(self):
        buf = RunBuffer()
        buf.add(10, 0, 1, "a")
        with pytest.raises(ValueError, match="non-monotone insert"):
            buf.add(9, 0, 2, "b")
        # equal timestamps are a violation too (Alg. 2 stamps strictly)
        with pytest.raises(ValueError, match="non-monotone insert"):
            buf.add(10, 0, 3, "c")
        # the buffer degraded safely: existing state is intact and usable
        assert len(buf) == 1
        assert min_ts(buf) == 10
        buf.add(11, 0, 4, "d")
        assert buf.pop_stable(11) == ["a", "d"]

    def test_other_origins_unaffected_by_one_origin_order(self):
        buf = RunBuffer()
        buf.add(10, 0, 1, "a")
        buf.add(5, 1, 1, "b")    # lower ts, different origin: fine
        assert buf.pop_stable(10) == ["b", "a"]

    def test_stabilizer_never_trips_the_contract(self):
        """Through the real protocol, redeliveries never reach the buffer."""
        stab = MiniStabilizer(RunBuffer(), 2)
        stab.add_batch(0, [(5, 1), (9, 2)])
        stab.add_batch(0, [(5, 1), (9, 2)])      # full retransmission
        stab.add_batch(0, [(9, 2), (12, 3)])     # overlapping suffix resend
        assert len(stab.buffer) == 3
        stab.heartbeat(1, 20)
        assert stab.stabilize() == [(5, 0, 1), (9, 0, 2), (12, 0, 3)]


#: one fixed example of the deferred-set property: a release, a block, then
#: the contract block every example ends with (the property runs in full in
#: ``test_gst_units``; here, without generation and shrinking)
_deferred_set_example = \
    test_gst_units.test_deferred_set_matches_whole_set_rescan.hypothesis.inner_test
_STEPS = [("arrive", 1, 2, 0), ("arrive", 2, 3, 5), ("advance", 3, 4)]


@pytest.mark.parametrize("must_fail", [
    lambda: test_eunomia_service.test_a_frame_out_of_timestamp_order_is_refused(
        test_eunomia_service._service_env()),
    lambda: _deferred_set_example(GentleRainPartition, _STEPS),
    lambda: _deferred_set_example(CurePartition, _STEPS),
    lambda: test_receiver.test_a_frame_out_of_stream_order_is_refused(
        test_receiver._rig(Environment(seed=1234), MetricsHub())),
], ids=["stabilizer-ingest", "gst-gentlerain", "gst-cure", "receiver"])
def test_the_run_contract_kills_run_accepts_non_monotone_append(must_fail):
    """One check guards all three gates: without it, each gate's stream
    contract test stops seeing the refusal it asserts."""
    must_fail()
    with MUTANTS["run_accepts_non_monotone_append"].applied():
        with pytest.raises((AssertionError, pytest.fail.Exception)):
            must_fail()


# ----------------------------------------------------------------------
# End-to-end: the real stabilizers, with the §6 reference swapped in
# ----------------------------------------------------------------------
def _use_tree_buffers(processes):
    """Replace every (not yet started) stabilizer's RunBuffer by the
    reference :class:`TreeOpBuffer`."""
    for proc in processes:
        if isinstance(proc, StabilizerBase):
            assert len(proc.buffer) == 0
            proc.buffer = TreeOpBuffer()


class TestBackendEndToEnd:
    @staticmethod
    def _rig_sequence(backend, n_shards=1):
        rig = build_eunomia_rig(8, config=EunomiaConfig(n_shards=n_shards),
                                seed=33)
        if backend == "rbtree":
            _use_tree_buffers(rig.service_processes)
        rig.sink.record = True
        rig.run(0.4)
        for driver in rig.drivers:
            driver.stop()
        rig.env.run(until=rig.env.now + 0.6)
        return rig.sink.collected

    def test_rig_sequence_identical_across_backends(self):
        reference = self._rig_sequence("rbtree")
        assert reference, "rbtree rig emitted nothing"
        assert self._rig_sequence("runs") == reference

    def test_sharded_rig_with_runs_backend_matches(self):
        assert (self._rig_sequence("runs", n_shards=4)
                == self._rig_sequence("rbtree", n_shards=1))

    def test_geo_system_backends_converge_identically(self):
        spec = GeoSystemSpec(n_dcs=2, partitions_per_dc=2, clients_per_dc=2,
                             seed=13)
        wl = WorkloadSpec(read_ratio=0.8, n_keys=40)
        snapshots = {}
        for backend in ("runs", "rbtree"):
            system = build_geo_system("eunomia", spec, wl)
            if backend == "rbtree":
                for dc in system.datacenters:
                    _use_tree_buffers(dc.extras)
            system.run(2.0)
            system.quiesce(2.0)
            assert system.converged()
            stabilizer = system.datacenters[0].heads[0]
            expected = RunBuffer if backend == "runs" else TreeOpBuffer
            assert isinstance(stabilizer.buffer, expected)
            snapshots[backend] = system.snapshots()
        assert snapshots["runs"] == snapshots["rbtree"]
