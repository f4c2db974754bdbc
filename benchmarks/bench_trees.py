"""§6 ablation — the unstable-op buffers under Eunomia's access mix.

Two layers of benchmarks:

* ``bench_opbuffer_ingestion`` — the stabilization hot path end to end at
  the buffer level: per-partition monotone batches interleaved at random
  (exactly what Algorithm 3 feeds the buffer), periodic FIND_STABLE drains.
  Swept over buffer × batch size; wall clock is printed.  The bar the run
  buffer replaced the tree on — its O(1) appends beat the red–black tree's
  O(log n) inserts by ≥3× at batch ≥ 8 — is asserted as a ratio inside one
  process by ``bench_ablations.py::bench_opbuffer_sweep``.
* ``bench_pop_stable_rig_shape`` — stable-prefix extraction at the §7.1
  rig's 75 origins × 3 entries: the run buffer's one ``list.sort`` is
  asserted ≥ 2× faster than the k-way ``heapq.merge`` it replaced;
* the red–black tree micro-benches (insert-heavy mix, random inserts,
  prefix extraction), kept as the tree-level ground truth of the paper's
  §6 structure.
"""

import heapq
import random
import time
from collections import deque

import pytest

from rbtree import RedBlackTree, TreeOpBuffer
from repro.datastruct import RunBuffer

N_OPS = 20_000

#: the §6 pair, by the names the bench ids carry
BUFFERS = {"runs": RunBuffer, "rbtree": TreeOpBuffer}


# ----------------------------------------------------------------------
# Buffer-level ingestion: backend x batch size
# ----------------------------------------------------------------------
def monotone_batches(n_partitions, batch, n_ops, seed=17):
    """Randomly interleaved batches, monotone timestamps per partition."""
    rng = random.Random(seed)
    clocks = [0] * n_partitions
    seqs = [0] * n_partitions
    batches = []
    produced = 0
    while produced < n_ops:
        p = rng.randrange(n_partitions)
        ops = []
        for _ in range(batch):
            clocks[p] += rng.randrange(1, 10)
            seqs[p] += 1
            ops.append((clocks[p], p, seqs[p]))
        batches.append(ops)
        produced += batch
    return batches


def opbuffer_ingestion(backend, batches, stab_every):
    """Ingest every batch; drain the stable prefix every ``stab_every``."""
    buf = BUFFERS[backend]()
    add = buf.add
    floor = 0
    for i, ops in enumerate(batches):
        for ts, origin, seq in ops:
            add(ts, origin, seq, None)
        if i % stab_every == stab_every - 1:
            floor = max(floor, ops[-1][0] - 200)
            buf.pop_stable(floor)
    buf.pop_stable(float("inf"))
    return buf


@pytest.mark.parametrize("batch", [1, 8, 64],
                         ids=["b1", "b8", "b64"])
@pytest.mark.parametrize("backend", list(BUFFERS))
def bench_opbuffer_ingestion(benchmark, backend, batch):
    batches = monotone_batches(n_partitions=16, batch=batch, n_ops=N_OPS)
    stab_every = max(1, 400 // batch)   # ~one drain per 400 ops, every size
    result = benchmark(opbuffer_ingestion, backend, batches, stab_every)
    assert result.total_added >= N_OPS
    assert len(result) == 0             # fully drained


# ----------------------------------------------------------------------
# Stable-prefix extraction at the §7.1 rig's shape: sort vs k-way merge
# ----------------------------------------------------------------------
RIG_ORIGINS, RIG_RUN = 75, 3


def rig_shaped_runs(seed=29):
    """75 origin runs of 3 entries and a floor that leaves some partial."""
    rng = random.Random(seed)
    runs = []
    for origin in rng.sample(range(RIG_ORIGINS), RIG_ORIGINS):
        ts = rng.randrange(0, 600)
        run = []
        for seq in range(1, RIG_RUN + 1):
            ts += rng.randrange(1, 200)
            run.append((ts, origin, seq, None))
        runs.append(run)
    return runs, 800


def merge_reference_pop(runs, stable_ts):
    """The drain ``pop_stable`` replaced: split each run's stable prefix
    off its deque, then ``heapq.merge`` the prefixes."""
    prefixes = []
    for run in runs:
        if not run or run[0][0] > stable_ts:
            continue
        if run[-1][0] <= stable_ts:
            prefix = list(run)
            run.clear()
        else:
            prefix = []
            while run[0][0] <= stable_ts:
                prefix.append(run.popleft())
        prefixes.append(prefix)
    return [entry[3] for entry in heapq.merge(*prefixes)]


def _timed_pops(make, pop, stable_ts, copies=400):
    """Host seconds of ``copies`` pops, each on a freshly filled buffer
    (the filling is not timed)."""
    buffers = [make() for _ in range(copies)]
    start = time.perf_counter()
    for buf in buffers:
        pop(buf, stable_ts)
    return time.perf_counter() - start


def bench_pop_stable_rig_shape(benchmark):
    """``RunBuffer.pop_stable`` sorts the concatenated prefixes in C; the
    Python-level k-way merge it replaced is asserted ≥ 2× slower inside
    one process.  Both sides pay their prefix split; with it the ratio is
    about 3× on a 2-core VM, Python 3.11 (merge against sort alone, on the
    already-split prefixes: 4.6–5.1×)."""
    runs, stable_ts = rig_shaped_runs()

    def make_runbuffer():
        buf = RunBuffer()
        for run in runs:
            buf.extend_run(run)
        return buf

    def make_deques():
        return [deque(run) for run in runs]

    assert (make_runbuffer().pop_stable(stable_ts)
            == merge_reference_pop(make_deques(), stable_ts))

    def compare():
        sort_s = merge_s = float("inf")
        for _ in range(5):              # interleaved, so drift hits both
            sort_s = min(sort_s, _timed_pops(
                make_runbuffer, RunBuffer.pop_stable, stable_ts))
            merge_s = min(merge_s, _timed_pops(
                make_deques, merge_reference_pop, stable_ts))
        return sort_s, merge_s

    sort_s, merge_s = benchmark.pedantic(compare, rounds=1, iterations=1)
    print(f"\npop_stable at {RIG_ORIGINS}x{RIG_RUN}: sort {sort_s * 1e3:.2f} "
          f"ms, heapq.merge {merge_s * 1e3:.2f} ms per 400 pops "
          f"({merge_s / sort_s:.1f}x)")
    assert merge_s >= 2.0 * sort_s


# ----------------------------------------------------------------------
# Tree-level primitives (the paper's §6 red-black tree)
# ----------------------------------------------------------------------


def eunomia_access_pattern(tree_cls, n_ops=N_OPS, stab_every=500):
    """Insert timestamps in arrival order; pop the stable prefix periodically.

    Timestamps are mostly increasing with bounded out-of-order arrivals —
    the shape Eunomia sees from loosely synchronized partitions.
    """
    rng = random.Random(7)
    tree = tree_cls()
    clock = 0
    stable = 0
    for i in range(n_ops):
        clock += rng.randrange(1, 10)
        tree.insert(clock - rng.randrange(0, 50), i)
        if i % stab_every == stab_every - 1:
            stable = clock - 100
            tree.pop_leq(stable)
    return tree


@pytest.mark.parametrize("tree_cls", [RedBlackTree], ids=["red-black"])
def bench_eunomia_buffer_pattern(benchmark, tree_cls):
    benchmark(eunomia_access_pattern, tree_cls)


@pytest.mark.parametrize("tree_cls", [RedBlackTree], ids=["red-black"])
def bench_random_inserts(benchmark, tree_cls):
    rng = random.Random(11)
    keys = [rng.randrange(10**9) for _ in range(N_OPS)]

    def insert_all():
        tree = tree_cls()
        for k in keys:
            tree.insert(k, k)
        return tree

    benchmark(insert_all)


@pytest.mark.parametrize("tree_cls", [RedBlackTree], ids=["red-black"])
def bench_ordered_prefix_extraction(benchmark, tree_cls):
    rng = random.Random(13)
    keys = [rng.randrange(10**9) for _ in range(N_OPS)]

    def build_and_drain():
        tree = tree_cls()
        for k in keys:
            tree.insert(k, k)
        while tree:
            tree.pop_leq(tree.min_item()[0] + 10**7)

    benchmark(build_and_drain)
