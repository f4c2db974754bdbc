"""Property-based and unit tests for the red–black tree and op buffers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from rbtree import RedBlackTree, TreeOpBuffer
from runbuffer_probes import contains, min_ts

from repro.datastruct import RunBuffer

keys = st.lists(st.integers(min_value=-1000, max_value=1000), max_size=200)


@pytest.mark.parametrize("tree_cls", [RedBlackTree])
class TestTreeBasics:
    def test_empty(self, tree_cls):
        tree = tree_cls()
        assert len(tree) == 0
        assert not tree
        assert 1 not in tree
        assert tree.get(1, "d") == "d"
        with pytest.raises(KeyError):
            tree.min_item()
        with pytest.raises(KeyError):
            tree.pop_min()

    def test_insert_get_overwrite(self, tree_cls):
        tree = tree_cls()
        tree.insert(5, "a")
        tree.insert(5, "b")  # overwrite, not duplicate
        assert len(tree) == 1
        assert tree.get(5) == "b"

    def test_delete_missing_raises(self, tree_cls):
        tree = tree_cls()
        tree.insert(1, 1)
        with pytest.raises(KeyError):
            tree.delete(2)

    def test_items_sorted(self, tree_cls):
        tree = tree_cls()
        data = [5, 3, 8, 1, 9, 7, 2]
        for k in data:
            tree.insert(k, k * 10)
        assert [k for k, _ in tree.items()] == sorted(data)
        tree.validate()

    def test_pop_min_order(self, tree_cls):
        tree = tree_cls()
        for k in [5, 3, 8, 1]:
            tree.insert(k, k)
        popped = [tree.pop_min()[0] for _ in range(4)]
        assert popped == [1, 3, 5, 8]
        assert len(tree) == 0

    def test_pop_leq_extracts_prefix(self, tree_cls):
        tree = tree_cls()
        for k in range(10):
            tree.insert(k, k)
        out = tree.pop_leq(4)
        assert [k for k, _ in out] == [0, 1, 2, 3, 4]
        assert [k for k, _ in tree.items()] == [5, 6, 7, 8, 9]
        tree.validate()

    def test_pop_leq_empty_prefix(self, tree_cls):
        tree = tree_cls()
        tree.insert(10, 10)
        assert tree.pop_leq(5) == []
        assert len(tree) == 1

    @given(data=keys)
    @settings(max_examples=60, deadline=None)
    def test_matches_sorted_dict_model(self, tree_cls, data):
        tree = tree_cls()
        model = {}
        for k in data:
            tree.insert(k, k * 2)
            model[k] = k * 2
        tree.validate()
        assert list(tree.items()) == sorted(model.items())
        assert len(tree) == len(model)

    @given(data=keys, deletions=st.lists(st.integers(-1000, 1000),
                                         max_size=100))
    @settings(max_examples=60, deadline=None)
    def test_interleaved_insert_delete(self, tree_cls, data, deletions):
        tree = tree_cls()
        model = {}
        for k in data:
            tree.insert(k, k)
            model[k] = k
        for k in deletions:
            if k in model:
                assert tree.delete(k) == model.pop(k)
            else:
                with pytest.raises(KeyError):
                    tree.delete(k)
        tree.validate()
        assert list(tree.items()) == sorted(model.items())

    @given(data=keys, bound=st.integers(-1000, 1000))
    @settings(max_examples=60, deadline=None)
    def test_pop_leq_model(self, tree_cls, data, bound):
        tree = tree_cls()
        model = {}
        for k in data:
            tree.insert(k, k)
            model[k] = k
        popped = tree.pop_leq(bound)
        tree.validate()
        expected = sorted((k, v) for k, v in model.items() if k <= bound)
        assert popped == expected
        remaining = sorted((k, v) for k, v in model.items() if k > bound)
        assert list(tree.items()) == remaining


def test_rbtree_max_item():
    tree = RedBlackTree()
    for k in [3, 9, 1]:
        tree.insert(k, k)
    assert tree.max_item() == (9, 9)
    with pytest.raises(KeyError):
        RedBlackTree().max_item()


BUFFERS = {"runs": RunBuffer, "rbtree": TreeOpBuffer}


@pytest.mark.parametrize("backend", list(BUFFERS))
class TestOpBuffer:
    """Contract shared by the run buffer and its §6 tree reference."""

    def test_orders_by_timestamp_then_origin_then_seq(self, backend):
        buf = BUFFERS[backend]()
        buf.add(10, 2, 1, "b")
        buf.add(10, 1, 1, "a")   # same ts, lower partition first
        buf.add(5, 9, 1, "first")
        assert buf.pop_stable(10) == ["first", "a", "b"]

    def test_pop_stable_keeps_unstable_suffix(self, backend):
        buf = BUFFERS[backend]()
        for ts in (1, 2, 3, 4):
            buf.add(ts, 0, ts, ts)
        assert buf.pop_stable(2) == [1, 2]
        assert len(buf) == 2
        assert min_ts(buf) == 3

    def test_min_ts_empty(self, backend):
        assert min_ts(BUFFERS[backend]()) is None

    def test_contains_and_counts(self, backend):
        buf = BUFFERS[backend]()
        buf.add(1, 0, 1, "x")
        assert contains(buf, 1, 0, 1)
        assert not contains(buf, 1, 0, 2)
        assert buf.total_added == 1

    def test_drop_stable_returns_count(self, backend):
        buf = BUFFERS[backend]()
        for ts in range(1, 6):
            buf.add(ts, 0, ts, ts)
        assert buf.drop_stable(3) == 3  # ts 1, 2, 3
        assert len(buf) == 2
        assert min_ts(buf) == 4

    @given(ops=st.lists(st.tuples(st.integers(0, 100), st.integers(0, 5),
                                  st.integers(0, 10**6)),
                        unique=True, max_size=150),
           stable=st.integers(0, 100))
    @settings(max_examples=50, deadline=None)
    def test_pop_stable_is_sorted_prefix(self, backend, ops, stable):
        buf = BUFFERS[backend]()
        if backend == "runs":
            # The run buffer's contract is monotone per-origin ingestion
            # (what the stabilizer's PartitionTime dedup guarantees): keep
            # each origin's ops in strictly increasing timestamp order.
            monotone, last = [], {}
            for ts, origin, seq in sorted(ops,
                                          key=lambda e: (e[1], e[0], e[2])):
                if ts > last.get(origin, -1):
                    last[origin] = ts
                    monotone.append((ts, origin, seq))
            ops = monotone
        for ts, origin, seq in ops:
            buf.add(ts, origin, seq, (ts, origin, seq))
        out = buf.pop_stable(stable)
        assert out == sorted(out)
        assert all(op[0] <= stable for op in out)
        assert len(out) + len(buf) == len(ops)


@pytest.mark.parametrize("tree_cls", [RedBlackTree])
def test_drop_leq_counts_without_collecting(tree_cls):
    tree = tree_cls()
    for k in range(10):
        tree.insert(k, k)
    assert tree.drop_leq(4) == 5
    assert [k for k, _ in tree.items()] == [5, 6, 7, 8, 9]
    assert tree.drop_leq(4) == 0
    tree.validate()
