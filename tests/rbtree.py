"""Red–black tree (Guibas & Sedgewick), the core of the paper's Eunomia
service, kept beside the tests as the reference the run buffer is held to.

The paper (§6) reports that Eunomia's performance hinges on the structure
holding the set of unstable operations: it must support cheap inserts (every
local update lands here) and cheap in-order traversal of a prefix (every
stabilization round pops all operations with timestamp ≤ StableTime).  The
authors used a red–black tree and found it faster than AVL for their
insert-heavy mix; ``benchmarks/bench_trees.py`` measures it against the
run-aware buffer that is the default here.

This is a textbook CLRS implementation with a per-tree NIL sentinel, mapping
totally-ordered keys to values.  ``validate()`` checks the red–black
invariants and is exercised by property-based tests.

:class:`TreeOpBuffer` is the paper's §6 unstable-op buffer over that tree:
O(log n) everything, no ingestion-order assumptions.  Nothing in the
simulator runs it — the stabilizers hold a
:class:`~repro.datastruct.runbuffer.RunBuffer` — so it lives with the
tests, not under ``src/``: ``tests/test_runbuffer.py`` proves the run
buffer emits its serialization op for op, and the §6 micro-benchmarks
(``benchmarks/bench_trees.py``, which put ``tests/`` on the path in their
``conftest.py``) measure the two side by side.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional, Tuple

__all__ = ["RedBlackTree", "TreeOpBuffer"]

RED = True
BLACK = False


class _Node:
    __slots__ = ("key", "value", "left", "right", "parent", "color")

    def __init__(self, key: Any, value: Any, color: bool, nil: "_Node" = None):
        self.key = key
        self.value = value
        self.left = nil
        self.right = nil
        self.parent = nil
        self.color = color


class RedBlackTree:
    """Ordered map with O(log n) insert/delete/search, O(n) ordered scan."""

    def __init__(self) -> None:
        self._nil = _Node(None, None, BLACK)
        self._nil.left = self._nil.right = self._nil.parent = self._nil
        self._root = self._nil
        self._size = 0

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def __contains__(self, key: Any) -> bool:
        return self._find(key) is not self._nil

    def get(self, key: Any, default: Any = None) -> Any:
        node = self._find(key)
        return default if node is self._nil else node.value

    def min_item(self) -> Tuple[Any, Any]:
        """Smallest (key, value); raises KeyError when empty."""
        if self._root is self._nil:
            raise KeyError("min_item of empty tree")
        node = self._minimum(self._root)
        return node.key, node.value

    def max_item(self) -> Tuple[Any, Any]:
        """Largest (key, value); raises KeyError when empty."""
        if self._root is self._nil:
            raise KeyError("max_item of empty tree")
        node = self._root
        while node.right is not self._nil:
            node = node.right
        return node.key, node.value

    def items(self) -> Iterator[Tuple[Any, Any]]:
        """In-order (sorted) iteration over (key, value) pairs."""
        stack: list[_Node] = []
        node = self._root
        while stack or node is not self._nil:
            while node is not self._nil:
                stack.append(node)
                node = node.left
            node = stack.pop()
            yield node.key, node.value
            node = node.right

    def keys(self) -> Iterator[Any]:
        for key, _ in self.items():
            yield key

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(self, key: Any, value: Any) -> None:
        """Insert or overwrite ``key``."""
        parent = self._nil
        node = self._root
        while node is not self._nil:
            parent = node
            if key < node.key:
                node = node.left
            elif node.key < key:
                node = node.right
            else:
                node.value = value  # overwrite existing key
                return
        fresh = _Node(key, value, RED, self._nil)
        fresh.parent = parent
        if parent is self._nil:
            self._root = fresh
        elif key < parent.key:
            parent.left = fresh
        else:
            parent.right = fresh
        self._size += 1
        self._insert_fixup(fresh)

    def delete(self, key: Any) -> Any:
        """Remove ``key`` and return its value; raises KeyError if absent."""
        node = self._find(key)
        if node is self._nil:
            raise KeyError(key)
        value = node.value
        self._delete_node(node)
        return value

    def pop_min(self) -> Tuple[Any, Any]:
        """Remove and return the smallest (key, value)."""
        if self._root is self._nil:
            raise KeyError("pop_min of empty tree")
        node = self._minimum(self._root)
        item = (node.key, node.value)
        self._delete_node(node)
        return item

    def pop_leq(self, bound: Any) -> list:
        """Remove every entry with ``key <= bound``; return them in order.

        This is Eunomia's FIND_STABLE + removal in one call: after computing
        ``StableTime``, the service extracts the ordered stable prefix.
        Amortized O(log n) per extracted entry.
        """
        out = []
        while self._root is not self._nil:
            node = self._minimum(self._root)
            if bound < node.key:
                break
            out.append((node.key, node.value))
            self._delete_node(node)
        return out

    def drop_leq(self, bound: Any) -> int:
        """Remove every entry with ``key <= bound``; return only the count.

        The pruning-side twin of :meth:`pop_leq` for callers (follower
        replicas) that discard the stable prefix: nothing is collected, so
        no list of dropped entries is ever built.
        """
        dropped = 0
        while self._root is not self._nil:
            node = self._minimum(self._root)
            if bound < node.key:
                break
            self._delete_node(node)
            dropped += 1
        return dropped

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _find(self, key: Any) -> _Node:
        node = self._root
        while node is not self._nil:
            if key < node.key:
                node = node.left
            elif node.key < key:
                node = node.right
            else:
                return node
        return self._nil

    def _minimum(self, node: _Node) -> _Node:
        while node.left is not self._nil:
            node = node.left
        return node

    def _rotate_left(self, x: _Node) -> None:
        y = x.right
        x.right = y.left
        if y.left is not self._nil:
            y.left.parent = x
        y.parent = x.parent
        if x.parent is self._nil:
            self._root = y
        elif x is x.parent.left:
            x.parent.left = y
        else:
            x.parent.right = y
        y.left = x
        x.parent = y

    def _rotate_right(self, x: _Node) -> None:
        y = x.left
        x.left = y.right
        if y.right is not self._nil:
            y.right.parent = x
        y.parent = x.parent
        if x.parent is self._nil:
            self._root = y
        elif x is x.parent.right:
            x.parent.right = y
        else:
            x.parent.left = y
        y.right = x
        x.parent = y

    def _insert_fixup(self, z: _Node) -> None:
        while z.parent.color is RED:
            if z.parent is z.parent.parent.left:
                uncle = z.parent.parent.right
                if uncle.color is RED:
                    z.parent.color = BLACK
                    uncle.color = BLACK
                    z.parent.parent.color = RED
                    z = z.parent.parent
                else:
                    if z is z.parent.right:
                        z = z.parent
                        self._rotate_left(z)
                    z.parent.color = BLACK
                    z.parent.parent.color = RED
                    self._rotate_right(z.parent.parent)
            else:
                uncle = z.parent.parent.left
                if uncle.color is RED:
                    z.parent.color = BLACK
                    uncle.color = BLACK
                    z.parent.parent.color = RED
                    z = z.parent.parent
                else:
                    if z is z.parent.left:
                        z = z.parent
                        self._rotate_right(z)
                    z.parent.color = BLACK
                    z.parent.parent.color = RED
                    self._rotate_left(z.parent.parent)
        self._root.color = BLACK

    def _transplant(self, u: _Node, v: _Node) -> None:
        if u.parent is self._nil:
            self._root = v
        elif u is u.parent.left:
            u.parent.left = v
        else:
            u.parent.right = v
        v.parent = u.parent

    def _delete_node(self, z: _Node) -> None:
        y = z
        y_color = y.color
        if z.left is self._nil:
            x = z.right
            self._transplant(z, z.right)
        elif z.right is self._nil:
            x = z.left
            self._transplant(z, z.left)
        else:
            y = self._minimum(z.right)
            y_color = y.color
            x = y.right
            if y.parent is z:
                x.parent = y
            else:
                self._transplant(y, y.right)
                y.right = z.right
                y.right.parent = y
            self._transplant(z, y)
            y.left = z.left
            y.left.parent = y
            y.color = z.color
        self._size -= 1
        if y_color is BLACK:
            self._delete_fixup(x)

    def _delete_fixup(self, x: _Node) -> None:
        while x is not self._root and x.color is BLACK:
            if x is x.parent.left:
                w = x.parent.right
                if w.color is RED:
                    w.color = BLACK
                    x.parent.color = RED
                    self._rotate_left(x.parent)
                    w = x.parent.right
                if w.left.color is BLACK and w.right.color is BLACK:
                    w.color = RED
                    x = x.parent
                else:
                    if w.right.color is BLACK:
                        w.left.color = BLACK
                        w.color = RED
                        self._rotate_right(w)
                        w = x.parent.right
                    w.color = x.parent.color
                    x.parent.color = BLACK
                    w.right.color = BLACK
                    self._rotate_left(x.parent)
                    x = self._root
            else:
                w = x.parent.left
                if w.color is RED:
                    w.color = BLACK
                    x.parent.color = RED
                    self._rotate_right(x.parent)
                    w = x.parent.left
                if w.right.color is BLACK and w.left.color is BLACK:
                    w.color = RED
                    x = x.parent
                else:
                    if w.left.color is BLACK:
                        w.right.color = BLACK
                        w.color = RED
                        self._rotate_left(w)
                        w = x.parent.left
                    w.color = x.parent.color
                    x.parent.color = BLACK
                    w.left.color = BLACK
                    self._rotate_right(x.parent)
                    x = self._root
        x.color = BLACK

    # ------------------------------------------------------------------
    # Invariant checking (tests only)
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Assert the red–black invariants; raises AssertionError on breach."""
        assert self._root.color is BLACK, "root must be black"

        def walk(node: _Node, lo: Optional[Any], hi: Optional[Any]) -> int:
            if node is self._nil:
                return 1
            if lo is not None:
                assert lo < node.key, "BST order violated (left bound)"
            if hi is not None:
                assert node.key < hi, "BST order violated (right bound)"
            if node.color is RED:
                assert node.left.color is BLACK and node.right.color is BLACK, \
                    "red node with red child"
            lh = walk(node.left, lo, node.key)
            rh = walk(node.right, node.key, hi)
            assert lh == rh, "black-height mismatch"
            return lh + (1 if node.color is BLACK else 0)

        walk(self._root, None, None)
        assert self._size == sum(1 for _ in self.items()), "size out of sync"


class TreeOpBuffer:
    """Timestamp-ordered buffer over the red–black tree (§6), keyed by the
    total order ``(timestamp, origin partition id, per-partition sequence)``
    — the last two components break ties between concurrent updates from
    different partitions while keeping keys unique.  Same interface as
    :class:`~repro.datastruct.runbuffer.RunBuffer`."""

    __slots__ = ("_tree", "total_added")

    def __init__(self) -> None:
        self._tree = RedBlackTree()
        self.total_added = 0

    def __len__(self) -> int:
        return len(self._tree)

    def __bool__(self) -> bool:
        return bool(self._tree)

    def add(self, ts: int, origin: int, seq: int, op: Any) -> None:
        """Buffer ``op`` under its (unique) ordering key."""
        self._tree.insert((ts, origin, seq), op)
        self.total_added += 1

    def extend_run(self, entries: list) -> int:
        """Bulk-append interface parity with :class:`RunBuffer`: trees gain
        nothing from batching — every key still pays its O(log n) insert."""
        insert = self._tree.insert
        for ts, origin, seq, op in entries:
            insert((ts, origin, seq), op)
        self.total_added += len(entries)
        return len(entries)

    def contains(self, ts: int, origin: int, seq: int) -> bool:
        return (ts, origin, seq) in self._tree

    def pop_stable(self, stable_ts: int) -> list:
        """Extract every op with ``ts <= stable_ts`` in total order.

        This is FIND_STABLE + removal (Alg. 3 lines 9–11): because the key's
        first component is the timestamp, ``pop_leq((stable_ts, inf, inf))``
        returns exactly the stable prefix, already serialized consistently
        with causality (Property 1) with deterministic tie-breaks.
        """
        bound = (stable_ts, float("inf"), float("inf"))
        return [op for _, op in self._tree.pop_leq(bound)]

    def min_ts(self) -> Optional[int]:
        """Timestamp of the oldest buffered op, or None when empty."""
        if not self._tree:
            return None
        (ts, _, _), _ = self._tree.min_item()
        return ts

    def drop_stable(self, stable_ts: int) -> int:
        """Discard the stable prefix without returning it (follower
        replicas, Alg. 4 lines 13–15) — counting, not collecting."""
        bound = (stable_ts, float("inf"), float("inf"))
        return self._tree.drop_leq(bound)
