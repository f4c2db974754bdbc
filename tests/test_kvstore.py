"""Tests for the KV substrate: ring, versioned storage, value types."""

import bisect
import itertools
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clocks.vector import vc_lt
from repro.kvstore import (
    METADATA_OVERHEAD_BYTES,
    ConsistentHashRing,
    Update,
    Versioned,
    VersionedStore,
)
from repro.kvstore.types import ORDER_KEY

vec = st.tuples(*[st.integers(min_value=0, max_value=30)] * 3)


def version(vts, origin=0):
    return Versioned(value=str(vts), ts=vts[origin], origin_dc=origin, vts=vts)


class TestRing:
    def test_deterministic(self):
        a = ConsistentHashRing(8)
        b = ConsistentHashRing(8)
        assert all(a.partition_for(k) == b.partition_for(k)
                   for k in range(1000))

    def test_covers_all_partitions(self):
        ring = ConsistentHashRing(8)
        owners = {ring.partition_for(k) for k in range(5000)}
        assert owners == set(range(8))

    def test_reasonably_balanced(self):
        ring = ConsistentHashRing(8)
        hist = ring.histogram(range(20000))
        assert min(hist) > 0.3 * (20000 / 8)
        assert max(hist) < 2.5 * (20000 / 8)

    def test_single_partition(self):
        ring = ConsistentHashRing(1)
        assert {ring.partition_for(k) for k in range(100)} == {0}

    def test_rejects_zero_partitions(self):
        with pytest.raises(ValueError):
            ConsistentHashRing(0)

    @given(keys=st.lists(st.one_of(st.integers(), st.text(max_size=8)),
                         max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_memo_equals_the_uncached_hash(self, keys):
        """Asked twice, every key gets what the CRC of its string says."""
        ring = ConsistentHashRing(8)
        for key in keys + keys:
            assert ring.partition_for(key) == _uncached_owner(ring, key)

    def test_equal_keys_with_different_strings_never_share_an_entry(self):
        """``True == 1 == 1.0``, but the owner is a function of ``str()``:
        whichever of them is asked first, each gets its own answer."""
        keys = (True, 1, 1.0, "1")
        owners = {_uncached_owner(ConsistentHashRing(16), key) for key in keys}
        assert len(owners) == 3           # "True", "1" and "1.0" differ
        for order in itertools.permutations(keys):
            ring = ConsistentHashRing(16)
            for key in order + order:
                assert ring.partition_for(key) == _uncached_owner(ring, key)


def _uncached_owner(ring, key):
    """The ring lookup written out: CRC32 of ``str(key)``, next point."""
    h = zlib.crc32(str(key).encode()) & 0xFFFFFFFF
    index = bisect.bisect_right(ring._ring_hashes, h)
    return ring._ring_owners[index % len(ring._ring_owners)]


class TestVersionedDominance:
    def test_dominates_none(self):
        assert version((1, 0, 0)).dominates(None)

    @given(a=vec, b=vec)
    def test_causal_order_respected(self, a, b):
        """A causally newer version always wins LWW."""
        if vc_lt(a, b):
            assert version(b).dominates(version(a))
            assert not version(a).dominates(version(b))

    @given(a=vec, b=vec)
    def test_total_order_antisymmetric(self, a, b):
        va, vb = version(a, origin=0), version(b, origin=1)
        assert va.dominates(vb) != vb.dominates(va)  # never both/neither

    @given(versions=st.lists(vec, min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_arrival_order_does_not_matter(self, versions):
        """Convergence: the LWW winner is a function of the version set."""
        import itertools
        vs = [version(v, origin=i % 3) for i, v in enumerate(versions)]

        def winner(order):
            store = VersionedStore()
            for v in order:
                store.put("k", v)
            got = store.get("k")
            return (got.ts, got.origin_dc, got.value)

        reference = winner(vs)
        for order in itertools.islice(itertools.permutations(vs), 6):
            assert winner(list(order)) == reference


class TestVersionedStore:
    def test_put_get(self):
        store = VersionedStore()
        assert store.get("k") is None
        assert store.put("k", version((1, 0, 0)))
        assert store.get("k").value == "(1, 0, 0)"
        assert "k" in store
        assert len(store) == 1

    def test_losing_put_keeps_current(self):
        store = VersionedStore()
        store.put("k", version((5, 5, 5)))
        assert not store.put("k", version((1, 0, 0)))
        assert store.get("k").vts == (5, 5, 5)
        assert store.puts_superseded == 1

    def test_fingerprint_order_independent(self):
        a, b = VersionedStore(), VersionedStore()
        a.put("x", version((1, 0, 0)))
        a.put("y", version((0, 1, 0)))
        b.put("y", version((0, 1, 0)))
        b.put("x", version((1, 0, 0)))
        assert a.fingerprint() == b.fingerprint()

    def test_fingerprint_detects_divergence(self):
        a, b = VersionedStore(), VersionedStore()
        a.put("x", version((1, 0, 0)))
        b.put("x", version((2, 0, 0)))
        assert a.fingerprint() != b.fingerprint()

    def test_snapshot(self):
        store = VersionedStore()
        store.put("x", Versioned("v", 7, 1, (0, 7, 0)))
        assert store.snapshot() == {"x": (7, 1, "v")}


class TestUpdateType:
    def make(self, value="v", vts=(5, 0, 0)):
        return Update(key="k", value=value, origin_dc=0, partition_index=2,
                      seq=9, ts=5, vts=vts, value_bytes=100)

    def test_uid_and_order_key(self):
        u = self.make()
        assert u.uid == (0, 2, 9)
        assert ORDER_KEY(u) == (5, 2, 9)

    def test_size_accounting(self):
        u = self.make()
        assert u.size_bytes == 100 + 8 * 3 + METADATA_OVERHEAD_BYTES
        assert u.metadata_bytes == 8 * 3 + METADATA_OVERHEAD_BYTES
        # metadata-only form is value-size independent (§5)
        big = self.make(value="x" * 10000)
        assert big.metadata_bytes == u.metadata_bytes
