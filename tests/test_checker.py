"""Tests for the causal-consistency checker itself.

The checker must (a) pass correct histories and (b) flag seeded violations —
a checker that never fires proves nothing.
"""

import pytest

from repro import GeoSystemSpec, WorkloadSpec, build_geo_system
from repro.checker import CausalChecker, OpRecord, SessionHistory
from repro.core.protocols import get_protocol


def rec(t, client, kind, key, vts, session_vts, value=None):
    return OpRecord(time=t, client=client, kind=kind, key=key, value=value,
                    vts=vts, session_vts=session_vts)


def checked(*records):
    history = SessionHistory()
    for record in records:
        history.record(record)
    return CausalChecker(history).check()


class TestMonotonicWrites:
    def test_dominating_update_passes(self):
        assert checked(
            rec(1.0, "c", "update", "k", (1, 0), (0, 0)),
            rec(2.0, "c", "update", "k", (2, 0), (1, 0)),
        ) == []

    def test_non_dominating_update_flagged(self):
        violations = checked(
            rec(1.0, "c", "update", "k", (5, 5), (0, 0)),
            rec(2.0, "c", "update", "k", (3, 9), (5, 5)),  # not > (5,5)
        )
        assert [v.guarantee for v in violations] == ["monotonic-writes"]

    def test_equal_vector_flagged(self):
        violations = checked(
            rec(1.0, "c", "update", "k", (1, 1), (1, 1)),
        )
        assert violations and violations[0].guarantee == "monotonic-writes"


class TestMonotonicReads:
    def test_rereading_same_version_passes(self):
        assert checked(
            rec(1.0, "c", "read", "k", (3, 2), (0, 0)),
            rec(2.0, "c", "read", "k", (3, 2), (3, 2)),
        ) == []

    def test_newer_version_passes(self):
        assert checked(
            rec(1.0, "c", "read", "k", (1, 1), (0, 0)),
            rec(2.0, "c", "read", "k", (2, 1), (1, 1)),
        ) == []

    def test_strictly_older_version_flagged(self):
        violations = checked(
            rec(1.0, "c", "read", "k", (2, 2), (0, 0)),
            rec(2.0, "c", "read", "k", (1, 2), (2, 2)),  # went backwards
        )
        assert [v.guarantee for v in violations] == ["monotonic-reads"]

    def test_concurrent_replacement_passes(self):
        """LWW may replace an observed version with a concurrent one."""
        assert checked(
            rec(1.0, "c", "read", "k", (2, 0), (0, 0)),
            rec(2.0, "c", "read", "k", (0, 2), (2, 0)),  # concurrent
        ) == []

    def test_concurrent_merge_false_positive_regression(self):
        """Two concurrent reads then a re-read of the first must pass.

        A checker comparing against the *merge* of observed vectors would
        wrongly flag this (the merge (2,2) dominates (2,0)).
        """
        assert checked(
            rec(1.0, "c", "read", "k", (2, 0), (0, 0)),
            rec(2.0, "c", "read", "k", (0, 2), (2, 0)),
            rec(3.0, "c", "read", "k", (2, 0), (2, 2)),
        ) == []

    def test_own_write_then_dominated_read_flagged(self):
        violations = checked(
            rec(1.0, "c", "update", "k", (4, 0), (3, 0)),
            rec(2.0, "c", "read", "k", (1, 0), (4, 0)),  # pre-write version
        )
        assert [v.guarantee for v in violations] == ["monotonic-reads"]

    def test_keys_tracked_independently(self):
        assert checked(
            rec(1.0, "c", "read", "a", (9, 9), (0, 0)),
            rec(2.0, "c", "read", "b", (1, 1), (9, 9)),  # different key: fine
        ) == []

    def test_clients_tracked_independently(self):
        assert checked(
            rec(1.0, "c1", "read", "k", (9, 9), (0, 0)),
            rec(2.0, "c2", "read", "k", (1, 1), (0, 0)),
        ) == []


class TestMetadataIntegrity:
    def test_matching_vectors_pass(self):
        history = SessionHistory()
        history.record(rec(1.0, "w", "update", "k", (3, 0), (0, 0), value="v1"))
        history.record(rec(2.0, "r", "read", "k", (3, 0), (0, 0), value="v1"))
        assert CausalChecker(history).check_write_read_pairs() == []

    def test_corrupted_vector_flagged(self):
        history = SessionHistory()
        history.record(rec(1.0, "w", "update", "k", (3, 0), (0, 0), value="v1"))
        history.record(rec(2.0, "r", "read", "k", (9, 9), (0, 0), value="v1"))
        violations = CausalChecker(history).check_write_read_pairs()
        assert [v.guarantee for v in violations] == ["metadata-integrity"]

    def test_unknown_values_ignored(self):
        history = SessionHistory()
        history.record(rec(1.0, "r", "read", "k", (1, 1), (0, 0),
                           value="preloaded"))
        assert CausalChecker(history).check_write_read_pairs() == []


class TestHistory:
    def test_empty_metadata_skipped(self):
        assert checked(rec(1.0, "c", "update", "k", (), ())) == []

    def test_sessions_and_updates_listing(self):
        history = SessionHistory()
        history.record(rec(2.0, "b", "update", "k", (1,), (0,), value="x"))
        history.record(rec(1.0, "a", "read", "k", (1,), (0,)))
        assert history.clients() == ["a", "b"]
        assert len(history.session("a")) == 1
        assert [r.value for r in history.all_updates()] == ["x"]
        assert history.total_ops == 2

    def test_violation_str(self):
        record = rec(1.0, "c", "read", "k", (1,), (0,))
        from repro.checker import Violation

        text = str(Violation("monotonic-reads", "c", record, "detail"))
        assert "monotonic-reads" in text and "detail" in text


@pytest.mark.unaudited("builds aseq with a causal promise it breaks")
def test_the_audit_flags_a_protocol_that_breaks_its_promise(monkeypatch):
    """The audit in tests/conftest.py records every geo system a test
    builds and checks what its protocol promises: ``aseq`` replies before
    its update is ordered, so holding it to a causal promise fails."""
    import conftest

    aseq = get_protocol("aseq")
    system = build_geo_system("aseq", GeoSystemSpec(seed=1), WorkloadSpec())
    system.run(0.5)
    (history,) = [h for built, h in conftest._BUILT if built is system]
    assert history.total_ops > 0
    assert conftest._violations(system, history) == []
    monkeypatch.setattr(aseq, "causal", True)
    assert conftest._violations(system, history)
