"""The mutant registry stays wired: every seeded fault is named by a test.

A mutant in ``tests/mutants.py`` that no test applies is a fault nothing
is shown to catch.  This guard reads the test sources, so it costs no run;
the kill matrix's record (``scripts/mutant_matrix.py``) must name exactly
the registered mutants.
"""

import json
from pathlib import Path

from mutants import MUTANTS

TESTS = Path(__file__).resolve().parent


def _unnamed(names, sources: str) -> list:
    return [name for name in names if f'"{name}"' not in sources]


def test_every_mutant_is_named_by_a_test():
    sources = "\n".join(path.read_text()
                        for path in sorted(TESTS.rglob("test_*.py"))
                        if path.name != Path(__file__).name)
    assert _unnamed(MUTANTS, sources) == []
    # and the guard has teeth: a registered name no test mentions is caught
    assert _unnamed(["no_test_names_this_mutant"], sources) == [
        "no_test_names_this_mutant"]


def test_the_kill_matrix_record_names_every_mutant():
    record = json.loads((TESTS / "golden" / "mutant_kills.json").read_text())
    assert sorted(record["mutants"]) == sorted(MUTANTS)
    assert record["survivors"] == sorted(
        name for name, entry in record["mutants"].items()
        if not entry["failed"] and "aborted" not in entry)
