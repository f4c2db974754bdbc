#!/usr/bin/env python3
"""The mutant kill matrix: tier-1 once per seeded fault of ``tests/mutants.py``.

Each mutant gets one pytest child with the mutant applied for the whole
session (this file is also the child's plugin, ``-p mutant_matrix``).  The
child deselects the ``kill`` tests — they apply mutants themselves — and
runs without ``-x``, so it records every test the mutant fails.
``tests/conftest.py`` bounds each test's address space and wall time, so a
runaway under a mutant usually fails its own test id.  Not always: a test
that fills the address space leaves pytest too little memory to report
it: the process spins in its garbage collector, or the time bound's
exception escapes pytest's reporting and ends the session.  So the plugin
also arms a hard watchdog per test (``faulthandler``'s, which needs no
Python to run; a test still running after ``TEST_SECONDS`` ends the
child), and a test whose reports were never finished is recorded as the
one the mutant ran away in.

The record, one entry per mutant: every failing test id in run order, and
the first of them that is not a budget test (``test_event_budget.py``,
``test_call_budget.py``) — the first semantic oracle that caught it — and,
when the child did not finish (cut at ``CHILD_SECONDS``, or killed), why.
A mutant whose child finished with no test failing is a survivor, listed
by name.

Before the mutants, one control child runs tier-1 with no mutant applied
and must pass: a test that fails on the unmutated tree would otherwise
count as a kill of every mutant.  A child that pytest ends with exit code
3, 4 or 5 (internal error, usage error, no tests collected) outside any
test ran no oracle at all; that is an error of the runner, not a kill, and
ends the run without a record.

    python scripts/mutant_matrix.py --out tests/golden/mutant_kills.json
    python scripts/mutant_matrix.py --check     # survivors must match
    python scripts/mutant_matrix.py --only gap_frame_accepted --out \
        tests/golden/mutant_kills.json      # re-run one entry of the record

``--check`` exits non-zero when the set of survivors differs from the
committed record (as every form does when the control fails or a child
breaks); a changed list of failing ids is printed, not failed on
(a test near its time bound may come and go on a slower machine).
"""

from __future__ import annotations

import argparse
import faulthandler
import json
import os
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
RECORD = REPO / "tests" / "golden" / "mutant_kills.json"
#: the children's failure logs
SCRATCH = REPO / ".mutant-matrix"
BUDGET_FILES = ("tests/test_event_budget.py", "tests/test_call_budget.py")
#: children at a time: each may hold conftest's 2 GiB address-space bound
JOBS = 2
#: pytest's exit codes for a session that broke before or around its tests
HARNESS_CODES = (3, 4, 5)
#: whole-session bound of one child (tier-1 takes about 90 s unmutated)
CHILD_SECONDS = 900
#: hard bound of one test, all phases (conftest bounds each phase at 30 s)
TEST_SECONDS = 120
_MUTANT = "MUTANT_MATRIX_APPLY"
_FAILED = "MUTANT_MATRIX_FAILED"
#: the name of the child that runs with no mutant
CONTROL = "no-mutant"


# ----------------------------------------------------------------------
# The child's plugin: apply the named mutant, log each failing test id
# ----------------------------------------------------------------------
_applied = None


def pytest_configure(config):
    global _applied
    from hypothesis import settings

    # no example database: a failing example saved under one mutant would
    # be replayed first under the next, and by every later tier-1 run
    settings.register_profile("mutant-matrix", database=None)
    settings.load_profile("mutant-matrix")
    sys.path.insert(0, str(REPO / "tests"))
    from mutants import MUTANTS

    name = os.environ.get(_MUTANT)
    if name:        # the control child runs with none
        _applied = MUTANTS[name].applied()
        _applied.__enter__()


def pytest_unconfigure(config):
    if _applied is not None:
        _applied.__exit__(None, None, None)


def pytest_runtest_logstart(nodeid, location):
    # the test being run, until its reports are made: left behind when the
    # watchdog ends the child in it, or when the time bound's exception
    # escapes pytest's own reporting and ends the session
    Path(os.environ[_FAILED] + ".running").write_text(nodeid)
    faulthandler.dump_traceback_later(TEST_SECONDS, exit=True)


def pytest_runtest_logfinish(nodeid, location):
    faulthandler.cancel_dump_traceback_later()
    Path(os.environ[_FAILED] + ".running").unlink()


def pytest_runtest_logreport(report):
    if report.failed:
        # one line per failing phase, appended at once: a child that dies
        # mid-run still leaves what it saw
        with open(os.environ[_FAILED], "a") as log:
            log.write(report.nodeid + "\n")


# ----------------------------------------------------------------------
# The runner
# ----------------------------------------------------------------------
class HarnessError(RuntimeError):
    """A child that ran no oracle, or a control run that did not pass."""


def run_mutant(name: str) -> dict:
    """One pytest child under ``name`` (``CONTROL``: none): its failing
    ids, in run order."""
    failed_log = SCRATCH / f"{name}.failed"
    output = SCRATCH / f"{name}.log"
    failed_log.unlink(missing_ok=True)
    Path(f"{failed_log}.running").unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(REPO / "src"), str(REPO / "scripts")]),
        **{_MUTANT: "" if name == CONTROL else name,
           _FAILED: str(failed_log)})
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "mutant_matrix",
           "-p", "no:cacheprovider", "-k", "not kill", "tests"]
    started = time.monotonic()
    try:
        with open(output, "w") as out:
            code = subprocess.run(
                cmd, cwd=REPO, env=env, timeout=CHILD_SECONDS,
                stdout=out, stderr=subprocess.STDOUT).returncode
        # pytest exits 0 (all passed) or 1 (some failed) when it finishes
        aborted = None if code in (0, 1) else f"exit code {code}"
    except subprocess.TimeoutExpired:
        code, aborted = None, f"cut after {CHILD_SECONDS} s"
    seconds = time.monotonic() - started
    ids = (failed_log.read_text().splitlines()
           if failed_log.exists() else [])
    running = Path(f"{failed_log}.running")
    if running.exists():
        ids.append(running.read_text())
        aborted = f"ran away in {ids[-1]}"
        running.unlink()
    elif code in HARNESS_CODES:
        raise HarnessError(f"{name}: pytest exit code {code} outside any "
                           f"test; see {output.relative_to(REPO)}")
    failed = list(dict.fromkeys(ids))       # a test failing twice counts once
    oracle = next((t for t in failed
                   if not t.startswith(BUDGET_FILES)), None)
    entry = {"failed": failed, "first_oracle": oracle}
    if aborted:
        entry["aborted"] = aborted
    print(f"{name}: {len(failed)} failing, first oracle {oracle}"
          f"{f' ({aborted})' if aborted else ''} [{seconds:.0f} s]",
          flush=True)
    return entry


def survivors(entries: dict) -> list:
    """The mutants whose child finished with every test passing."""
    return sorted(name for name, entry in entries.items()
                  if not entry["failed"] and "aborted" not in entry)


def run_matrix(names) -> dict:
    """The control child, then every mutant's, ``JOBS`` at a time."""
    control = run_mutant(CONTROL)
    if control["failed"] or "aborted" in control:
        raise HarnessError("tier-1 does not pass with no mutant applied: "
                           f"{control}")
    pool = ThreadPoolExecutor(max_workers=JOBS)
    try:
        return dict(zip(names, pool.map(run_mutant, names)))
    finally:
        # on a harness error, start no further child
        pool.shutdown(cancel_futures=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--only", nargs="+", metavar="NAME",
                        help="run these mutants only")
    parser.add_argument("--out", type=Path,
                        help="write the record here (with --only: update "
                             "those entries of the record there)")
    parser.add_argument("--check", action="store_true",
                        help="fail when the survivors differ from "
                             f"{RECORD.relative_to(REPO)}")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(REPO / "src"))
    sys.path.insert(0, str(REPO / "tests"))
    from mutants import MUTANTS

    names = args.only or sorted(MUTANTS)
    unknown = sorted(set(names) - set(MUTANTS))
    if unknown:
        parser.error(f"unknown mutant(s): {unknown}")
    SCRATCH.mkdir(exist_ok=True)
    started = time.monotonic()
    try:
        entries = run_matrix(names)
    except HarnessError as error:
        print(f"ERROR: {error}")
        return 2
    print(f"{len(names)} mutants in {time.monotonic() - started:.0f} s; "
          f"survivors: {survivors(entries) or 'none'}")
    if args.out:
        if args.only:
            entries = {**json.loads(args.out.read_text())["mutants"],
                       **entries}
        record = {"mutants": dict(sorted(entries.items())),
                  "survivors": survivors(entries)}
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    if not args.check:
        return 0
    committed = json.loads(RECORD.read_text())["mutants"]
    for name in names:
        if committed[name]["failed"] != entries[name]["failed"]:
            print(f"note: {name}'s failing ids differ from the record")
    expected = survivors({n: committed[n] for n in names})
    if survivors({n: entries[n] for n in names}) != expected:
        print(f"FAIL: survivors differ from the record's {expected}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
