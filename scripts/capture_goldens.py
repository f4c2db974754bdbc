#!/usr/bin/env python3
"""Record golden fingerprints for every protocol builder.

Writes ``tests/golden/baseline_goldens.json``: one
:func:`repro.harness.goldens.capture_golden` digest per
(protocol, seed).  The committed copy was captured against the
*pre-refactor* builders (the ``baselines/common.py`` frame) immediately
before the single-spine deployment refactor;
``tests/test_protocol_goldens.py`` asserts the ``ProtocolSpec`` spine
reproduces each digest bit-for-bit.  Re-run only after an *intentional*
protocol-behaviour change, and say so in the commit:

    PYTHONPATH=src python scripts/capture_goldens.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.harness.goldens import GOLDEN_SEEDS, capture_golden  # noqa: E402

PROTOCOLS = ("eventual", "gentlerain", "cure", "sseq", "aseq", "eunomia")
OUT = REPO / "tests" / "golden" / "baseline_goldens.json"


def main() -> int:
    goldens = []
    for protocol in PROTOCOLS:
        for seed in GOLDEN_SEEDS:
            golden = capture_golden(protocol, seed)
            goldens.append(golden)
            print(f"{protocol:>10} seed={seed}: dc fingerprints "
                  f"{golden['fingerprints']} ops={golden['ops']} "
                  f"converged={golden['converged']}")
            if not golden["converged"]:
                print(f"capture_goldens: {protocol} did not converge — "
                      "refusing to record a broken golden", file=sys.stderr)
                return 1
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(goldens, indent=1) + "\n")
    print(f"wrote {len(goldens)} goldens to {OUT.relative_to(REPO)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
