"""Shared helper for the figure benchmarks, and ``tests/`` on the path.

Each ``bench_figN.py`` runs the corresponding experiment exactly once under
pytest-benchmark (the experiment *is* the workload; repeating it would only
re-measure the same deterministic run) and prints the regenerated table so
that ``pytest benchmarks/ --benchmark-only`` leaves a full evaluation report
in its output.
"""

from __future__ import annotations

import sys
from pathlib import Path

# the test-side reference structures (``tests/rbtree.py``) that the §6
# micro-benchmarks measure the run buffer against
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))


def run_figure(benchmark, module, params):
    """Run one figure module under the benchmark fixture; print its table."""
    result = benchmark.pedantic(module.run, args=(params,),
                                rounds=1, iterations=1)
    print()
    print(result.render_text())
    return result
