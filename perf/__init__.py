"""The repo benchmark: seeded workloads, sim/host metrics, per-layer trace.

See ``perf/README.md``.  Run with ``python3 perf/run.py`` from the repo root.
"""
