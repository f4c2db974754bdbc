"""The package runs on the standard library alone.

``pyproject.toml`` declares ``dependencies = []`` and CI installs only the
test harness, so nothing under ``src/`` may need a third-party package.
Each check runs in a fresh interpreter: this test process has long since
imported numpy (hypothesis and the parity tests do), which would hide a
stray import.

``python tests/test_import_hygiene.py`` runs the smoke in-process against
whichever ``repro`` is importable and needs no pytest — CI's clean-install
job runs it in a venv that holds nothing but ``pip install .``.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"


def _run(code: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


SMOKE = """
import sys
sys.modules["numpy"] = None          # any `import numpy` now raises
import repro
from repro.metrics import cdf, mean, percentile
system = repro.build_geo_system(
    "eunomia",
    repro.GeoSystemSpec(n_dcs=3, partitions_per_dc=2, clients_per_dc=2,
                        seed=1),
    repro.WorkloadSpec(read_ratio=0.75, n_keys=64))
system.run(0.2)
lat = [v for dc in range(3)
       for _, v in system.metrics.point_series(f"latency_ms:read:dc{dc}")]
assert lat and min(lat) <= percentile(lat, 50) <= percentile(lat, 99)
assert min(lat) <= mean(lat) <= max(lat)
assert cdf(lat, resolution=1.0)[-1][1] == 1.0
assert sys.modules["numpy"] is None
print("ok", len(lat))
"""


def test_simulator_runs_with_numpy_blocked():
    assert _run(SMOKE).startswith("ok ")


def test_harness_submodules_do_not_import_the_figures():
    out = _run("""
import sys
import repro.harness.goldens, repro.harness.loadgen
print(sorted(m for m in sys.modules if m.startswith("repro.harness.")))
from repro.harness import FIGURES
assert sorted(FIGURES) == [1, 2, 3, 4, 5, 6, 7]
""")
    assert out.strip() == "['repro.harness.goldens', 'repro.harness.loadgen']"


def _load_check_docs():
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO / "scripts" / "check_docs.py")
    check_docs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(check_docs)
    return check_docs


def test_docs_lint_rejects_an_undeclared_import(tmp_path, monkeypatch):
    check_docs = _load_check_docs()
    assert check_docs.check_src_imports() == []     # this repo is clean

    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "ok.py").write_text(
        "import math\nfrom . import x\nfrom repro.sim import y\n"
        "import declared_dep.sub\n")
    (package / "bad.py").write_text(
        "def f():\n    import numpy as np\n    from scipy.stats import norm\n")
    (tmp_path / "pyproject.toml").write_text(
        '[project]\ndependencies = [\n    "Declared-Dep>=1.0",\n]\n')
    monkeypatch.setattr(check_docs, "REPO", tmp_path)
    errors = check_docs.check_src_imports()
    assert len(errors) == 2
    assert "bad.py:2: imports 'numpy'" in errors[0]
    assert "bad.py:3: imports 'scipy'" in errors[1]


def test_docs_lint_rejects_a_second_calibration_source(tmp_path, monkeypatch):
    check_docs = _load_check_docs()
    assert check_docs.check_single_sources() == []      # this repo is clean

    package = tmp_path / "src" / "repro"
    (package / "sim").mkdir(parents=True)
    (package / "sim" / "env.py").write_text(
        "class Environment:\n"
        "    def __init__(self, seed, calibration=None):\n"
        "        self.calibration = calibration or Calibration()\n"
        "        self.metrics = MetricsHub()\n")
    (package / "bad.py").write_text(
        "class Partition:\n"
        "    def __init__(self, env, calibration=None):\n"
        "        cal = calibration or Calibration()\n"
        "def probe(env, *, metrics):\n"
        "    return metrics or hub.MetricsHub()\n")
    monkeypatch.setattr(check_docs, "REPO", tmp_path)
    errors = check_docs.check_single_sources()
    assert len(errors) == 4
    assert ("bad.py:2: Partition.__init__() takes a 'calibration' "
            "parameter") in errors[0]
    assert "bad.py:3: constructs a Calibration" in errors[1]
    assert "bad.py:4: probe() takes a 'metrics' parameter" in errors[2]
    assert "bad.py:5: constructs a MetricsHub" in errors[3]


def test_docs_lint_rejects_a_documented_name_nothing_defines(
        tmp_path, monkeypatch):
    check_docs = _load_check_docs()
    assert check_docs.check_documented_names() == []    # this repo is clean

    (tmp_path / "src" / "repro").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "a.py").write_text(
        "class KeptClass:\n    def method(self): ...\n"
        "def MakeThing(): ...\nSomeAlias = KeptClass\n")
    (tmp_path / "scripts").mkdir()
    (tmp_path / "scripts" / "tool.py").write_text("ToolTable: dict = {}\n")
    (tmp_path / "docs").mkdir()
    (tmp_path / "README.md").write_text(
        "`KeptClass`, `KeptClass.method()`, `MakeThing`, `SomeAlias`, "
        "`ToolTable`, `ValueError`, `PartitionTime` and `plain_name` are "
        "fine; so is DeletedClass outside a code span.\n"
        "`DeletedClass(n=2)` is not.\n")
    (tmp_path / "docs" / "GUIDE.md").write_text(
        "`pkg.NotChecked` (an attribute) but `RenamedThing`.\n")
    monkeypatch.setattr(check_docs, "REPO", tmp_path)
    errors = check_docs.check_documented_names()
    assert len(errors) == 2
    assert errors[0].startswith("README.md: `DeletedClass`")
    assert errors[1].startswith("docs/GUIDE.md: `RenamedThing`")


def test_docs_lint_rejects_a_knob_no_caller_turns(tmp_path, monkeypatch):
    check_docs = _load_check_docs()
    assert check_docs.check_knobs_turned() == []        # this repo is clean

    core = tmp_path / "src" / "repro" / "core"
    core.mkdir(parents=True)
    (core / "config.py").write_text(
        "class EunomiaConfig:\n"
        "    batch_interval: float = 0.001\n"
        "    theta: ClassVar[float] = 0.005\n"
        "    unturned: int = 1\n")
    (core / "protocols.py").write_text(
        '_LAZY_MODULES = {\n    "toy": "repro.toy",\n}\n')
    (tmp_path / "src" / "repro" / "toy.py").write_text(
        "class Toy:\n    def option_names(self) -> tuple:\n"
        '        return ("turned", "idle")\n')
    (tmp_path / "benchmarks").mkdir()
    (tmp_path / "benchmarks" / "bench_toy.py").write_text(
        'EunomiaConfig(batch_interval=0.002)\nbuild("toy", **{"turned": 1})\n'
        "assert config.unturned == 1 and toy.idle==2\n")
    monkeypatch.setattr(check_docs, "REPO", tmp_path)
    errors = check_docs.check_knobs_turned()
    assert [error.split(" is set")[0] for error in errors] == [
        "EunomiaConfig.unturned", "option idle= of `toy`"]


def test_docs_lint_resolves_benchmark_artifact_names(tmp_path, monkeypatch):
    check_docs = _load_check_docs()
    (tmp_path / "benchmarks").mkdir()
    (tmp_path / "benchmarks" / "TRAJECTORY.json").write_text("{}")
    (tmp_path / "benchmarks" / "BENCH_pr27.json").write_text("{}")
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "ARCHITECTURE.md").write_text("# Lanes\n")
    (tmp_path / "src" / "repro").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "a.py").write_text(
        '"""Numbers in ``benchmarks/RESULTS.json``."""\n')
    readme = tmp_path / "README.md"
    readme.write_text(
        "`benchmarks/TRAJECTORY.json`, `benchmarks/BENCH_pr*.json` and "
        "benchmarks/BENCH_pr<N>.json resolve;\n"
        "`benchmarks/BENCH_pr9*.json` does not.\n")
    monkeypatch.setattr(check_docs, "REPO", tmp_path)
    monkeypatch.setattr(check_docs, "DOC_FILES",
                        [readme, tmp_path / "docs" / "ARCHITECTURE.md"])
    errors = check_docs.check_md_references()
    assert len(errors) == 2
    assert errors[0].startswith("README.md: names benchmarks/BENCH_pr9*.json")
    assert errors[1].startswith(
        "src/repro/a.py: names benchmarks/RESULTS.json")


def test_docs_lint_reads_tests_and_benchmarks(tmp_path, monkeypatch):
    """Roadmap item numbers go stale at every re-anchor, so no file of the
    docs, src/, tests/ or benchmarks/ may cite one; and a docstring under
    tests/ or benchmarks/ may name only ``*.md`` files that exist."""
    check_docs = _load_check_docs()
    assert check_docs.check_roadmap_citations() == []   # this repo is clean

    for root in ("docs", "src", "tests", "benchmarks"):
        (tmp_path / root).mkdir()
    (tmp_path / "docs" / "ARCHITECTURE.md").write_text("# Lanes\n")
    cite = "ROADMAP " + "item 4(b)"     # not one literal: this file is read
    (tmp_path / "tests" / "test_a.py").write_text(
        f'"""Owned by {cite}."""\n')
    (tmp_path / "benchmarks" / "bench_b.py").write_text(
        '"""Ablations of DESIGN.md\'s choices."""\n')
    (tmp_path / "src" / "c.py").write_text('"""The roadmap is fine."""\n')
    readme = tmp_path / "README.md"
    readme.write_text(f"Pinned, see {cite}.\n")
    monkeypatch.setattr(check_docs, "REPO", tmp_path)
    monkeypatch.setattr(check_docs, "DOC_FILES",
                        [readme, tmp_path / "docs" / "ARCHITECTURE.md"])
    cited = check_docs.check_roadmap_citations()
    assert [error.split(": ")[0] for error in cited] == [
        "README.md:1", "tests/test_a.py:1"]
    assert check_docs.check_md_references() == [
        "benchmarks/bench_b.py: names DESIGN.md, which is not in the repo"]


if __name__ == "__main__":
    exec(SMOKE)


def test_docs_lint_holds_the_line_count_ratchet(tmp_path, monkeypatch):
    check_docs = _load_check_docs()
    assert check_docs.check_line_counts() == []     # this repo is clean

    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "line_counts.json").write_text(
        '{"README.md": 2, "docs/ARCHITECTURE.md": 2}')
    (tmp_path / "README.md").write_text("one\ntwo\n")
    (tmp_path / "docs" / "ARCHITECTURE.md").write_text("one\ntwo\n")
    monkeypatch.setattr(check_docs, "REPO", tmp_path)
    assert check_docs.check_line_counts() == []
    (tmp_path / "README.md").write_text("one\ntwo\nthree\n")
    (tmp_path / "docs" / "ARCHITECTURE.md").write_text("one\n")
    errors = check_docs.check_line_counts()
    assert len(errors) == 2
    assert "README.md: 3 lines, over the 2 recorded" in errors[0]
    assert "lower the record to 1" in errors[1]
