"""Smoke and repeatability tests of the benchmark itself.

    python3 -m pytest rbonbench -q

Each workload runs at --size tiny, traced and untraced; the printed
metric names must be exactly those BENCHMARK.json declares, and traced
count metrics must repeat exactly for a fixed seed.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload, trace, seed=3, cwd=ROOT, script=HERE / "run.py"):
    command = [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
               "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(done):
    assert done.returncode == 0, done.stderr[-3000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_prints_declared_metrics(workload, trace):
    result = result_of(run_bench(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    printed = result["metrics"]
    assert set(printed) == set(declared)
    for name, metric in printed.items():
        assert NAME.match(name), name
        assert set(metric) == {"value", "unit"} and metric["unit"] == declared[name]
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(printed[m]["value"] > 0 for m in declared)


def test_counts_repeat_exactly():
    counted = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "ratio", "bytes")
               and m["name"] != "trace.overhead_frac"]
    for workload in WORKLOADS:
        first, second = (result_of(run_bench(workload, 1))["metrics"] for _ in range(2))
        for name in counted:
            assert first[name]["value"] == second[name]["value"], (workload, name)


def test_refuses_without_sources(tmp_path):
    """In a directory holding only the benchmark, it fails without a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = run_bench("forecast", 0, cwd=tmp_path, script=tmp_path / HERE.name / "run.py")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_seed0_wave_rbon_cell_counts():
    """The full-size seed-0 wave rbon cell: 180 Lloyd runs, 4239 iterations."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import rbon.harness as harness
    import spans

    tracer = spans.Tracer()
    with tracer.installed():
        harness.run_cell(harness.desk_config("wave"), "rbon", 0)
    metrics = spans.layer_metrics(tracer)
    assert metrics["clustering.lloyd.runs"][0] == 180
    assert metrics["clustering.lloyd.iterations"][0] == 4239
    assert metrics["harness.models_trained"][0] == 9
    assert metrics["clustering.kmeans.calls"][0] == 18
