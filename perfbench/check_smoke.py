"""Smoke test of the benchmark: every workload, untraced and traced, on shrunken inputs.

    python3 -m pytest perfbench/check_smoke.py

The file name keeps it out of the default test collection, so the tier-1
suite does not run it; each run takes a few seconds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def test_spec_keys():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run(workload, trace):
    proc = run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert ({k: v["unit"] for k, v in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in expected})
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        # Every function the tracer wraps exists, so no layer reads 0 for want of it.
        assert "untraced (not found in sudler): none" in proc.stdout, proc.stdout


def test_fails_without_sources():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    shutil.copy(HERE / "reference.json", bare / "perfbench")
    try:
        proc = run(bare, "--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                   "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
