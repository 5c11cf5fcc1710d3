"""The benchmark's hooks into the package still hold.

perfbench/tracing.py wraps package functions by name; a refactor that
removes or moves one silently zeroes that layer's metrics.  This loads the
tracer by path and checks each name it patches, and runs the benchmark's
verify and cotangent operations through its own output checks, so such a
refactor, or a change to a parsed output format, fails here and not only in
perfbench/check_smoke.py.
"""

import importlib.util
import sys
from pathlib import Path

import sudler
import sudler.cli
from sudler.cf import ConvergentTable

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_every_patch_resolves():
    tracing = _load("tracing")
    paths = [p for _, home, sites, _ in tracing.PATCHES for p in (home, *sites)]
    assert [p for p in paths if tracing._resolve(p) is None] == []
    assert len(tracing.PATCHES) >= 19


def test_frac_doubles_kept_for_the_benchmark():
    assert callable(ConvergentTable.frac_doubles)


def test_cotangent_output_parses():
    # the smoke run of verify_family's cli.cotangent op: 7 grid points at k = 3
    workloads = _load("workloads")
    op, = (op for op in workloads._verify_ops(sudler, None, 1, True)
           if op.name == "cli.cotangent")
    out = op.run()
    assert workloads.check_cotangent(7, out) == ([], {})


def test_verify_output_parses():
    # the smoke run of verify_family's verify ops: each suite at a = 7, K = 2
    workloads = _load("workloads")
    ops = [op for op in workloads._verify_ops(sudler, None, 1, True)
           if op.name.startswith("cli.verify.")]
    assert len(ops) == len(workloads.VERIFY_SUITES)
    for op in ops:
        problems, info = op.check(op.run())
        assert problems == [] and info["reports"] >= 1, (op.name, problems)
