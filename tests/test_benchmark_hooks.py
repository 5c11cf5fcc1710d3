"""The benchmark's hooks into the package still hold.

perfbench/tracing.py wraps package functions by name; a refactor that
removes or moves one silently zeroes that layer's metrics.  This loads the
tracer by path and checks each name it patches, and runs the benchmark's
verify and cotangent operations through its own output checks, so such a
refactor, or a change to a parsed output format or to a result shape that a
counter reads, fails here and not only in perfbench/check_smoke.py.
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


def test_tracer_counters_read_results():
    # The counters read result shapes (decompose's factors, the length of a
    # limit curve, log_two_sin's zero count).  Run the smoke verify ops and
    # one empirical_limit call under the tracer; every layer they reach must
    # record spans, and every counted layer its counts.
    tracing = _load("tracing")
    workloads = _load("workloads")
    ops = workloads._verify_ops(sudler, None, 1, True)
    table = sudler.build_table("[0;(15)]", 4)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for op_id, op in enumerate(ops):
            tracer.operation(op_id, op.name, op.run)
        tracer.operation(len(ops), "limit",
                         lambda: sudler.empirical_limit(table, 4, [-0.5, 0.1, 0.4]))
    finally:
        tracer.uninstall()
    assert sudler.empirical_limit is sudler.limitfn.empirical_limit
    reached = {span[1] for span in tracer.spans}
    assert reached >= {
        "cf.build_table", "numerics.log_two_sin", "numerics.kahan_sum", "products.scan",
        "products.log_sudler_shifted", "products.log_sudler", "products.decompose",
        "ostrowski.encode", "ostrowski.epsilon_profile", "cotangent.v_k",
        "limitfn.empirical_limit", "theorems.log_sin_integral", "theorems.d_k_terms",
        "theorems.theorem1_check", "theorems.lcnorm_prediction", "theorems.pnstar_prediction"}
    counted = {name for name, _, _, counter in tracing.PATCHES if counter is not None}
    for _, name, _, _, _, _, counts in tracer.spans:
        assert (counts is not None) == (name in counted), name
    stats = tracing.operation_stats(tracer.spans)
    assert stats["limitfn.empirical_limit.points"] == 3
    assert stats["numerics.log_two_sin.elements"] > stats["numerics.log_two_sin.zeros"] > 0
    assert stats["products.scan.blocks"] >= stats["products.scan.calls"] >= 1
    assert stats["products.decompose.blocks"] > 0
