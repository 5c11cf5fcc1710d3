"""The benchmark's three workloads, their inputs and their output checks.

Every operation goes through sudler's public API, looked up on the module
at call time (``sudler.scan``, ``sudler.cli.main``, ...), so a traced run
sees the same calls.  A workload is a closed loop with one client: the next
operation starts when the previous one has returned.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

REFERENCE = Path(__file__).resolve().parent / "reference.json"

SCAN_BUDGET = 15_000_000
C_LIST = (0.5, 2.0, 64.0)
# Tolerance on max_log and on sums[c]/max(1, c) against the values recorded at
# the seed commit.  A correct fractional-part kernel moves one factor's log by
# about 1e-16/dist(n alpha, Z), i.e. ~1e-9 at dist ~ 1/q_K; a broken one moves
# the running log by orders of magnitude more.
SCAN_TOL = 1e-7
CROSSING_TOL = 0.02
FACTOR_SAMPLE = 4096
ULP = 2.0 ** -53


@dataclass(frozen=True)
class Op:
    """One operation of a workload.

    ``check(result)`` returns (problems, info): an empty problem list means the
    output is correct, and info carries counts such as ``work``, the units of
    work the operation did for the workload's throughput.  ``group`` names the
    throughput the work counts towards; ``twin`` names the parallelism-1
    operation a parallelism-2 one is compared with; ``probe(result)`` returns
    (table, K) pairs whose fractional parts feed ``factor_err``.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], tuple]
    group: str | None = "main"
    twin: str | None = None
    probe: Callable[[object], list] | None = None


@dataclass(frozen=True)
class Workload:
    """A workload; why each was chosen is recorded in BENCHMARK.json."""

    name: str
    setup: Callable  # (sudler, smoke) -> state, timed as setup_s
    ops: Callable  # (sudler, state, seed, smoke) -> list[Op]
    probe_tables: Callable  # (sudler, state, smoke) -> list[(table, K)]
    group_names: dict  # throughput group -> name in the human report
    reference: Callable  # () -> None, the reference kernel (see below)


# Reference kernels.  The host this was built on drifts in speed by up to 2x
# over minutes (other tenants share its caches and memory bandwidth), which
# moved raw pass times 8-25% between runs.  Each operation's time is divided
# by the time of a fixed kernel with the same hardware profile as its
# workload, taken just before and after it; that ratio moved 3-10%.  The
# kernels use numpy and mpmath only, never sudler.  They do run in the same
# process right after an operation and inherit its heap, allocator and cache
# state, so that a change to sudler leaves them alone is assumed, not
# verified: prove.py prints their median time next to wall_ref to show it.


def _reference_scan():
    """Fresh 16 MB arrays through floor, sin, log, cumsum and exp."""
    x = np.arange(1, (1 << 21) + 1, dtype=np.float64) * 0.6180339887498949
    g = np.log(2.0 * np.abs(np.sin(np.pi * (x - np.floor(x)))))
    c = np.cumsum(g)
    float(np.sum(np.exp(0.5 * (c - c.max()))))


def _reference_curves():
    """log|2 sin| over a 772,920-point array at four shifts."""
    base = np.linspace(0.0, 1.0, 772_920, endpoint=False)
    for shift in (0.1, 0.2, 0.3, 0.4):
        float(np.sum(np.log(2.0 * np.abs(np.sin(np.pi * (base + shift))))))


def _reference_verify():
    """The verify suites' three profiles: 256-bit mpmath arithmetic and dict
    updates, scipy quad over a Python integrand, and a cotangent sum over
    772,920-element integer arrays."""
    import mpmath
    from scipy.integrate import quad

    with mpmath.workprec(256):
        x = mpmath.mpf(1)
        for _ in range(1500):
            x = x * mpmath.mpf(1.0001) + 1 / x
    counts = {}
    for i in range(20_000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    for y in (0.1, 0.2, 0.3, 0.4):
        quad(lambda t: math.log(np.sinc(t)) if t else 0.0, 0.0, y,
             epsabs=1e-13, epsrel=1e-13, limit=200)
    n = np.arange(1, 772_920, dtype=np.int64)
    t = ((n * 241) % 772_920 + 0.3) / 772_920
    float(np.sum(np.sin(np.pi * n * 1e-6) / np.tan(np.pi * t)))


def grid(lo: float, hi: float, step: float) -> np.ndarray:
    """lo, lo+step, ... up to hi inclusive, rounded so that 0 and +-1 are exact."""
    n = int(math.floor((hi - lo) / step + 1e-9)) + 1
    return np.round(lo + step * np.arange(n), 10)


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


# --- scan_q1e7 ---

SCAN_INPUTS = (("[0;(15)]", 6), ("golden", 34), ("[0;15,15,15,15,15,15]", 6),
               ("rule:powers-of-two", 6))
SCAN_SMOKE = (("[0;(15)]", 4), ("golden", 20), ("[0;15,15,15,15]", 4),
              ("rule:powers-of-two", 4))


def scan_key(spec: str, K: int) -> str:
    return f"{spec} K={K}"


def scan_summary(res) -> dict:
    """The recorded form of a ScanResult: exact integers, hex-float reals."""
    return {
        "q_K": int(res.q_K),
        "argmax_N": int(res.argmax_N),
        "max_log": float(res.max_log).hex(),
        "sums": {repr(c): float(v).hex() for c, v in sorted(res.sums.items())},
    }


def check_scan(ref: dict, res) -> list:
    problems = []
    if int(res.q_K) != ref["q_K"]:
        problems.append(f"q_K={res.q_K}, recorded {ref['q_K']}")
    if int(res.argmax_N) != ref["argmax_N"]:
        problems.append(f"argmax_N={res.argmax_N}, recorded {ref['argmax_N']}")
    max_ref = float.fromhex(ref["max_log"])
    if not abs(res.max_log - max_ref) <= SCAN_TOL:
        problems.append(f"max_log={res.max_log!r}, recorded {max_ref!r}")
    for c in C_LIST:
        s_ref = float.fromhex(ref["sums"][repr(c)])
        if not abs(res.sums[c] - s_ref) <= SCAN_TOL * max(1.0, c):
            problems.append(f"sums[{c}]={res.sums[c]!r}, recorded {s_ref!r}")
    # The 64-norm is squeezed between the max and the max plus log(q_K)/64.
    s64 = res.sums[64.0] / 64.0
    if not res.max_log - 1e-9 <= s64 <= res.max_log + math.log(res.q_K) / 64.0 + 1e-9:
        problems.append(f"sums[64]/64={s64!r} outside [max_log, max_log+log(q_K)/64]")
    return problems


def _scan_op(sudler, ref, spec, K, parallelism, group, twin=None):
    def run():
        table = sudler.build_table(spec, K)
        return table, sudler.scan(table, K, c_list=C_LIST, parallelism=parallelism,
                                  budget=SCAN_BUDGET)

    def check(out):
        _, res = out
        return check_scan(ref[scan_key(spec, K)], res), {"work": int(res.q_K)}

    return Op(f"scan:{spec}:K{K}:p{parallelism}", run, check, group, twin,
              probe=(lambda out: [(out[0], K)]) if parallelism == 1 else None)


def _no_setup(sudler, smoke):
    return None


def _scan_ops(sudler, state, seed, smoke):
    ref = load_reference()["scan"]
    inputs = SCAN_SMOKE if smoke else SCAN_INPUTS
    ops = [_scan_op(sudler, ref, spec, K, 1, "main") for spec, K in inputs]
    spec, K = inputs[0]
    ops.append(_scan_op(sudler, ref, spec, K, 2, "p2", twin=ops[0].name))
    return ops


# --- limit_curves ---


def _limit_setup(sudler, smoke):
    tables = {
        "a15": sudler.build_table("[0;(15)]", 4 if smoke else 6),
        "a2_50": sudler.build_table("[0;(2,50)]", 5),
    }
    for table in tables.values():  # the curves reuse one warm fractional-part cache
        table.frac_doubles(int(table.q[table.K_max]) + 1)
    return {"tables": tables, "fixtures": sudler.calibration.load_fixtures()}


def _curve_op(sudler, name, table, k, xs, check_curve, closed_form):
    q_k = int(table.q[k])

    def run():
        emp = sudler.empirical_limit(table, k, xs, budget=SCAN_BUDGET)
        return emp, sudler.g_alpha(15, xs) if closed_form else None

    def check(out):
        return check_curve(*out), {"work": len(xs) * q_k}

    return Op(name, run, check)


def _limit_ops(sudler, state, seed, smoke):
    from sudler.limitfn import crossing_abscissa

    t15, t250 = state["tables"]["a15"], state["tables"]["a2_50"]
    sups = state["fixtures"]["limit_curve"]

    def sup_within(limit, label):
        def check(emp, closed):
            sup = float(np.max(np.abs(emp - closed)))
            return [] if sup <= limit else [f"{label}: sup |emp - g_alpha| = {sup!r} > {limit!r}"]
        return check

    def crossing_near(xs, target, label):
        def check(emp, _):
            try:
                x = crossing_abscissa(xs, emp)
            except sudler.SudlerError as exc:
                return [f"{label}: {exc}"]
            return [] if abs(x - target) <= CROSSING_TOL else [
                f"{label}: crossing at {x!r}, expected {target!r} +- {CROSSING_TOL}"]
        return check

    fine = grid(-1.0, 1.0, 0.05 if smoke else 0.005)
    coarse = grid(-0.95, 0.95, 0.25)
    cross = grid(0.5, 1.0, 0.005)
    # The k=5 curve sits between the calibrated k=4 and k=6 curves; it is held
    # to the tighter k=4 envelope.  The 401-point curve runs as four calls on
    # consecutive quarters of its grid and the 8-point one as two, so that an
    # operation lasts about a second and the reference kernel timed around it
    # tracks the host's speed while it runs.
    k_fine, k_coarse = (4, 4) if smoke else (5, 6)
    sup_coarse = sups["a15_k4_sup"] if smoke else sups["a15_k6_sup"]
    ops = [
        _curve_op(sudler, f"curve:[0;(15)]:k{k_fine}:{i + 1}/4", t15, k_fine, part,
                  sup_within(sups["a15_k4_sup"], f"a15 k={k_fine}"), True)
        for i, part in enumerate(np.array_split(fine, 4))
    ]
    ops += [
        _curve_op(sudler, "curve:[0;(2,50)]:k4", t250, 4, cross,
                  crossing_near(cross, 0.95, "fig2 k=4"), False),
        _curve_op(sudler, "curve:[0;(2,50)]:k5", t250, 5, cross,
                  crossing_near(cross, 5.0 / 6.0, "fig2 k=5"), False),
    ]
    ops += [
        _curve_op(sudler, f"curve:[0;(15)]:k{k_coarse}:coarse:{i + 1}/2", t15, k_coarse,
                  part, sup_within(sup_coarse, f"a15 k={k_coarse}"), True)
        for i, part in enumerate(np.array_split(coarse, 2))
    ]
    return ops


def _limit_probes(sudler, state, smoke):
    return [(t, t.K_max) for t in state["tables"].values()]


# --- verify_family ---

VERIFY_SUITES = ("decomp", "theorem1", "theorem2", "theorem3")
VERIFY_DIGITS = (7, 10, 12)  # a = 1, 4, 0 (mod 6)
_REPORT = re.compile(r".*: observed=\S+ prediction=\S+ budget=\S+ (PASS|FAIL)$")
_SUMMARY = re.compile(r"suite (\w+): (PASS|FAIL) \((\d+)/(\d+)\)$")
_COTANGENT = re.compile(r"k=(\d+) V: (\d+) grid points, max \|residual\|=(\S+)$")


def run_cli(sudler, argv):
    """sudler.cli.main(argv) in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = sudler.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def check_verify(suite, out) -> tuple:
    rc, stdout, stderr = out
    lines = stdout.splitlines()
    problems = []
    if rc not in (0, 1):
        problems.append(f"exit code {rc!r}")
    if "Traceback" in stdout + stderr:
        problems.append("traceback in output")
    flags = [m.group(1) for m in map(_REPORT.match, lines[:-1]) if m]
    summary = _SUMMARY.match(lines[-1]) if lines else None
    if summary is None:
        problems.append(f"unparsable summary line {lines[-1:]!r}")
    else:
        name, verdict, passed, total = summary.groups()
        if (name, int(passed), int(total)) != (suite, flags.count("PASS"), len(flags)):
            problems.append(f"summary {lines[-1]!r} disagrees with {len(flags)} report lines")
        if (verdict == "PASS") != (rc == 0) or (verdict == "PASS") != (int(passed) == int(total)):
            problems.append(f"summary {lines[-1]!r} disagrees with exit code {rc}")
    info = {"work": len(flags), "reports": len(flags), "reports_failed": flags.count("FAIL")}
    return problems, info


def check_cotangent(n_points, out) -> tuple:
    rc, stdout, stderr = out
    m = _COTANGENT.match(stdout.strip())
    problems = []
    if rc != 0 or stderr:
        problems.append(f"exit code {rc!r}, stderr {stderr!r}")
    if m is None or int(m.group(2)) != n_points or not math.isfinite(float(m.group(3))):
        problems.append(f"unexpected output {stdout!r}")
    return problems, {}


def _verify_ops(sudler, state, seed, smoke):
    digits, K = ((7,), "2") if smoke else (VERIFY_DIGITS, "3")
    ops = []
    for suite in VERIFY_SUITES:
        for a in digits:
            argv = ["verify", "--suite", suite, "--alpha", f"[0;({a})]", "--K", K,
                    "--seed", str(seed)]
            ops.append(Op(f"cli.verify.{suite}.a{a}",
                          lambda argv=argv: run_cli(sudler, argv),
                          lambda out, suite=suite: check_verify(suite, out)))
    k, spec, n_points = ("3", "-0.9:0.9:0.3", 7) if smoke else ("5", "-0.9:0.9:0.05", 37)
    argv = ["cotangent", "--alpha", "[0;(15)]", "--k", k, "--grid", spec]
    ops.append(Op("cli.cotangent", lambda: run_cli(sudler, argv),
                  lambda out: check_cotangent(n_points, out), group=None))
    return ops


def _verify_probes(sudler, state, smoke):
    # The tables the theorem suites build: [0;(a)] to K+1.
    K = 3 if smoke else 4
    out = []
    for a in ((7,) if smoke else VERIFY_DIGITS):
        table = sudler.build_table(f"[0;({a})]", K)
        out.append((table, K))
    return out


# --- accuracy probe ---


def factor_err(sudler, table, K, rng, size=FACTOR_SAMPLE) -> float:
    """max |delta log|2 sin(pi y_n)|| * dist(n alpha, Z) in units of 2^-53.

    y_n comes from ConvergentTable.frac_doubles and goes through the product
    kernel's log_two_sin; the reference is the mpmath oracle frac_part.  The
    sample is every q_k < q_K plus `size` seeded n in [1, q_K).
    """
    import mpmath

    q_K = int(table.q[K])
    ns = {int(table.q[k]) for k in range(K) if 0 < table.q[k] < q_K}
    ns.update(int(n) for n in rng.integers(1, q_K, size=size))
    ns = sorted(ns)
    y = table.frac_doubles(q_K)[ns]
    logs, _ = sudler.numerics.log_two_sin(y)
    worst = 0.0
    with mpmath.workprec(160):
        for n, g in zip(ns, logs):
            f = table.frac_part(n)
            d = min(f, 1 - f)
            ref = mpmath.log(2 * mpmath.sin(mpmath.pi * d))
            worst = max(worst, float(abs(g - ref) * d) / ULP)
    return worst


WORKLOADS = {
    "scan_q1e7": Workload(
        "scan_q1e7",
        _no_setup, _scan_ops, lambda sudler, state, smoke: [],
        {"main": "scan_terms_per_s", "p2": "scan_p2_terms_per_s"},
        _reference_scan,
    ),
    "limit_curves": Workload(
        "limit_curves",
        _limit_setup, _limit_ops, _limit_probes,
        {"main": "curve_terms_per_s"},
        _reference_curves,
    ),
    "verify_family": Workload(
        "verify_family",
        _no_setup, _verify_ops, _verify_probes,
        {"main": "verify_reports_per_s"},
        _reference_verify,
    ),
}
