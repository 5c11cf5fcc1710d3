"""Command-line front end.

Subcommands: cf, ostrowski, scan, cotangent, limitfn, verify, figures,
calibrate.  Machine output is JSON with hex-float reals or CSV for plotting;
every subcommand is deterministic given its flags and fixtures.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import __version__, calibration, serialize
from .cf import build_table, parse_alpha
from .cotangent import v_k, v_k_main_term, v_k_star
from .errors import RangeError, RationalDepthError, SudlerError
from .limitfn import DEFAULT_CURVE_BUDGET, crossing_abscissa, empirical_limit, g_alpha, g_alpha_r
from .ostrowski import decode, encode, epsilon_profile
from .products import DEFAULT_SCAN_BUDGET, DEFAULT_TOP_M, decompose, decompose_all, scan
from .theorems import (
    PredictionReport,
    bernoulli_b2_closed_forms,
    bernoulli_b2_integrals,
    fixture_value,
    lcnorm_prediction,
    pnstar_prediction,
    theorem1_check,
    vol41,
)


GRID_MAX_POINTS = 10 ** 6


def _parse_grid(text: str) -> np.ndarray:
    try:
        lo, hi, step = (float(p) for p in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"grid must be lo:hi:step, got {text!r}") from None
    if not (0 < step < math.inf and -math.inf < lo <= hi < math.inf):
        raise argparse.ArgumentTypeError("grid requires finite lo <= hi and step > 0")
    # Points lo + i*step up to hi inclusive; the tolerance keeps hi itself
    # when (hi - lo)/step rounds just below an integer.  The points meant to
    # be 0 or hi are set to them exactly, and none passes hi.
    span = (hi - lo) / step  # inf when it overflows
    n = math.floor(span + 1e-9) + 1 if span < GRID_MAX_POINTS else math.inf
    if n > GRID_MAX_POINTS:
        raise argparse.ArgumentTypeError(f"grid {text!r} has more than {GRID_MAX_POINTS} points")
    grid = lo + step * np.arange(n)
    for target in (0.0, hi):
        i = round((target - lo) / step)
        if 0 <= i < n and abs((target - lo) / step - i) < 1e-9:
            grid[i] = target
    return np.minimum(grid, hi)


def _parse_c_list(text: str) -> tuple:
    try:
        return tuple(float(c) for c in text.split(",")) if text else ()
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}") from None


def _parse_seed(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"seed must be an integer >= 0, got {text!r}")
    return int(text)


def _add_alpha(sub, default=None):
    sub.add_argument("--alpha", default=default, required=default is None,
                     help="alpha specification")


def _table(args, K):
    return build_table(parse_alpha(args.alpha), K)


def cmd_cf(args) -> int:
    table = _table(args, args.K)
    doc = serialize.table_to_dict(table)
    if args.out:
        serialize.dump_json(doc, args.out)
    print(f"alpha={table.alpha.render()} K_max={table.K_max} "
          f"q_K={table.q[table.K_max]} delta_K={float(table.delta[table.K_max]):.12g}")
    return 0


def cmd_ostrowski(args) -> int:
    table = _table(args, args.K)
    digits = encode(table, args.N, K=args.K)
    eps = epsilon_profile(digits)
    doc = {
        "schema_version": serialize.SCHEMA_VERSION,
        "alpha": table.alpha.render(),
        "N": str(args.N),
        "digits": list(digits.digits),
        "epsilon": {str(k): serialize.float_to_hex(float(v)) for k, v in eps.items()},
    }
    if args.out:
        serialize.dump_json(doc, args.out)
    print(f"N={args.N} digits={list(digits.digits)} (decode={decode(digits)})")
    return 0


def cmd_scan(args) -> int:
    table = _table(args, args.K)
    res = scan(table, args.K, c_list=args.c, parallelism=args.parallelism,
               top_m=args.top, budget=args.budget)
    if args.out:
        serialize.dump_json(serialize.scan_result_to_dict(res), args.out)
    digits = encode(table, res.argmax_N, K=args.K)
    print(f"q_K={res.q_K} argmax_N={res.argmax_N} digits={list(digits.digits)} "
          f"max_log={res.max_log:.9f}")
    for c in sorted(res.sums):
        print(f"  c={c:g}: log sum = {res.sums[c]:.9f}")
    return 0


def cmd_cotangent(args) -> int:
    table = _table(args, max(args.k, 2))
    grid = args.grid.tolist()
    vals = (v_k_star if args.starred else v_k)(table, args.k, grid)
    rows = []
    for x, val in zip(grid, vals):
        main = v_k_main_term(table, args.k, x, starred=args.starred)
        rows.append((x, val, main, val - main))
    if args.out:
        serialize.write_csv(args.out, ["x", "direct", "main_term", "residual"], rows)
    worst = max(abs(r[3]) for r in rows)
    print(f"k={args.k} {'V*' if args.starred else 'V'}: {len(rows)} grid points, "
          f"max |residual|={worst:.3e}")
    return 0


def cmd_limitfn(args) -> int:
    table = _table(args, args.k)
    grid = args.grid
    emp = empirical_limit(table, args.k, grid, budget=args.budget)
    two_sin = np.abs(2.0 * np.sin(np.pi * grid))
    if args.closed_form:
        spec = table.alpha
        if spec.period is None:
            raise SudlerError("--closed-form requires a periodic alpha")
        r = (args.k - len(spec.preperiod) - 1) % len(spec.period) + 1
        closed = g_alpha_r(spec, r, grid)
    else:
        closed = np.full_like(grid, math.nan)
    rows = list(zip(map(float, grid), map(float, emp),
                    map(float, closed), map(float, two_sin)))
    if args.out:
        serialize.write_csv(args.out, ["x", "empirical", "closed_form", "two_sin"], rows)
    print(f"k={args.k} q_k={table.q[args.k]}: {len(rows)} points "
          f"max empirical={float(np.max(emp)):.6f}")
    return 0


def cmd_figures(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    grid = args.grid
    if args.which == "fig1":
        cols = {}
        for a in (5, 15, 50):
            table = build_table(f"[0;({a})]", 4)
            cols[a] = empirical_limit(table, 4, grid)
        two_sin = np.abs(2.0 * np.sin(np.pi * grid))
        rows = zip(map(float, grid), cols[5], cols[15], cols[50], two_sin)
        path = os.path.join(args.out, "fig1.csv")
        serialize.write_csv(path, ["x", "a5", "a15", "a50", "two_sin"], rows)
    elif args.which == "fig2":
        table = build_table("[0;(2,50)]", 5)
        k4 = empirical_limit(table, 4, grid)
        k5 = empirical_limit(table, 5, grid)
        two_sin = np.abs(2.0 * np.sin(np.pi * grid))
        path = os.path.join(args.out, "fig2.csv")
        serialize.write_csv(path, ["x", "k4", "k5", "two_sin"],
                            zip(map(float, grid), k4, k5, two_sin))
    else:
        table = build_table("[0;(15)]", 4)
        emp = empirical_limit(table, 4, grid)
        closed = g_alpha(15, grid)
        path = os.path.join(args.out, "fig3.csv")
        serialize.write_csv(path, ["x", "empirical", "closed_form", "residual"],
                            zip(map(float, grid), emp, closed, emp - closed))
    print(f"wrote {path}")
    return 0


def cmd_calibrate(args) -> int:
    path = args.out or calibration.default_fixture_path()
    calibration.calibrate(out_path=path)
    print(f"fixtures written to {path}")
    return 0


def _suite_constants(args, fixtures) -> list[PredictionReport]:
    v = vol41()
    twopi = 2.0 * math.pi
    n1, n2 = bernoulli_b2_integrals()
    c1, c2 = bernoulli_b2_closed_forms()
    return [
        PredictionReport("Vol(4_1)", 2.02988, v, 5e-6),
        PredictionReport("9 Vol / 25 pi", 0.23260748, 9 * v / (25 * math.pi), 1e-8),
        PredictionReport("Gamma(1/6) Gamma(5/6) = 2 pi", twopi,
                         math.gamma(1 / 6) * math.gamma(5 / 6), twopi * 1e-10),
        PredictionReport("B2 integral at 5/6", c1, n1, 1e-6),
        PredictionReport("B2 integral at 0", c2, n2, 1e-6),
    ]


def _suite_decomp(args, fixtures) -> list[PredictionReport]:
    """decompose_all against the scan for every N < q_K, and per-N decompose against it at a sample."""
    K = args.K
    table = _table(args, K)
    res = scan(table, K)
    tree = decompose_all(table, K)
    worst = float(np.max(np.abs(tree - res.values) / (1.0 + np.abs(res.values))))
    rng = np.random.default_rng(args.seed)
    sample = {res.q_K - 1, res.argmax_N, *map(int, rng.integers(0, res.q_K, size=8))}
    for N in sorted(sample):
        total = decompose(encode(table, N, K=K)).total
        worst = max(worst, abs(total - tree[N]) / (1.0 + abs(tree[N])))
    return [PredictionReport(f"decomposition identity N<q_{K}", 0.0, worst, 1e-9)]


def _suite_limits(args, fixtures) -> list[PredictionReport]:
    budget = fixture_value(fixtures, "limit_curve", "a15_k4_sup")
    grid = np.round(np.arange(-0.95, 0.9501, 0.01), 10)
    table15 = build_table("[0;(15)]", 4)
    sup = float(np.max(np.abs(
        empirical_limit(table15, 4, grid) - g_alpha(15, grid)
    )))
    reports = [PredictionReport("a=15 k=4 curve vs closed form", 0.0, sup, budget)]
    table250 = build_table("[0;(2,50)]", 5)
    cross_grid = np.round(np.arange(0.5, 1.0001, 0.005), 10)
    c4 = crossing_abscissa(cross_grid, empirical_limit(table250, 4, cross_grid))
    c5 = crossing_abscissa(cross_grid, empirical_limit(table250, 5, cross_grid))
    reports.append(PredictionReport("fig2 crossing k=4", 0.95, c4, 0.02))
    reports.append(PredictionReport("fig2 crossing k=5", 5.0 / 6.0, c5, 0.02))
    return reports


def _law_table(args):
    """The theorem suites' table, built to K + 1."""
    if args.K < 1:
        raise RangeError(f"--K must be >= 1, got {args.K}")
    try:
        return _table(args, args.K + 1)
    except RationalDepthError as exc:
        raise RationalDepthError(
            f"{exc}; the theorem suites build the table to K + 1 = {args.K + 1}") from None


# The theorem suites look the law functions up in this module when they run,
# so the benchmark's tracer sees them under their `sudler.cli` names.
SUITES = {
    "constants": _suite_constants,
    "decomp": _suite_decomp,
    "limits": _suite_limits,
    "theorem1": lambda args, fx: theorem1_check(_law_table(args), args.K, fx, args.seed),
    "theorem2": lambda args, fx: lcnorm_prediction(_law_table(args), args.K, fx, args.c),
    "theorem3": lambda args, fx: [pnstar_prediction(_law_table(args), args.K, fx)],
}
# Suites that read neither --alpha nor --K; their JSON records null for both.
FIXED_SUITES = ("constants", "limits")


def cmd_verify(args) -> int:
    fixtures = calibration.load_fixtures(args.fixtures)
    reports = SUITES[args.suite](args, fixtures)
    ok = all(r.passed for r in reports)
    for r in reports:
        tag = "PASS" if r.passed else "FAIL"
        print(f"{r.label}: observed={r.observed:.9g} prediction={r.prediction:.9g} "
              f"budget={r.error_budget:.3g} {tag}")
    if args.out:
        serialize.dump_json({
            "schema_version": serialize.SCHEMA_VERSION,
            "suite": args.suite,
            "alpha": None if args.suite in FIXED_SUITES else args.alpha,
            "K": None if args.suite in FIXED_SUITES else args.K,
            "pass": ok,
            "reports": [
                {k: (serialize.float_to_hex(v) if isinstance(v, float) else v)
                 for k, v in r.as_dict().items()}
                for r in reports
            ],
        }, args.out)
    print(f"suite {args.suite}: {'PASS' if ok else 'FAIL'} "
          f"({sum(r.passed for r in reports)}/{len(reports)})")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="sudler", description=__doc__)
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    s = sub.add_parser("cf", help="build and emit a convergent table")
    _add_alpha(s)
    s.add_argument("--K", type=int, required=True)
    s.add_argument("--out")
    s.set_defaults(fn=cmd_cf)

    s = sub.add_parser("ostrowski", help="digit expansion of N")
    _add_alpha(s)
    s.add_argument("--K", type=int, required=True)
    s.add_argument("--N", type=int, required=True)
    s.add_argument("--out")
    s.set_defaults(fn=cmd_ostrowski)

    s = sub.add_parser("scan", help="sweep N < q_K for max and c-norm sums")
    _add_alpha(s)
    s.add_argument("--K", type=int, required=True)
    s.add_argument("--c", type=_parse_c_list, default="",
                   help="comma-separated norm exponents")
    s.add_argument("--parallelism", type=int, default=1)
    s.add_argument("--top", type=int, default=DEFAULT_TOP_M)
    s.add_argument("--budget", type=int, default=DEFAULT_SCAN_BUDGET)
    s.add_argument("--out")
    s.set_defaults(fn=cmd_scan)

    s = sub.add_parser("cotangent", help="sine-weighted cotangent sums on a grid")
    _add_alpha(s)
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--grid", type=_parse_grid, required=True)
    s.add_argument("--starred", action="store_true")
    s.add_argument("--out")
    s.set_defaults(fn=cmd_cotangent)

    s = sub.add_parser("limitfn", help="empirical limit curve, optionally vs closed form")
    _add_alpha(s)
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--grid", type=_parse_grid, required=True)
    s.add_argument("--closed-form", action="store_true")
    s.add_argument("--budget", type=int, default=DEFAULT_CURVE_BUDGET)
    s.add_argument("--out")
    s.set_defaults(fn=cmd_limitfn)

    s = sub.add_parser("figures", help="CSV data behind the reference figures")
    s.add_argument("--which", choices=("fig1", "fig2", "fig3"), required=True)
    s.add_argument("--out", required=True, help="output directory")
    s.add_argument("--grid", type=_parse_grid, default="-1:1:0.005")
    s.set_defaults(fn=cmd_figures)

    s = sub.add_parser("verify", help="run a verification suite against fixtures")
    _add_alpha(s, "[0;(10)]")
    s.add_argument("--suite", choices=tuple(SUITES), required=True)
    s.add_argument("--K", type=int, default=3)
    s.add_argument("--c", type=_parse_c_list, default="",
                   help="comma-separated norm exponents")
    s.add_argument("--fixtures", default=None)
    s.add_argument("--seed", type=_parse_seed, default=0)
    s.add_argument("--out")
    s.set_defaults(fn=cmd_verify)

    s = sub.add_parser("calibrate", help="recompute and freeze envelope constants")
    s.add_argument("--out", default=None)
    s.set_defaults(fn=cmd_calibrate)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    # Let `--grid -1:1:0.005` parse even though the value starts with '-'.
    argv = list(argv)
    for i, tok in enumerate(argv[:-1]):
        if tok == "--grid" and argv[i + 1].startswith("-"):
            argv[i : i + 2] = [f"--grid={argv[i + 1]}"]
            break
    try:
        try:
            args = ap.parse_args(argv)
            return args.fn(args)
        except BrokenPipeError:
            raise
        except (SudlerError, OSError) as exc:  # OSError: an --out that cannot be written
            print(f"error: {exc}", file=sys.stderr)
            return 1
        finally:
            sys.stdout.flush()
    except BrokenPipeError:
        # Python's recipe for a reader that closed the pipe: point stdout at
        # devnull so that the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
