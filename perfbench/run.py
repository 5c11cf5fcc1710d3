"""Benchmark of the sudler toolkit: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload scan_q1e7 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; sudler is imported from ./src.  With
--trace 0 the last line carries the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run.  The lines before it report every metric
by name and unit, the machine fingerprint and each operation's timings; the
full run record (and, traced, every span) goes to perfbench/out/.  --smoke
shrinks every input so that a run takes seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# name, unit
END_TO_END = (
    ("setup_s", "s"),
    ("wall_ref", "ref"),
    ("peak_rss_mb", "MB"),
    ("work_per_ref", "1/ref"),
    ("factor_err", "ulp"),
)

PER_LAYER = (
    ("cf.build_table.s", "s"),
    ("cf.frac_doubles.s", "s"),
    ("cf.frac_doubles.elements", "count"),
    ("numerics.frac_parts_dd.s", "s"),
    ("numerics.frac_parts_dd.elements", "count"),
    ("numerics.log_two_sin.s", "s"),
    ("numerics.log_two_sin.elements", "count"),
    ("numerics.log_two_sin.zeros", "count"),
    ("numerics.kahan_sum.s", "s"),
    ("products.scan.self_s", "s"),
    ("products.scan.blocks", "count"),
    ("products.scan.p2_speedup", "ratio"),
    ("products.scan.p2_terms_per_s", "1/s"),
    ("products.log_sudler_shifted.s", "s"),
    ("products.log_sudler_shifted.calls", "count"),
    ("products.log_sudler.s", "s"),
    ("products.log_sudler.calls", "count"),
    ("products.decompose.s", "s"),
    ("products.decompose.calls", "count"),
    ("products.decompose.blocks", "count"),
    ("ostrowski.encode.s", "s"),
    ("ostrowski.encode.calls", "count"),
    ("ostrowski.epsilon_profile.s", "s"),
    ("ostrowski.epsilon_profile.calls", "count"),
    ("cotangent.v_k.s", "s"),
    ("cotangent.v_k.calls", "count"),
    ("limitfn.empirical_limit.self_s", "s"),
    ("limitfn.empirical_limit.points", "count"),
    ("limitfn.g_alpha.s", "s"),
    ("theorems.log_sin_integral.s", "s"),
    ("theorems.log_sin_integral.calls", "count"),
    ("theorems.d_k_terms.s", "s"),
    ("theorems.theorem1_check.self_s", "s"),
    ("theorems.lcnorm_prediction.s", "s"),
    ("theorems.pnstar_prediction.s", "s"),
    *((f"cli.verify.{suite}.a{a}.s", "s")
      for suite in ("decomp", "theorem1", "theorem2", "theorem3") for a in (7, 10, 12)),
    ("cli.cotangent.s", "s"),
    ("cli.verify.reports", "count"),
    ("cli.verify.reports_failed", "count"),
    ("import.sudler.s", "s"),
    ("import.scipy.s", "s"),
    ("trace.overhead", "ratio"),
)

SETUP_SAMPLES = 4
IMPORT_SAMPLES = 3
# An operation is divided by the median of the REF_WINDOW reference kernel
# times taken on each side of it.  One kernel time is a noisy sample of the
# host's speed; on verify_family 3 on each side kept wall_ref steadier than
# 1 or 10.
REF_WINDOW = 3
# setup_s is given in CPU seconds of a host on which the reference import
# below takes this long.  On the 2-CPU host the benchmark was built on it
# took 0.5-1.1 s as the host's speed drifted, and set-up times moved with
# it.  CPU time leaves out the time the host gives this CPU to other
# tenants; set-up is single-threaded, so it is otherwise the wall time.
REFERENCE_IMPORT_S = 0.75

# Set-up from a fresh interpreter: import sudler (and its CLI) and build the
# workload's tables, timed from before the first import; wall and CPU time.
SETUP_CODE = """\
import sys, time
t0, c0 = time.perf_counter(), time.process_time()
sys.path[:0] = sys.argv[1:3]
import sudler, sudler.cli, workloads
workloads.WORKLOADS[sys.argv[3]].setup(sudler, sys.argv[4] == "1")
print(repr(time.perf_counter() - t0), repr(time.process_time() - c0))
"""
# The reference for set-up: a fresh interpreter importing sudler's
# third-party dependencies, never sudler itself.
REFERENCE_IMPORT_CODE = """\
import time
t0, c0 = time.perf_counter(), time.process_time()
import numpy, scipy.integrate, mpmath
print(repr(time.perf_counter() - t0), repr(time.process_time() - c0))
"""
IMPORT_CODE = "import sys; sys.path.insert(0, sys.argv[1]); import sudler"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true", help="shrink every input")
    return ap.parse_args(argv)


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def fingerprint() -> dict:
    from importlib import metadata

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        from numpy.core._multiarray_umath import __cpu_features__
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "mpmath": version("mpmath"),
        "numpy_simd": sorted(k for k, on in __cpu_features__.items() if on),
        "sudler_bits": os.environ.get("SUDLER_BITS", "256 (default)"),
        "git_commit": git_commit(ROOT),
    }


def child_seconds(*argv) -> tuple:
    """Run a fresh interpreter on argv; the (wall, CPU) seconds it prints last."""
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    wall, cpu = proc.stdout.strip().splitlines()[-1].split()
    return float(wall), float(cpu)


def setup_samples(workload: str, smoke: bool, n: int) -> tuple:
    """n set-up times and n + 1 reference import times interleaved with them.

    An untimed set-up goes first: the first of a run was the slowest in
    almost every run of limit_curves, whose set-up fills ~0.9 GB.
    """
    argv = ("-c", SETUP_CODE, str(SRC), str(HERE), workload, str(int(smoke)))
    child_seconds(*argv)
    refs = [child_seconds("-c", REFERENCE_IMPORT_CODE)]
    setups = []
    for _ in range(n):
        setups.append(child_seconds(*argv))
        refs.append(child_seconds("-c", REFERENCE_IMPORT_CODE))
    return setups, refs


def import_seconds() -> tuple:
    """(import sudler, the scipy part of it) from -X importtime in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", IMPORT_CODE, str(SRC)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    total, scipy = 0.0, {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].rstrip()
        module = name.strip()
        cumulative = int(parts[1]) * 1e-6
        if module == "sudler":
            total = cumulative
        elif module == "scipy" or module.startswith("scipy."):
            scipy.setdefault(len(name) - len(name.lstrip()), []).append(cumulative)
    # The outermost scipy imports already include everything below them.
    return total, sum(scipy[min(scipy)]) if scipy else 0.0


class Runner:
    """Runs one workload's operations in a closed loop and keeps every sample."""

    def __init__(self, sudler, workloads, tracing, args, reference):
        self.sudler = sudler
        self.reference = reference
        self.workloads = workloads
        self.args = args
        self.tracer = tracing.Tracer() if args.trace else None
        self.samples = {}  # op name -> list of occurrence dicts
        self.attempted = 0
        self.failed = 0
        self.factor_errs = []
        self.refs = []  # reference kernel times, one before the first op and one after each

    def traced(self, op_id, name, fn):
        self.tracer.install()
        try:
            return self.tracer.operation(op_id, name, fn)
        finally:
            self.tracer.uninstall()

    def execute(self, op, op_id, traced):
        """Time one execution of op, then check its output outside the timing."""
        t0 = time.perf_counter()
        try:
            result = self.traced(op_id, op.name, op.run) if traced else op.run()
            error = None
        except Exception:
            result, error = None, traceback.format_exc()
        dt = time.perf_counter() - t0
        if error is None:
            try:
                problems, info = op.check(result)
            except Exception:
                problems, info = [traceback.format_exc()], {}
        else:
            problems, info = [error], {}
        if (op.probe is not None and not self.args.trace and error is None
                and not self.samples[op.name]):
            problems += self.probe(lambda: op.probe(result))
        self.attempted += 1
        self.failed += bool(problems)
        return dt, problems, info

    def probe(self, tables):
        """Add factor_err of each (table, K) from tables(); return the problems."""
        np = sys.modules["numpy"]
        size = 256 if self.args.smoke else self.workloads.FACTOR_SAMPLE
        try:
            for table, K in tables():
                rng = np.random.default_rng([self.args.seed, len(self.factor_errs)])
                self.factor_errs.append(
                    self.workloads.factor_err(self.sudler, table, K, rng, size))
        except Exception:
            return [traceback.format_exc()]
        return []

    def measure(self, ops):
        """Cycle through ops until --seconds of operation time is spent.

        Every op runs at least once; after that the loop stops before an op
        whose previous duration would overrun the deadline.  Checks and
        accuracy probes do not count against the deadline.  An untraced run
        times the workload's reference kernel between consecutive ops and
        stores with each occurrence ``ref``, the median of the REF_WINDOW
        kernel times on each side of it, and ``dt_ref`` = dt / ref.  In a
        traced run each occurrence executes the op twice,
        traced and untraced, in an order that alternates, so that the tracing
        overhead is measured on the same work.
        """
        self.samples = {op.name: [] for op in ops}
        spent, i = 0.0, 0
        if not self.args.trace:
            self.refs.append(self.time_reference())
        while True:
            op = ops[i % len(ops)]
            previous = self.samples[op.name]
            if previous and spent + previous[-1]["cost"] > self.args.seconds:
                break
            occ = {"op_id": i, "problems": [], "info": {}}
            modes = (True, False) if (i + i // len(ops)) % 2 == 0 else (False, True)
            for traced in (modes if self.args.trace else (False,)):
                dt, problems, info = self.execute(op, i, traced)
                occ["dt_traced" if traced else "dt"] = dt
                occ["problems"] += problems
                occ["info"] = info
            occ["cost"] = occ["dt"] + occ.get("dt_traced", 0.0)
            if self.refs:
                self.refs.append(self.time_reference())
            previous.append(occ)
            spent += occ["cost"]
            i += 1
        if not self.refs:
            return
        for occs in self.samples.values():
            for occ in occs:
                # refs[j] and refs[j + 1] were taken just before and after op j.
                j = occ["op_id"]
                occ["ref"] = statistics.median(
                    self.refs[max(0, j + 1 - REF_WINDOW):j + 1 + REF_WINDOW])
                occ["dt_ref"] = occ["dt"] / occ["ref"]

    def time_reference(self) -> float:
        t0 = time.perf_counter()
        self.reference()
        return time.perf_counter() - t0

    def op_medians(self, key):
        return {name: statistics.median([o[key] for o in occs])
                for name, occs in self.samples.items()}

    def info(self, name):
        return self.samples[name][-1]["info"]

    def rates(self, ops, times):
        """Work per unit of `times` (seconds or reference units) of each throughput group."""
        work, secs = {}, {}
        for op in ops:
            if op.group is not None and "work" in self.info(op.name):
                work[op.group] = work.get(op.group, 0) + self.info(op.name)["work"]
                secs[op.group] = secs.get(op.group, 0.0) + times[op.name]
        return {g: work[g] / secs[g] for g in work}  # a group whose ops all failed is absent


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sudler" / "__init__.py").is_file():
        print(f"error: no sudler sources at {SRC}", file=sys.stderr)
        return 2
    # One client on a 2-CPU box: keep BLAS from starting its own thread pool.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path[:0] = [str(SRC), str(HERE)]
    import sudler
    import sudler.cli

    if not Path(sudler.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported sudler from {sudler.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    machine = fingerprint()
    median = statistics.median

    setups, setup_refs, import_samples = [], [], []
    if args.trace:
        import_samples = [import_seconds() for _ in range(IMPORT_SAMPLES)]
    else:
        n = 1 if args.smoke else SETUP_SAMPLES
        setups, setup_refs = setup_samples(wl.name, args.smoke, n)

    runner = Runner(sudler, workloads, tracing, args, wl.reference)
    if args.trace:
        state = runner.traced(-1, "setup", lambda: wl.setup(sudler, args.smoke))
    else:
        state = wl.setup(sudler, args.smoke)
    ops = wl.ops(sudler, state, args.seed, args.smoke)
    runner.measure(ops)

    report = {}  # every printed figure, gated or not, for the human-readable lines
    times = runner.op_medians("dt")
    rates = runner.rates(ops, times)
    for group, name in wl.group_names.items():
        report[name] = (rates.get(group), "1/s")
    infos = [runner.info(op.name) for op in ops]
    if any("reports_failed" in info for info in infos):
        report["verify_reports_failed"] = (sum(i.get("reports_failed", 0) for i in infos),
                                           "count")

    if not args.trace:
        problems = runner.probe(lambda: wl.probe_tables(sudler, state, args.smoke))
        runner.attempted += 1
        runner.failed += bool(problems)
        for problem in problems:
            print("probe FAIL " + problem, file=sys.stderr)
        ref_times = runner.op_medians("dt_ref")
        metrics = {
            # The set-ups' CPU time over that of the reference imports between them.
            "setup_s": (REFERENCE_IMPORT_S * median(s[1] for s in setups)
                        / median(r[1] for r in setup_refs)),
            "wall_ref": sum(ref_times.values()),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "work_per_ref": runner.rates(ops, ref_times).get("main", 0.0),
            "factor_err": max(runner.factor_errs, default=0.0),
        }
        units = dict(END_TO_END)
        report.update({k: (v, units[k]) for k, v in metrics.items()})
        report["wall_s"] = (sum(times.values()), "s")
        report["reference_s"] = (median(runner.refs), "s")
        report["setup_wall_s"] = (median(s[0] for s in setups), "s")
        report["setup_cpu_s"] = (median(s[1] for s in setups), "s")
        report["setup_reference_cpu_s"] = (median(r[1] for r in setup_refs), "s")
        spans = None
    else:
        spans = runner.tracer.spans
        by_op = {}
        for span in spans:
            by_op.setdefault(span[3], []).append(span)
        stats = {op_id: tracing.operation_stats(group) for op_id, group in by_op.items()}
        layer = dict(stats.get(-1, {}))
        per_op = {name: [stats.get(o["op_id"], {}) for o in occs]
                  for name, occs in runner.samples.items()}
        for occ_stats in per_op.values():
            for key in set().union(*occ_stats):
                layer[key] = layer.get(key, 0.0) + median([s.get(key, 0.0) for s in occ_stats])
        for op in ops:
            if op.twin is not None:
                p1 = median([s.get("products.scan.s", 0.0) for s in per_op[op.twin]])
                p2 = median([s.get("products.scan.s", 0.0) for s in per_op[op.name]])
                layer["products.scan.p2_speedup"] = p1 / p2
                layer["products.scan.p2_terms_per_s"] = runner.info(op.name)["work"] / p2
        for key in ("reports", "reports_failed"):
            layer[f"cli.verify.{key}"] = sum(runner.info(n).get(key, 0) for n in per_op)
        layer["import.sudler.s"] = median([s[0] for s in import_samples])
        layer["import.scipy.s"] = median([s[1] for s in import_samples])
        traced_times = runner.op_medians("dt_traced")
        layer["trace.overhead"] = sum(traced_times.values()) / sum(times.values())
        metrics = {name: float(layer.get(name, 0.0)) for name, _ in PER_LAYER}
        report["trace.overhead"] = (metrics["trace.overhead"], "ratio")
    report["ops_failed"] = (runner.failed / runner.attempted, "share")

    units = dict(END_TO_END if not args.trace else PER_LAYER)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "machine": machine,
        "setup_samples": setups, "setup_reference_samples": setup_refs,
        "import_samples": import_samples,
        "factor_errs": runner.factor_errs, "reference_samples": runner.refs,
        "report": {k: {"value": v, "unit": u} for k, (v, u) in report.items()},
        "ops": runner.samples,
        "result": result,
    }
    if spans is not None:
        record["unresolved"] = sorted(runner.tracer.unresolved)
        record["span_fields"] = ["id", "name", "parent", "op", "start", "end", "counts"]
        record["spans"] = spans
    OUT.mkdir(exist_ok=True)
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    (OUT / f"{tag}.json").write_text(json.dumps(record))

    print(f"sudler benchmark: workload={wl.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} smoke={args.smoke}")
    print("machine: " + json.dumps(machine))
    for name, occs in runner.samples.items():
        dts = [o["dt"] for o in occs]
        bad = sum(bool(o["problems"]) for o in occs)
        print(f"  op {name}: runs={len(dts)} median={median(dts):.4f} s failed={bad}")
        for problem in {p for o in occs for p in o["problems"]}:
            print("    FAIL " + problem.strip().replace("\n", "\n    "))
    for name, (value, unit) in report.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name} = {shown} {unit}")
    if spans is not None:
        # Layers whose functions are not found read 0; say so next to them.
        print("  untraced (not found in sudler): "
              + (", ".join(record["unresolved"]) or "none"))
    print(f"  record: {OUT.relative_to(ROOT) / (tag + '.json')}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
