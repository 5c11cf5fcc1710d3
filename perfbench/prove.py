"""Repeat the benchmark over several seeds and report each metric's spread.

    python3 perfbench/prove.py --runs 10
    python3 perfbench/prove.py --runs 10 --traced --trajectory

For each workload it runs perfbench/run.py once per seed (seeds 1, 2, ...,
runs), then prints each end-to-end metric's median, quartiles
and spread (the distance between the quartiles as a share of the median)
next to the metric's bound from BENCHMARK.json; setup_s and wall_ref also
show the median of the reference time they are divided by.  --traced adds one traced run
per workload.  --trajectory appends the summary, stamped with the machine
fingerprint, as a new point of perfbench/trajectory.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRAJECTORY = HERE / "trajectory.json"


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    record = json.loads(
        (HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return json.loads(proc.stdout.strip().splitlines()[-1]), record


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("nan"), "values": values}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--traced", action="store_true", help="add one traced run per workload")
    ap.add_argument("--trajectory", action="store_true",
                    help="append the summary to perfbench/trajectory.json")
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    seconds = spec["run_seconds"]
    point = {"run_seconds": seconds, "runs": args.runs, "workloads": {}}
    ok = True
    for workload in names:
        results, reports = [], []
        for seed in range(1, args.runs + 1):
            result, record = run_once(workload, seed, seconds, 0)
            results.append(result)
            reports.append(record["report"])
            point["machine"] = record["machine"]
            ok &= result["correct"]
        summary = {"correct": all(r["correct"] for r in results),
                   "attempted": sum(r["attempted"] for r in results),
                   "failed": sum(r["failed"] for r in results), "end_to_end": {}}
        print(f"{workload}: {args.runs} runs, correct={summary['correct']} "
              f"failed={summary['failed']}/{summary['attempted']}")
        summary["report"] = {}
        for name, entry in reports[0].items():
            values = [r[name]["value"] for r in reports]
            if name not in bounds and None not in values:
                summary["report"][name] = {"median": statistics.median(values),
                                           "unit": entry["unit"]}
        for name, bound in bounds.items():
            s = summarize([r["metrics"][name]["value"] for r in results])
            summary["end_to_end"][name] = s
            steady = s["spread"] < bound / 3
            # A metric divided by a reference time shows its denominator, so
            # that a comparison between commits shows whether that moved too.
            ref = {"setup_s": "setup_reference_cpu_s", "wall_ref": "reference_s"}.get(name)
            shown = (f" ({ref} median={summary['report'][ref]['median']:.6g} s)"
                     if ref in summary["report"] else "")
            print(f"  {name:12s} median={s['median']:.6g} {units[name]} q1={s['q1']:.6g} "
                  f"q3={s['q3']:.6g} spread={s['spread']:.4f} bound={bound} "
                  f"{'ok' if steady else 'WIDE'}{shown}")
        for name, v in summary["report"].items():
            print(f"  {name} median={v['median']:.6g} {v['unit']}")
        if args.traced:
            result, _ = run_once(workload, 1, seconds, 1)
            summary["per_layer"] = {k: v["value"] for k, v in result["metrics"].items()}
            print(f"  traced run: trace.overhead={summary['per_layer']['trace.overhead']:.4f}")
        point["workloads"][workload] = summary
    if args.trajectory:
        points = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
        point["git_commit"] = point["machine"]["git_commit"]
        points.append(point)
        TRAJECTORY.write_text(json.dumps(points, indent=1) + "\n")
        print(f"appended point {len(points)} to {TRAJECTORY.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
