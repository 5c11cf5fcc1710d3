"""Record the scan outputs that the scan_q1e7 checks compare against.

    python3 perfbench/make_reference.py

Run it once at the commit whose outputs are the reference (the values in
reference.json were recorded at the seed commit 03b0b65); later commits are
checked against them, not re-recorded.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import sudler  # noqa: E402
import workloads  # noqa: E402


def main():
    scans = {}
    for spec, K in workloads.SCAN_INPUTS + workloads.SCAN_SMOKE:
        table = sudler.build_table(spec, K)
        res = sudler.scan(table, K, c_list=workloads.C_LIST, budget=workloads.SCAN_BUDGET)
        scans[workloads.scan_key(spec, K)] = workloads.scan_summary(res)
    workloads.REFERENCE.write_text(json.dumps({"scan": scans}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.REFERENCE}")


if __name__ == "__main__":
    main()
