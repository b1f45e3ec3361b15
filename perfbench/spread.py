#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --seeds 10 [--workloads figures march] [--out FILE]

Runs perfbench/run.py once per seed and workload, one after another, for the
run_seconds BENCHMARK.json gives.  For every end-to-end metric it prints the
median and the quartile spread, (Q3 - Q1) / median with Q1 and Q3 from
statistics.quantiles(values, n=4), next to a third of the metric's bound.
--out writes the medians, quartiles and spreads as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", nargs="+", default=names, choices=names)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()

    summary = {}
    for workload in args.workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"], cwd=ROOT, check=True, capture_output=True, text=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(proc.stdout, file=sys.stderr)
                return 1
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        summary[workload] = {}
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / med
            summary[workload][m["name"]] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread,
                "bound": m["bound"], "unit": m["unit"], "values": v}
            flag = "" if spread < m["bound"] / 3 else "  <-- above bound/3"
            print(f"{workload:10s} {m['name']:12s} median {med:<12.6g} {m['unit']:3s} "
                  f"spread {spread:.4f}  bound/3 {m['bound'] / 3:.4f}{flag}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
