#!/usr/bin/env python3
"""Check the committed benchmark records, BENCH_*.json at the repository root.

    python scripts/check_bench_records.py

Each record must give, for every workload and every end-to-end metric that
BENCHMARK.json declares, the quartiles of the parent's runs and of the
change's runs, with q1 <= median <= q3 on both sides, and an `accuracy`
block whose non-empty `what` string says which accuracy figures it holds.
A record's `claim` must name a workload and an end-to-end metric of
BENCHMARK.json, and its median_change_pct, change_lower_in_pairs and
gap_over_parent_iqr must be what that metric's per-seed `values` give
(pairs are the two sides' runs at the same seed, in order).  Prints one
line per record and exits 1 if any record falls short.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def problems(record: dict, spec: dict) -> list[str]:
    found = []
    for side in SIDES:
        if not isinstance(record.get(side, {}).get("commit"), str):
            found.append(f"no {side} commit")
    accuracy = record.get("accuracy")
    what = accuracy.get("what") if isinstance(accuracy, dict) else None
    if not (isinstance(what, str) and what.strip()):
        found.append("no accuracy block with a non-empty `what`")
    workloads = record.get("workloads", {})
    for w in spec["workloads"]:
        for m in spec["end_to_end"]:
            metric = workloads.get(w["name"], {}).get(m["name"])
            for side in SIDES:
                q = (metric or {}).get(side)
                where = f"{w['name']} {m['name']} {side}"
                if not isinstance(q, dict) or not all(
                        isinstance(q.get(k), (int, float)) for k in ("q1", "median", "q3")):
                    found.append(f"{where}: no q1, median and q3")
                elif not q["q1"] <= q["median"] <= q["q3"]:
                    found.append(f"{where}: q1 {q['q1']}, median {q['median']}, q3 {q['q3']} "
                                 "out of order")
    if "claim" in record:
        found += claim_problems(record["claim"], workloads, spec)
    return found


def claim_figures(parent: list, change: list) -> dict:
    """The claim's figures from the two sides' per-seed values."""
    pm, cm = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    lower = sum(c < p for p, c in zip(parent, change))
    return {"median_change_pct": 100.0 * (cm - pm) / pm,
            "change_lower_in_pairs": f"{lower}/{len(parent)}",
            "gap_over_parent_iqr": abs(pm - cm) / (q3 - q1) if q3 > q1 else math.inf}


def claim_problems(claim: dict, workloads: dict, spec: dict) -> list[str]:
    workload, metric = claim.get("workload"), claim.get("metric")
    if workload not in [w["name"] for w in spec["workloads"]]:
        return [f"claim: workload {workload!r} is not in BENCHMARK.json"]
    if metric not in [m["name"] for m in spec["end_to_end"]]:
        return [f"claim: metric {metric!r} is not an end-to-end metric of BENCHMARK.json"]
    sides = [(workloads.get(workload, {}).get(metric) or {}).get(side, {}).get("values")
             for side in SIDES]
    paired = all(isinstance(v, list) and len(v) >= 2
                 and all(isinstance(x, (int, float)) for x in v) for v in sides)
    if not paired or len(sides[0]) != len(sides[1]):
        return [f"claim: {workload} {metric} has no per-seed values, paired on both sides"]
    found = []
    for key, want in claim_figures(*sides).items():
        got = claim.get(key)
        same = (got == want if isinstance(want, str) else
                isinstance(got, (int, float)) and math.isclose(got, want, rel_tol=1e-9))
        if not same:
            found.append(f"claim: {key} is {got!r}, the values give {want!r}")
    return found


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failed = False
    for path in sorted(ROOT.glob("BENCH_*.json")):
        found = problems(json.loads(path.read_text()), spec)
        failed |= bool(found)
        print(f"{path.name}: " + ("ok" if not found else "; ".join(found)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
