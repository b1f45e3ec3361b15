#!/usr/bin/env python3
"""Check the committed benchmark records, BENCH_*.json at the repository root.

    python scripts/check_bench_records.py

Each record must give, for every workload and every end-to-end metric that
BENCHMARK.json declares, the quartiles of the parent's runs and of the
change's runs, with q1 <= median <= q3 on both sides.  Prints one line per
record and exits 1 if any record falls short.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def problems(record: dict, spec: dict) -> list[str]:
    found = []
    for side in SIDES:
        if not isinstance(record.get(side, {}).get("commit"), str):
            found.append(f"no {side} commit")
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
