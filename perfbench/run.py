#!/usr/bin/env python3
"""gbgroove benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload figures --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout: gbgroove is imported from ./src
and nothing is installed.  One single-threaded process drives a closed loop,
sending each op only after the previous one returned.  After one untimed
warm-up op, the workload's fixed op list runs pass after pass until
--seconds have gone by, and every op's output is checked.

--trace 0 measures the end-to-end metrics.  --trace 1 spends half the time
untraced and half with a span recorded around every layer call (spans.py),
and measures the per-layer metrics and the tracing overhead.  Every metric
is printed with its unit; the last line of stdout is one JSON object with
correct, attempted, failed and the metrics BENCHMARK.json names for that
mode.  The full record (environment, seed, per-op latencies, all metrics)
goes to perfbench/runs/, and a traced run's spans next to it.  README.md
says what each number means and which change should move it.

Times are scaled to a reference host speed (probe.py).  The host this was
built on changes speed by up to 2x within a minute, so every timed section
is bracketed by a fixed probe kernel, and its raw time is scaled by the
probe times on either side.  Raw times are printed and recorded next to the
scaled ones.
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
from pathlib import Path

import probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "runs"
WORKLOADS = ("figures", "crosscheck", "march")
NPROC = len(os.sched_getaffinity(0))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
FRESH_IMPORTS = 5      # fresh interpreters timed for setup_s
IMPORTTIME_RUNS = 3    # fresh interpreters parsed for the setup.* split
MIN_TAIL_BEYOND = 10   # op_tail_s is the highest rank with this many ops above
SETUP_PREFIXES = {"setup.scipy_integrate_s": "scipy.integrate",
                  "setup.scipy_sparse_s": "scipy.sparse",
                  "setup.numpy_s": "numpy"}
# a layer's time as a share of the traced pass time
SHARES = {"specfun.time_pct": "specfun.time_s",
          "outer.self_pct": "outer.self_s",
          "layers.bl.time_pct": "layers.bl.time_s",
          "layers.corner.time_pct": "layers.corner.time_s",
          "composite.self_pct": "composite.self_s",
          "composite.scalar.time_pct": "composite.scalar.time_s",
          "oracle.assemble.time_pct": "oracle.assemble.time_s",
          "oracle.factor.time_pct": "oracle.factor.time_s",
          "oracle.step.time_pct": "oracle.step.time_s",
          "oracle.solve.self_pct": "oracle.solve.self_s",
          "cli.self_pct": "cli.self_s"}
UNITS = (("_s", "s"), ("_pct", "%"), ("_mb", "MB"), ("ns_per_term", "ns"),
         ("us_per_point", "us"), ("us_per_step", "us"), ("cancel_digits", "digits"),
         ("_share", "ratio"), ("_dev", "ratio"), ("_gap", "ratio"), ("_drift", "ratio"),
         ("lu_reuse", "ratio"), ("per_row", "count/row"))


def unit_of(name: str) -> str:
    return next((unit for suffix, unit in UNITS if name.endswith(suffix)), "count")


# ---- set-up: fresh interpreters --------------------------------------------


def _interpreter(*flags: str, code: str = "import gbgroove.cli") -> list[str]:
    return [sys.executable, *flags, "-c", code]


def _child_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(SRC)}


# the child probes the host right before and after the import, on its own
# CPU; the first probe only warms the probe code up
_PROBED_IMPORT = (f"import sys; sys.path.insert(0, {str(HERE)!r}); import probe; "
                  "w = probe.probe(); p0 = probe.probe(); import gbgroove.cli; "
                  "print(w, p0, probe.probe())")


def setup_seconds(n: int) -> list[tuple[float, float]]:
    """(raw, scaled) wall seconds from starting a fresh interpreter to
    `import gbgroove.cli` done (and the interpreter gone), n times, after one
    untimed start that compiles the bytecode.  The child's probe runs are
    taken out of the raw time."""
    subprocess.run(_interpreter(), env=_child_env(), cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL)
    runs = []
    for _ in range(n):
        t0 = time.perf_counter()
        out = subprocess.run(_interpreter(code=_PROBED_IMPORT), env=_child_env(),
                             cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True)
        wall = time.perf_counter() - t0
        warm, before, after = map(float, out.stdout.split())
        raw = wall - warm - before - after
        runs.append((raw, probe.scale(raw, before, after)))
    return runs


def parse_importtime(text: str) -> dict:
    """setup.* seconds from the stderr of one `python -X importtime`.

    A prefix metric is the cumulative time of the outermost modules under
    that prefix, wherever they were first imported.  They nest (scipy.sparse
    loads inside scipy.integrate today), so they do not add up.
    setup.gbgroove_self_s is the self time of gbgroove's own modules.
    """
    entries = []
    for line in text.splitlines():
        parts = line.removeprefix("import time:").split("|")
        if len(parts) != 3 or not parts[0].strip().isdigit():
            continue
        raw = parts[2]
        depth = (len(raw) - len(raw.lstrip()) - 1) // 2
        entries.append((depth, raw.strip(), int(parts[0]), int(parts[1])))

    def under(name, prefix):
        return name == prefix or name.startswith(prefix + ".")

    out = {}
    for metric, prefix in SETUP_PREFIXES.items():
        total, ancestors = 0, []
        # children print before their parent: reversed, ancestors come first
        for depth, name, _, cumulative in reversed(entries):
            while ancestors and ancestors[-1][0] >= depth:
                ancestors.pop()
            if under(name, prefix) and not any(under(a, prefix) for _, a in ancestors):
                total += cumulative
            ancestors.append((depth, name))
        out[metric] = total / 1e6
    out["setup.gbgroove_self_s"] = sum(s for _, name, s, _ in entries
                                       if under(name, "gbgroove")) / 1e6
    return out


def setup_split(n: int) -> dict:
    runs = [parse_importtime(subprocess.run(
        _interpreter("-X", "importtime"), env=_child_env(), cwd=ROOT, check=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True).stderr)
        for _ in range(n)]
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


# ---- the closed loop --------------------------------------------------------


class Runner:
    """Drives one op list, timing each op and checking its output."""

    def __init__(self, ops, clock: probe.ScaledClock):
        self.ops = ops
        self.clock = clock
        self.attempted = 0
        self.failures: list[str] = []
        self.latencies: list[tuple[float, float]] = []   # (raw, scaled) per op
        self.figures: dict[str, float] = {}     # largest of each accuracy figure

    def run_op(self, op, rec=None) -> tuple[float, float]:
        if rec is not None:
            rec.enabled = True
            index = rec.begin(f"op:{op.kind}")
        t0 = time.perf_counter()
        try:
            result, error = op.call(), None
        except Exception as exc:   # a raising op is a failed op, not a crash
            result, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if rec is not None:
            rec.end(index)
            rec.enabled = False
        elapsed = self.clock.scaled(elapsed)
        self.attempted += 1
        problem, rows = error, 0
        if error is None:
            outcome = op.check(result)
            problem, rows = outcome.problem, outcome.rows
            for k, v in outcome.figures.items():
                self.figures[k] = max(self.figures.get(k, v), v)
        if problem is not None:
            self.failures.append(f"{op.label}: {problem}")
        if rec is not None:
            rec.spans[index][4] = rows
        return elapsed

    def passes(self, seconds: float, min_ops: int = 0, rec=None, after_pass=None):
        """Run the op list until `seconds` have passed and at least `min_ops`
        ops were timed.  Returns each pass's summed (raw, scaled) op time."""
        walls = []
        start = time.perf_counter()
        while (not walls or time.perf_counter() - start < seconds
               or len(walls) * len(self.ops) < min_ops):
            lat = [self.run_op(op, rec) for op in self.ops]
            if rec is None:
                self.latencies += lat
            walls.append(tuple(map(sum, zip(*lat))))
            if after_pass is not None:
                after_pass()
        return walls


# ---- metrics ----------------------------------------------------------------


def _median(pairs, i):
    return statistics.median(p[i] for p in pairs)


def end_to_end(runner: Runner, walls, setup_runs) -> tuple[dict, dict]:
    lat = sorted(runner.latencies, key=lambda p: p[1])
    rank = len(lat) - 1 - MIN_TAIL_BEYOND
    metrics = {
        "setup_s": _median(setup_runs, 1),
        "wall_s": _median(walls, 1),
        "op_p50_s": _median(lat, 1),
        "op_tail_s": lat[rank][1],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {"setup_s": f"median of {len(setup_runs)} fresh interpreters; "
                        f"raw {_median(setup_runs, 0):.4f} s",
             "wall_s": f"median of {len(walls)} passes of {len(runner.ops)} ops; "
                       f"raw {_median(walls, 0):.4f} s",
             "op_p50_s": f"median of {len(lat)} ops; raw {_median(lat, 0):.4f} s",
             "op_tail_s": f"p{100.0 * (rank + 1) / len(lat):.1f} of {len(lat)} ops, "
                          f"{MIN_TAIL_BEYOND} above it; raw {lat[rank][0]:.4f} s",
             "peak_rss_mb": "ru_maxrss of this process"}
    return metrics, notes


def per_layer(untraced, traced, layer_runs, setup) -> dict:
    """Medians over the traced passes, layer shares of the traced pass time,
    the set-up split and the tracing overhead (scaled pass times)."""
    # median_low keeps counts whole: it is always one pass's own value
    metrics = {k: statistics.median_low(r[k] for r in layer_runs) for k in layer_runs[0]}
    raw_wall = _median(traced, 0)
    for share, key in SHARES.items():
        metrics[share] = 100.0 * metrics[key] / raw_wall
    metrics.update(setup)
    metrics["trace.wall_s"] = _median(traced, 1)
    metrics["trace.overhead_s"] = _median(traced, 1) - _median(untraced, 1)
    return metrics


def write_spans(path: Path, pass_spans) -> None:
    t0 = pass_spans[0][1]
    with path.open("w") as f:
        f.write("index,name,start_s,end_s,parent\n")
        for i, (name, start, end, parent, _) in enumerate(pass_spans):
            f.write(f"{i},{name},{start - t0:.9f},{end - t0:.9f},{parent}\n")


def environment(args, clock) -> dict:
    import numpy
    import scipy
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": NPROC, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "clients": 1, "loop": "closed",
        "speed_probe": "StepProbe" if isinstance(clock.kernel, probe.StepProbe) else "probe",
        "probe_ref_s": clock.ref,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # cap numpy's and SciPy's BLAS pools before anything loads them
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(NPROC)
    if not (SRC / "gbgroove" / "__init__.py").is_file():
        print(f"perfbench: no gbgroove sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))

    if args.trace:
        setup = setup_split(IMPORTTIME_RUNS)
    else:
        setup_runs = setup_seconds(FRESH_IMPORTS)

    import spans
    import workloads
    spans.check_self_time()
    workloads.check_detects_perturbation(ROOT)
    ops = workloads.build(args.workload, args.seed, ROOT)
    if args.workload == "march":
        clock = probe.ScaledClock(probe.StepProbe(), probe.STEP_PROBE_REF_S)
    else:
        clock = probe.ScaledClock()
    runner = Runner(ops, clock)
    runner.run_op(ops[0])                        # warm-up: checked, not timed

    if not args.trace:
        walls = runner.passes(args.seconds, min_ops=MIN_TAIL_BEYOND + 1)
        metrics, notes = end_to_end(runner, walls, setup_runs)
        declared = spec["end_to_end"]
    else:
        untraced = runner.passes(args.seconds / 2)
        rec = spans.Recorder()
        layer_runs, last = [], []

        def close_pass():
            nonlocal last
            layer_runs.append(spans.layer_metrics(rec.spans))
            last = rec.spans
            rec.clear()

        undo = spans.install(rec)
        try:
            traced = runner.passes(args.seconds / 2, rec=rec, after_pass=close_pass)
        finally:
            spans.uninstall(undo)
        metrics = per_layer(untraced, traced, layer_runs, setup)
        counts = [{k: v for k, v in r.items() if unit_of(k) in ("count", "count/row",
                                                              "ratio", "digits")}
                  for r in layer_runs]
        notes = {"trace.wall_s": f"median of {len(traced)} traced passes, scaled",
                 "trace.overhead_s": f"minus the median of {len(untraced)} untraced",
                 "counts_repeat": all(c == counts[0] for c in counts)}
        RUNS.mkdir(exist_ok=True)
        write_spans(RUNS / f"{args.workload}-seed{args.seed}-spans.csv", last)
        declared = spec["per_layer"]

    report = {"fail_share": len(runner.failures) / runner.attempted, **runner.figures}
    env = environment(args, clock)
    print(f"perfbench {json.dumps(env)}")
    for k, v in {**metrics, **report}.items():
        print(f"  {k:28s} {v:<22.10g} {unit_of(k):9s} {notes.get(k, '')}".rstrip())
    if "counts_repeat" in notes:
        print(f"  per-layer counts repeat in every traced pass: {notes['counts_repeat']}")
    for failure in runner.failures[:10]:
        print(f"  FAILED {failure}")

    RUNS.mkdir(exist_ok=True)
    (RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"environment": env, "metrics": {**metrics, **report},
                    "units": {k: unit_of(k) for k in {**metrics, **report}},
                    "notes": notes, "attempted": runner.attempted,
                    "failures": runner.failures, "ops": [op.label for op in ops],
                    "op_latencies_raw_scaled_s": runner.latencies,
                    "pass_walls_raw_scaled_s": walls if not args.trace else traced,
                    "setup_runs_raw_scaled_s": setup_runs if not args.trace else []},
                   indent=1) + "\n")
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
