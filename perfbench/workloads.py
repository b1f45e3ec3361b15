"""The three workloads: op lists made from a seed, and their output checks.

An op is one call into gbgroove, `cli.main(argv)` or `oracle.solve(config)`.
Its `call` is the timed part; its `check` runs untimed afterwards and says
whether the output is right, how many rows it emitted and the accuracy
figure it carries.  The package only ever sees the generated arguments.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from gbgroove import cli, composite, oracle

# figures: the five canned presets, checked against the committed out/*.csv
PRESETS = ("figure3", "figure4", "figure5", "figure6", "cornerfig")
SAMPLES = "400"
# largest accepted deviation from a golden column, relative to that column's
# largest magnitude: above what summing in another order can change (eps
# times 10^8 where the profile cancels 8 digits near u = 12, about 1e-8),
# below any change to the mathematics (1e-4 and up)
GOLDEN_TOL = 1e-6

# crosscheck: `--mode compare` at the alumina parameters, Bt log-uniform, so
# alpha_hat = alpha / sqrt(Bt) runs from 0.56 down to 0.069
ALUMINA = ("--m", "0.209", "--alpha", "9.7e-16", "--B", "1")
BT_RANGE = (3e-30, 2e-28)
CROSSCHECK_OPS = 6
COMPARE_COLUMNS = 5
# the two routes must agree to this share of the groove depth; the known
# O(alpha_hat^{3/2}) wall-mass defect of the expansion reaches 0.19 at 0.56
XCHECK_LIMIT = 0.3

# march: the solver alone at nx = 1025 and a plateau step of 1/4096, finer
# than the CLI's 513 nodes and 1/512
M_SLOPE = 0.209
ALPHA_HAT_RANGE = (0.05, 0.56)
MARCH_OPS = 4
MARCH_NX = 1025
MARCH_DT = 1.0 / 4096
# balance-form rows telescope mass exactly; what is left is roundoff that the
# 1/dx^5 wall rows amplify: 1.6e-6 .. 3.0e-4 of the depth over a 35-point
# scan of the alpha_hat range
MASS_DRIFT_LIMIT = 1e-2
# solver root depth against the composite expansion at x = 0
ROOT_GAP_LIMIT = 0.3

WORKLOADS = ("figures", "crosscheck", "march")


@dataclass
class Outcome:
    problem: str | None = None            # None when the output is right
    rows: int = 0
    figures: dict = field(default_factory=dict)   # accuracy figure(s)


@dataclass
class Op:
    kind: str                             # "cli" or "solve"
    label: str
    call: Callable[[], object]
    check: Callable[[object], Outcome]


# ---- CSV output -------------------------------------------------------------


def parse_table(text: str):
    """(columns, rows as a 2-D array, notes) of one CLI CSV document."""
    columns, notes, rows = None, [], []
    for line in text.splitlines():
        if line.startswith("# columns: "):
            columns = line[len("# columns: "):].split(",")
        elif line.startswith("#"):
            notes.append(line[1:].strip())
        elif line:
            rows.append([float(v) for v in line.split(",")])
    if columns is None:
        raise ValueError("no '# columns:' line in the output")
    data = np.array(rows, dtype=float).reshape(len(rows), len(columns))
    return columns, data, notes


def golden_deviation(text: str, golden) -> float:
    """Largest |emitted - golden| over each golden column's largest magnitude."""
    columns, data, _ = parse_table(text)
    gcols, gdata = golden
    if data.shape[0] != gdata.shape[0]:
        raise ValueError(f"{data.shape[0]} rows, golden has {gdata.shape[0]}")
    dev = 0.0
    for j, name in enumerate(gcols):
        if name not in columns:
            raise ValueError(f"column {name!r} missing")
        diff = np.max(np.abs(data[:, columns.index(name)] - gdata[:, j]))
        scale = np.max(np.abs(gdata[:, j]))
        dev = max(dev, float(diff / scale if scale > 0 else diff))
    return dev


def _run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(list(argv))
    return rc, out.getvalue()


def _cli_text(result) -> str:
    rc, text = result
    if rc != 0:
        raise ValueError(f"exit code {rc}")
    return text


def check_figure(result, golden) -> Outcome:
    try:
        text = _cli_text(result)
        columns, data, _ = parse_table(text)
        if not np.all(np.isfinite(data)):
            return Outcome("non-finite number in the output", len(data))
        dev = golden_deviation(text, golden)
    except ValueError as exc:
        return Outcome(str(exc))
    problem = None if dev <= GOLDEN_TOL else f"golden_dev {dev:.3e} > {GOLDEN_TOL:g}"
    return Outcome(problem, len(data), {"golden_dev": dev})


_GAP = re.compile(r"sup\|composite-oracle\|/depth = (\S+)")


def check_compare(result) -> Outcome:
    try:
        text = _cli_text(result)
        columns, data, notes = parse_table(text)
    except ValueError as exc:
        return Outcome(str(exc))
    gaps = [float(m.group(1)) for m in map(_GAP.search, notes) if m]
    if len(columns) != COMPARE_COLUMNS or len(data) != int(SAMPLES) or len(gaps) != 1:
        return Outcome(f"unexpected shape: {len(columns)} columns, {len(data)} rows, "
                       f"{len(gaps)} gap notes", len(data))
    gap = gaps[0]
    if not (np.all(np.isfinite(data)) and math.isfinite(gap)):
        return Outcome("non-finite number in the output", len(data))
    problem = None if gap <= XCHECK_LIMIT else f"xcheck_gap {gap:.3e} > {XCHECK_LIMIT}"
    return Outcome(problem, len(data), {"xcheck_gap": gap})


def check_march(profiles, alpha_hat: float) -> Outcome:
    final = profiles[-1]
    h = final.heights
    if final.time != 1.0 or not np.all(np.isfinite(h)) or h[0] == 0.0:
        return Outcome(f"bad final profile (t = {final.time}, depth = {h[0]})")
    drift = abs(oracle.mass(final)) / abs(h[0])
    ref = composite.composite_profile_nd(0.0, 1.0, M_SLOPE, alpha_hat,
                                         composite.ExpansionSpec())
    root_gap = abs(h[0] - ref) / abs(ref)
    problem = None
    if not drift <= MASS_DRIFT_LIMIT:
        problem = f"mass_drift {drift:.3e} > {MASS_DRIFT_LIMIT:g}"
    elif not root_gap <= ROOT_GAP_LIMIT:
        problem = f"root depth off the expansion by {root_gap:.3f} > {ROOT_GAP_LIMIT}"
    return Outcome(problem, 0, {"mass_drift": drift, "root_gap": root_gap})


# ---- op lists ---------------------------------------------------------------


def load_golden(root: Path) -> dict:
    golden = {}
    for preset in PRESETS:
        columns, data, _ = parse_table((root / "out" / f"{preset}.csv").read_text())
        golden[preset] = (columns, data)
    return golden


def build(workload: str, seed: int, root: Path) -> list[Op]:
    """The workload's fixed op list for this seed."""
    rng = random.Random(seed)
    if workload == "figures":
        golden = load_golden(root)
        order = list(PRESETS)
        rng.shuffle(order)
        return [Op("cli", p,
                   lambda p=p: _run_cli(["--preset", p, "--samples", SAMPLES]),
                   lambda r, p=p: check_figure(r, golden[p]))
                for p in order]
    if workload == "crosscheck":
        lo, hi = map(math.log, BT_RANGE)
        ops = []
        for _ in range(CROSSCHECK_OPS):
            bt = repr(math.exp(rng.uniform(lo, hi)))
            argv = ["--mode", "compare", *ALUMINA, "--Bt", bt]
            ops.append(Op("cli", f"Bt={bt}", lambda a=argv: _run_cli(a), check_compare))
        return ops
    if workload == "march":
        ops = []
        for _ in range(MARCH_OPS):
            ah = rng.uniform(*ALPHA_HAT_RANGE)
            cfg = oracle.SolverConfig(grid=oracle.Grid(L=8.0, nx=MARCH_NX), dt=MARCH_DT,
                                      t_final=1.0, alpha_hat=ah, m=M_SLOPE)
            # look solve up at call time, so the traced run sees its wrapper
            ops.append(Op("solve", f"alpha_hat={ah!r}", lambda c=cfg: oracle.solve(c),
                          lambda r, ah=ah: check_march(r, ah)))
        return ops
    raise ValueError(f"unknown workload {workload!r}; pick one of {WORKLOADS}")


def check_detects_perturbation(root: Path) -> None:
    """Raise unless a golden CSV passes the figures check and a copy with
    one value nudged by one part in a thousand fails it."""
    golden = load_golden(root)
    text = (root / "out" / "figure4.csv").read_text()
    lines = text.splitlines(keepends=True)
    row = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 7
    values = lines[row].rstrip("\n").split(",")
    values[-1] = f"{float(values[-1]) * (1 + 1e-3):.16e}"
    lines[row] = ",".join(values) + "\n"
    clean = check_figure((0, text), golden["figure4"])
    nudged = check_figure((0, "".join(lines)), golden["figure4"])
    if clean.problem is not None or clean.figures["golden_dev"] != 0.0:
        raise AssertionError(f"golden figure4.csv fails its own check: {clean}")
    if nudged.problem is None:
        raise AssertionError("a perturbed figure4.csv passed the golden check")
