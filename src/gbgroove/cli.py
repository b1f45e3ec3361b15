"""Command-line interface: parameter reduction, canned figure data, solver runs.

One JSON config document describes a run; every flag can also be given on
the command line, and the command line wins.  Outputs are deterministic:
identical configs give byte-identical files.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import numbers
import sys
from dataclasses import asdict, astuple, dataclass, field, replace
from pathlib import Path

import numpy as np

from .composite import (
    ExpansionSpec,
    composite_profile,
    composite_profile_nd,
    depth_difference,
    mullins_profile_dim,
)
from .layers import CornerSpec, corner_combination, corner_solutions_yc
from .material import (
    ModelParams,
    PhysicalParams,
    model_from_physical,
    mullins_coefficient,
    nondimensionalize,
)
from .oracle import ConfigError, DivergenceError, Grid, SolverConfig, mass, solve
from .outer import MAX_ORDER, U_CLAMP, QuadratureError
from .specfun import GammaPoleError, SeriesError

__all__ = ["RunConfig", "run", "main", "PRESETS"]

MODES = ("params", "profile", "depth-series", "corner", "oracle", "compare")
FORMATS = ("csv", "json")

# figure-style canned parameter sets (SI units)
_ALPHA_AL2O3 = 9.7e-16
PRESETS: dict[str, dict] = {
    "figure3": {"mode": "profile", "model": {"B": 1.0, "alpha": _ALPHA_AL2O3, "m": 0.209},
                "times": [3e-30]},
    "figure4": {"mode": "profile", "model": {"B": 1.0, "alpha": _ALPHA_AL2O3, "m": 0.209},
                "times": [1e-29]},
    "figure5": {"mode": "profile", "model": {"B": 1.0, "alpha": _ALPHA_AL2O3, "m": 0.209},
                "times": [2e-29]},
    # sweep window is a documented choice; the source figures do not pin it
    "figure6": {"mode": "depth-series", "model": {"B": 1.0, "alpha": _ALPHA_AL2O3, "m": 0.209},
                "alphas": [10.5e-16, 9.7e-16, 3e-16, 9.7e-17],
                "times": list(np.geomspace(1e-31, 1e-28, 25))},
    "cornerfig": {"mode": "corner", "model": {"B": 1.0, "alpha": _ALPHA_AL2O3, "m": 0.209},
                  "times": [1e-29], "corner_r": -1.0},
}


# solver domain [0, 8] in units of (B t)^(1/4): the shortest SolverConfig
# accepts for t_final = 1
_SOLVER_L = 8.0
# output rows of a whole run, over every Bt value and alpha: uncapped, a
# long `times` list dies in numpy's allocator outside the 0/2/3 exit codes
# (a profile run holds about 37 MB per 65536 rows); at the budget a profile
# run takes about 1 s and 100 MB
MAX_ROWS = 65536
# each solve is charged as this many rows: a default solve (513 nodes, 110
# steps, about 20 ms) takes about as long as 2000 profile rows
SOLVE_ROWS = 2048


class CliConfigError(ValueError):
    """Bad run configuration (exit code 2)."""


class NonFiniteOutputError(ArithmeticError):
    """An output value came out NaN or infinite (exit code 3)."""


def _require_numbers(name: str, values, integral: bool = False) -> None:
    """Every value must be a JSON number (an integer if `integral`) that fits
    a float; bools are not numbers."""
    kind = numbers.Integral if integral else numbers.Real
    for v in values:
        if isinstance(v, bool) or not isinstance(v, kind):
            what = "an integer" if integral else "a number"
            raise CliConfigError(f"{name} must be {what}, got {v!r}")
        try:
            float(v)
        except OverflowError:
            raise CliConfigError(f"{name} is too large for a float")


@dataclass
class RunConfig:
    """Fully resolved description of one CLI run."""

    mode: str
    physical: dict | None = None
    model: dict | None = None          # keys: B, alpha, m
    times: list[float] = field(default_factory=list)   # Bt values, m^4
    alphas: list[float] = field(default_factory=list)  # depth-series alpha sweep, m^2
    order: int = 2
    include_corner: bool = False
    corner_r: float = -1.0
    corner_gamma: float = 0.0
    samples: int = 400
    xmax: float | None = None          # window in units of (Bt)^(1/4)
    out: str | None = None
    fmt: str = "csv"
    solver: dict = field(default_factory=dict)

    def validate(self) -> None:
        if self.mode not in MODES:
            raise CliConfigError(f"unknown mode {self.mode!r}; pick one of {MODES}")
        if self.fmt not in FORMATS:
            raise CliConfigError(f"unknown format {self.fmt!r}; pick one of {FORMATS}")
        if (self.physical is None) == (self.model is None):
            raise CliConfigError("provide exactly one of 'physical' or 'model'")
        if not (isinstance(self.times, (list, tuple)) and isinstance(self.alphas, (list, tuple))):
            raise CliConfigError("times and alphas must be lists of numbers")
        _require_numbers("times", self.times)
        _require_numbers("alphas", self.alphas)
        _require_numbers("samples", [self.samples], integral=True)
        _require_numbers("order", [self.order], integral=True)
        _require_numbers("xmax", [] if self.xmax is None else [self.xmax])
        _require_numbers("corner_r and corner_gamma", [self.corner_r, self.corner_gamma])
        if not isinstance(self.solver, dict):
            raise CliConfigError(f"solver must be an object, got {self.solver!r}")
        if not isinstance(self.out, (str, type(None))):
            raise CliConfigError(f"out must be a path, got {self.out!r}")
        if self.mode in ("profile", "depth-series", "oracle", "compare") and not self.times:
            raise CliConfigError(f"mode {self.mode!r} needs at least one Bt value")
        if not 2 <= self.samples <= MAX_ROWS:
            raise CliConfigError(f"samples must lie in [2, {MAX_ROWS}], got {self.samples}")
        if self._rows() > MAX_ROWS:
            raise CliConfigError(f"the run emits {self._rows()} rows, each solve counted "
                                 f"as {SOLVE_ROWS}; the budget is {MAX_ROWS}")
        if not 0 <= self.order <= MAX_ORDER:
            raise CliConfigError(f"order must be in [0, {MAX_ORDER}], got {self.order}")
        if self.xmax is not None and self.mode not in ("profile", "compare"):
            raise CliConfigError(f"mode {self.mode!r} has no profile window for xmax")
        if self.xmax is not None and not 0 < self.xmax <= U_CLAMP:
            raise CliConfigError(f"xmax must lie in (0, {U_CLAMP:g}], the series clamp, "
                                 f"got {self.xmax}")
        if self.mode == "compare" and self.xmax is not None and self.xmax > _SOLVER_L:
            raise CliConfigError(f"compare needs xmax <= {_SOLVER_L:g}, the solver domain, "
                                 f"got {self.xmax}")
        if self.mode == "depth-series" and self.physical is not None:
            raise CliConfigError("depth-series sweeps model.alpha; give a 'model' block")
        for bt in self.times:
            if not bt > 0:
                raise CliConfigError(f"Bt values must be positive, got {bt}")
        if not (math.isfinite(self.corner_r) and math.isfinite(self.corner_gamma)):
            raise CliConfigError("corner_r and corner_gamma must be finite")
        if self.mode == "corner" or self.include_corner:
            try:
                CornerSpec(r=self.corner_r)
            except ValueError as exc:
                raise CliConfigError(f"bad corner_r: {exc}")

    def _rows(self) -> int:
        """Rows the run emits, each solve counted as SOLVE_ROWS rows."""
        per_bt = {"profile": self.samples,
                  "depth-series": max(len(self.alphas), 1),
                  "oracle": self.samples + SOLVE_ROWS,
                  "compare": self.samples + SOLVE_ROWS}
        if self.mode in per_bt:
            return per_bt[self.mode] * len(self.times)
        return self.samples if self.mode == "corner" else 0

    def resolved(self) -> dict:
        d = asdict(self)
        # the destination path is not part of the physics configuration and
        # must not break byte-identity between otherwise identical runs
        d.pop("out", None)
        return d

    # ---- physics ----------------------------------------------------------

    def reduced(self, bt: float) -> ModelParams:
        """ModelParams nondimensionalized at the evaluation time Bt."""
        block = "model" if self.model is not None else "physical"
        try:
            if self.model is not None:
                values = [self.model[k] for k in ("B", "alpha", "m")]
                _require_numbers("model entries", values)
                B, alpha, m = map(float, values)
                if not B > 0:
                    raise ValueError(f"B must be positive, got {B}")
                # L0 = (Bt)^(1/4) from Bt itself: B * (bt / B) can miss bt by
                # an ulp, and the solver magnifies that in alpha_hat
                params = replace(nondimensionalize(1.0, alpha, bt, m), B=B)
            else:
                phys = PhysicalParams(**self.physical)
                _require_numbers("physical entries", astuple(phys))
                params = model_from_physical(phys, bt / mullins_coefficient(phys))
        except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
            raise CliConfigError(f"bad {block} block: {exc}")
        if not all(map(math.isfinite, (params.alpha, params.m, params.L0, params.alpha_hat))):
            raise CliConfigError(f"{block} block gives non-finite parameters: {params}")
        return params


def _merge_cli(cfg: dict, args: argparse.Namespace) -> dict:
    """Command-line flags override config-file entries."""
    if args.mode is not None:
        cfg["mode"] = args.mode
    if not isinstance(cfg.get("model") or {}, dict):
        raise CliConfigError(f"model must be an object, got {cfg['model']!r}")
    model = dict(cfg.get("model") or {})
    for key, val in (("B", args.B), ("alpha", args.alpha), ("m", args.m)):
        if val is not None:
            model[key] = val
    if model:
        cfg["model"] = model
        cfg.setdefault("physical", None)
        if args.B is not None or args.alpha is not None or args.m is not None:
            cfg["physical"] = None
    if args.Bt:
        cfg["times"] = list(args.Bt)
    if args.order is not None:
        cfg["order"] = args.order
    if args.samples is not None:
        cfg["samples"] = args.samples
    if args.xmax is not None:
        cfg["xmax"] = args.xmax
    if args.include_corner:
        cfg["include_corner"] = True
    if args.out is not None:
        cfg["out"] = args.out
    if args.format is not None:
        cfg["fmt"] = args.format
    return cfg


# ---- output ----------------------------------------------------------------


def _fmt(v: float) -> str:
    return f"{v:.16e}"


def _write_table(cfg: RunConfig, columns: list[str], rows: list[list[float]],
                 notes: list[str], gaps: list[float] = ()) -> str:
    """Render (and write) the table; `gaps` are the sup gaps the notes report.

    A non-finite row value or gap is a numerical failure, not an output.
    """
    if not all(map(math.isfinite, itertools.chain(gaps, *rows))):
        raise NonFiniteOutputError("the run produced a non-finite output value")
    header_cfg = json.dumps(cfg.resolved(), sort_keys=True)
    if cfg.fmt == "csv":
        lines = ["# gbgroove output", f"# config: {header_cfg}"]
        lines += [f"# {n}" for n in notes]
        lines.append("# columns: " + ",".join(columns))
        for row in rows:
            lines.append(",".join(_fmt(v) for v in row))
        text = "\n".join(lines) + "\n"
    else:
        doc = {
            "config": json.loads(header_cfg),
            "notes": notes,
            "columns": columns,
            "rows": [[_fmt(v) for v in row] for row in rows],
        }
        text = json.dumps(doc, sort_keys=True, indent=1) + "\n"
    if cfg.out:
        Path(cfg.out).write_text(text)
    return text


# ---- modes -----------------------------------------------------------------


def _expansion_spec(cfg: RunConfig, params: ModelParams) -> ExpansionSpec:
    corner = None
    if cfg.include_corner:
        corner = CornerSpec(r=cfg.corner_r, gamma=cfg.corner_gamma,
                            alpha_hat=params.alpha_hat)
    return ExpansionSpec(N=cfg.order, corner=corner)


def _mode_params(cfg: RunConfig) -> str:
    bt = cfg.times[0] if cfg.times else 1e-29
    params = cfg.reduced(bt)
    lines = [
        f"B_m4_per_s = {_fmt(params.B)}",
        f"alpha_m2 = {_fmt(params.alpha)}",
        f"m = {_fmt(params.m)}",
        f"L0_m = {_fmt(params.L0)} (at Bt = {_fmt(bt)} m^4)",
        f"alpha_hat = {_fmt(params.alpha_hat)}",
    ]
    text = "\n".join(lines) + "\n"
    if cfg.out:
        Path(cfg.out).write_text(text)
    return text


def _profile_rows(cfg: RunConfig, with_oracle: bool):
    columns = ["Bt_m4", "x_m", "y_mullins_m", "y_composite_m"]
    if with_oracle:
        columns.append("y_oracle_m")
    rows: list[list[float]] = []
    notes: list[str] = []
    gaps: list[float] = []
    for bt in cfg.times:
        params = cfg.reduced(bt)
        spec = _expansion_spec(cfg, params)
        span = (cfg.xmax if cfg.xmax is not None else 8.0) * bt ** 0.25
        xs = np.linspace(0.0, span, cfg.samples)
        t = bt / params.B
        oracle_vals = None
        if with_oracle:
            prof, sup = _oracle_profile(cfg, params)
            xs_nd = xs / params.L0
            oracle_vals = params.L0 * np.interp(xs_nd, prof[0], prof[1])
            notes.append(f"Bt={_fmt(bt)}: sup|composite-oracle|/depth = {_fmt(sup)}")
            gaps.append(sup)
        cols = [np.full(len(xs), bt), xs, mullins_profile_dim(xs, t, params),
                composite_profile(xs, t, params, spec)]
        if with_oracle:
            cols.append(oracle_vals)
        rows += np.column_stack(cols).tolist()
    return columns, rows, notes, gaps


def _solver_config(cfg: RunConfig, params: ModelParams) -> SolverConfig:
    """Solver grid and plateau step: the `solver` block may set `nx` and `dt`.

    The default grid is the coarsest that resolves the wall layer
    (dx <= sqrt(alpha_hat)/4), and never coarser than 513 nodes.
    """
    s = dict(cfg.solver)
    nx = s.pop("nx", None)
    dt = s.pop("dt", 1.0 / 64)
    if s:
        raise CliConfigError(f"unknown solver options: {sorted(s)}")
    _require_numbers("solver.nx", [] if nx is None else [nx], integral=True)
    _require_numbers("solver.dt", [dt])
    ah = params.alpha_hat
    if nx is None:
        nx = max(513, math.ceil(_SOLVER_L / (math.sqrt(ah) / 4.0)) + 1) if ah > 0 else 513
    return SolverConfig(grid=Grid(L=_SOLVER_L, nx=nx), dt=float(dt), t_final=1.0,
                        alpha_hat=ah, m=params.m)


def _oracle_profile(cfg: RunConfig, params: ModelParams):
    """Solve the PDE at t_hat = 1 and report (x_nd, y_nd) plus the sup gap."""
    scfg = _solver_config(cfg, params)
    prof = solve(scfg)[-1]
    xs = scfg.grid.nodes
    spec = _expansion_spec(cfg, params)
    comp = composite_profile_nd(xs, 1.0, params.m, params.alpha_hat, spec)
    depth = abs(comp[0]) if comp[0] != 0 else 1.0
    sup = float(np.max(np.abs(comp - prof.heights)) / depth)
    return (xs, prof.heights), sup


def _mode_profile(cfg: RunConfig) -> str:
    return _write_table(cfg, *_profile_rows(cfg, with_oracle=False))


def _mode_compare(cfg: RunConfig) -> str:
    return _write_table(cfg, *_profile_rows(cfg, with_oracle=True))


def _mode_depth_series(cfg: RunConfig) -> str:
    alphas = cfg.alphas
    if not alphas:
        if "alpha" in cfg.model:
            alphas = [cfg.model["alpha"]]     # checked by `reduced` below
        else:
            raise CliConfigError("depth-series needs an 'alphas' list or a model alpha")
    columns = ["alpha_m2", "Bt_m4", "depth_mullins_m", "depth_composite_m",
               "relative_effect"]
    rows = []
    base = dict(cfg.model)
    for alpha in alphas:
        for bt in cfg.times:
            model = dict(base)
            model["alpha"] = alpha
            model.setdefault("B", 1.0)
            sub = RunConfig(mode=cfg.mode, model=model, times=[bt], order=cfg.order)
            params = sub.reduced(bt)
            t = bt / params.B
            ym = abs(mullins_profile_dim(0.0, t, params))
            dd = depth_difference(t, params)
            rows.append([params.alpha, bt, ym, ym - dd, dd / ym if ym > 0 else 0.0])
    return _write_table(cfg, columns, rows, [])


def _mode_corner(cfg: RunConfig) -> str:
    bt = cfg.times[0] if cfg.times else 1e-29
    params = cfg.reduced(bt)
    ah = params.alpha_hat
    if ah <= 0:
        raise CliConfigError("corner mode needs alpha > 0")
    gamma_amp = cfg.corner_gamma if cfg.corner_gamma != 0.0 else ah
    spec = CornerSpec(r=cfg.corner_r, gamma=gamma_amp, alpha_hat=ah)
    tau = 1.0
    ws = np.linspace(0.0, 20.0, cfg.samples)
    zeta = ws * tau ** (1.0 / 6.0)
    yc456 = corner_solutions_yc((4, 5, 6), zeta, tau, spec)
    combination = corner_combination(zeta, tau, spec, yc456=yc456)
    columns = ["w", "y_c4", "y_c5", "y_c6", "combination"]
    rows = np.column_stack([ws, *yc456, combination]).tolist()
    notes = [f"nondimensional corner-layer similarity solutions at tau=1, "
             f"r={cfg.corner_r}, amplitude gamma={_fmt(gamma_amp)}"]
    return _write_table(cfg, columns, rows, notes)


def _mode_oracle(cfg: RunConfig) -> str:
    columns = ["Bt_m4", "x_m", "y_oracle_m"]
    rows = []
    notes = []
    for bt in cfg.times:
        params = cfg.reduced(bt)
        scfg = _solver_config(cfg, params)
        profiles = solve(scfg)
        prof = profiles[-1]
        notes.append(f"Bt={_fmt(bt)}: mass={_fmt(mass(prof))} (nondimensional)")
        xs = np.linspace(0.0, scfg.grid.L, cfg.samples)
        ys = np.interp(xs, scfg.grid.nodes, prof.heights)
        rows += np.column_stack([np.full(len(xs), bt), xs * params.L0, ys * params.L0]).tolist()
    return _write_table(cfg, columns, rows, notes)


_MODE_TABLE = {
    "params": _mode_params,
    "profile": _mode_profile,
    "depth-series": _mode_depth_series,
    "corner": _mode_corner,
    "oracle": _mode_oracle,
    "compare": _mode_compare,
}


def run(cfg: RunConfig) -> str:
    """Dispatch one validated run; returns the emitted text."""
    cfg.validate()
    # an overflowing or NaN value fails the output check (exit 3): numpy
    # need not warn about it first
    with np.errstate(over="ignore", invalid="ignore"):
        return _MODE_TABLE[cfg.mode](cfg)


# ---- entry point -----------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gbgroove",
        description="Groove profiles under an elastic passivation layer: "
                    "series expansion, finite-difference solver, figure data.")
    parser.add_argument("--config", type=Path, help="JSON config document")
    parser.add_argument("--preset", choices=sorted(PRESETS),
                        help="canned figure-style configuration")
    parser.add_argument("--mode", choices=MODES)
    parser.add_argument("--m", type=float, help="slope parameter")
    parser.add_argument("--alpha", type=float, help="stiffness parameter, m^2")
    parser.add_argument("--B", type=float, help="kinetic coefficient, m^4/s")
    parser.add_argument("--Bt", type=float, action="append", default=None,
                        help="evaluation time as a Bt product, m^4 (repeatable)")
    parser.add_argument("--order", type=int, help="outer expansion order N")
    parser.add_argument("--samples", type=int, help="output sample count")
    parser.add_argument("--xmax", type=float,
                        help="window in units of (Bt)^(1/4), default 8, at most 12 "
                             "(8 in compare mode)")
    parser.add_argument("--include-corner", action="store_true")
    parser.add_argument("--out", type=str, help="output file path")
    parser.add_argument("--format", choices=FORMATS)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg_dict: dict = {}
        if args.preset:
            cfg_dict.update(json.loads(json.dumps(PRESETS[args.preset])))
        if args.config:
            try:
                doc = json.loads(args.config.read_text())
            except (OSError, json.JSONDecodeError) as exc:
                raise CliConfigError(f"cannot read config file: {exc}")
            if not isinstance(doc, dict):
                raise CliConfigError("config file must hold a JSON object")
            cfg_dict.update(doc)
        cfg_dict = _merge_cli(cfg_dict, args)
        if "fmt" not in cfg_dict and "format" in cfg_dict:
            cfg_dict["fmt"] = cfg_dict.pop("format")
        if "mode" not in cfg_dict:
            raise CliConfigError("no mode given (flag --mode, config, or preset)")
        allowed = {f.name for f in RunConfig.__dataclass_fields__.values()}
        unknown = set(cfg_dict) - allowed
        if unknown:
            raise CliConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg = RunConfig(**cfg_dict)
        text = run(cfg)
    except (CliConfigError, ConfigError) as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    except (SeriesError, QuadratureError, DivergenceError, GammaPoleError,
            NonFiniteOutputError, OverflowError) as exc:
        print("error: numerical failure", file=sys.stderr)
        print(f"  {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    if not cfg.out:
        sys.stdout.write(text)
    else:
        print(f"wrote {cfg.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
