"""Command-line interface: parameter reduction, canned figure data, the solver's column.

One JSON config document describes a run; every flag can also be given on
the command line, and the command line wins.  Outputs are deterministic:
identical configs give byte-identical files.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import copy
import functools
import json
import math
import numbers
import sys
from dataclasses import astuple, dataclass, field, fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .composite import (
    ExpansionSpec,
    depth_difference,
    mullins_and_composite,
)
from .layers import CornerSpec, corner_combination, corner_solutions_yc
from .material import (
    ModelParams,
    PhysicalParams,
    model_from_physical,
    mullins_coefficient,
    nondimensionalize,
)
from .oracle import HALFLINE_L, halfline_dx, halfline_profile
from .outer import MAX_ORDER, U_CLAMP, Z0
from .specfun import GammaPoleError, SeriesError, libm_pow

__all__ = ["RunConfig", "run", "main", "PRESETS"]

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
                "times": np.geomspace(1e-31, 1e-28, 25).tolist()},
    "cornerfig": {"mode": "corner", "model": {"B": 1.0, "alpha": _ALPHA_AL2O3, "m": 0.209},
                  "times": [1e-29], "corner_r": -1.0},
}


# the Bt value, m^4, of a mode that reads one when none is given
_DEFAULT_BT = 1e-29
# the row budget of a whole run, over every Bt value and alpha, and the cap
# on samples: uncapped, a long `times` list dies in numpy's allocator outside
# the 0/2/3 exit codes.  On a 2-vCPU x86-64 host (Python 3.11, numpy 2.4), a
# CSV profile or compare run of one Bt at the budget takes 0.3-0.45 s in
# process and peaks 65 MB above the import, most of it the series evaluation
MAX_ROWS = 65536
# the fixed cost of a Bt value in profile / compare / oracle, in rows: 0.6 /
# 1.0 / 0.5 ms against 2.9-4.6 / 4.4-5.7 / 1.4-1.7 us a row on that host.
# Each Bt value past the first is charged it, so one Bt at the budget stays
# admitted; the slowest runs, 255 Bt of 2 samples, take 0.16 / 0.26 / 0.13 s
BT_ROWS = 256


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
    corner_r: float = -1.0
    corner_gamma: float = 0.0
    samples: int = 400
    xmax: float | None = None          # window in units of (Bt)^(1/4)
    out: str | None = None
    fmt: str = "csv"

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
        if not isinstance(self.out, (str, type(None))):
            raise CliConfigError(f"out must be a path, got {self.out!r}")
        _, reads, most_bt, rows_per_bt, bt_rows = _MODE_TABLE[self.mode]
        if most_bt is None and not self.times:
            raise CliConfigError(f"mode {self.mode!r} needs at least one Bt value")
        if most_bt is not None and len(self.times) > most_bt:
            raise CliConfigError(f"mode {self.mode!r} reads at most {most_bt} Bt value, "
                                 f"got {len(self.times)}")
        if not 2 <= self.samples <= MAX_ROWS:
            raise CliConfigError(f"samples must lie in [2, {MAX_ROWS}], got {self.samples}")
        bts = len(_bt_values(self))
        rows = rows_per_bt(self) * bts + bt_rows * (bts - 1)
        if rows > MAX_ROWS:
            raise CliConfigError(f"the run is charged {rows} rows; the budget is {MAX_ROWS}")
        if not 0 <= self.order <= MAX_ORDER:
            raise CliConfigError(f"order must be in [0, {MAX_ORDER}], got {self.order}")
        if self.xmax is not None and not 0 < self.xmax <= U_CLAMP:
            raise CliConfigError(f"xmax must lie in (0, {U_CLAMP:g}], the series clamp, "
                                 f"got {self.xmax}")
        if self.mode == "depth-series" and self.physical is not None:
            raise CliConfigError("depth-series sweeps model.alpha; give a 'model' block")
        # a field the mode does not read must keep its default: it would be
        # dropped without a word
        default = RunConfig(self.mode)
        dropped = [name for name, value in vars(self).items()
                   if name not in reads + _READ_BY_EVERY_MODE and value != getattr(default, name)]
        if dropped:
            raise CliConfigError(f"mode {self.mode!r} would drop {', '.join(dropped)}; here it "
                                 f"reads {', '.join(reads) or 'none of the optional fields'}")
        for bt in self.times:
            if not bt > 0:
                raise CliConfigError(f"Bt values must be positive, got {bt}")
        if not (math.isfinite(self.corner_r) and math.isfinite(self.corner_gamma)):
            raise CliConfigError("corner_r and corner_gamma must be finite")
        if "corner_r" in reads:
            try:
                CornerSpec(r=self.corner_r)
            except ValueError as exc:
                raise CliConfigError(f"bad corner_r: {exc}")

    def resolved(self) -> dict:
        # a shallow dict of the fields, as json.dumps only reads it; the
        # destination path is not part of the physics configuration and
        # must not break byte-identity between otherwise identical runs
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "out"}


def _bt_values(cfg: RunConfig) -> list[float]:
    """The run's Bt values: a mode that reads one takes _DEFAULT_BT when none
    is given."""
    return cfg.times or [_DEFAULT_BT]


def _reduce(model: dict | None, physical: dict | None, bt: float) -> ModelParams:
    """Check one parameter block and reduce it to ModelParams at a time Bt."""
    try:
        if model is not None:
            values = [model[k] for k in ("B", "alpha", "m")]
            _require_numbers("model entries", values)
            B, alpha, m = map(float, values)
            # B enters only through Bt, but it is the user's input
            if not 0 < B < math.inf:
                raise ValueError(f"B must be positive and finite, got {B}")
            return nondimensionalize(alpha, bt, m)
        phys = PhysicalParams(**physical)
        _require_numbers("physical entries", astuple(phys))
        return model_from_physical(phys, bt)
    except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
        raise CliConfigError(f"bad {'model' if model is not None else 'physical'} block: {exc}")


def _merge_cli(cfg: dict, args: argparse.Namespace) -> dict:
    """Command-line flags override config-file entries."""
    if not isinstance(cfg.get("model") or {}, dict):
        raise CliConfigError(f"model must be an object, got {cfg['model']!r}")
    flags = {key: getattr(args, key) for key in ("B", "alpha", "m")
             if getattr(args, key) is not None}
    model = {**(cfg.get("model") or {}), **flags}
    if model:
        cfg["model"] = model
        cfg["physical"] = None if flags else cfg.get("physical")
    # every other flag's dest is the RunConfig field it sets
    cfg.update((name, value) for name, value in vars(args).items()
               if name in RunConfig.__dataclass_fields__ and value is not None)
    return cfg


# ---- output ----------------------------------------------------------------


def _fmt(v: float) -> str:
    return f"{v:.16e}"


# The table renderer writes what `%.16e` writes, over whole arrays.  A
# nonzero |x| prints as the 17-digit integer q = round(|x| 10^k) and the
# exponent 16 - k, for the k that puts |x| 10^k in [1e16, 1e17).  The
# product is formed as p + t: 10^k is held as a double-double hi + lo,
# p = fl(|x| hi), and t is that product's rounding error, taken by Dekker's
# split (numpy has no FMA), plus |x| lo.  p + t misses |x| 10^k by under
# 1e-14, so it decides k and rounds as the exact product does, except
# within _DOUBT of a tie or of 1e16 (an exact power of ten), or above
# 1e17 - 1/2, where q would round up to 1e17.  Those cells, and |x| outside
# [1e-280, 1e280] (where the split's products leave the normal range),
# take q and the exponent from Python's `%.16e`, one cell at a time.
_SPLIT = 134217729.0                    # 2^27 + 1
_FAST_RANGE = (1e-280, 1e280)
_DOUBT = 1e-9
# the cells rendered at once: a long table is rendered in blocks, so its
# temporaries stay at block size
_BLOCK_CELLS = 8192
# one cell's bytes: sign, leading digit, ".", 16 digits, "e", exponent sign,
# hundreds digit, two exponent digits, separator; the sign and a hundreds
# digit of 0 are dropped, as they do not print
_CELL_BYTES = 25
# the decimal exponents of finite doubles, [-324, 308]
_EXPONENTS = (-324, 309)


@functools.lru_cache(maxsize=256)
def _pow10_span(k0: int, k1: int) -> np.ndarray:
    """Rows hi, lo, and hi's Dekker halves, of 10^k for k in [k0, k1]: hi is
    the double nearest 10^k and lo the double nearest 10^k - hi, both from
    Python ints (whose true division rounds correctly)."""
    cols = []
    for k in range(k0, k1 + 1):
        if k >= 0:
            hi = float(10 ** k)
            lo = float(10 ** k - int(hi))
        else:
            hi = 1 / 10 ** -k
            num, den = hi.as_integer_ratio()
            lo = (den - num * 10 ** -k) / (den * 10 ** -k)
        c = _SPLIT * hi
        head = c - (c - hi)
        cols.append((hi, lo, head, hi - head))
    return np.array(cols).T.copy()


@functools.cache
def _digit_pairs() -> np.ndarray:
    """The ASCII of "00" .. "99", one two-byte item each."""
    return np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode(), np.uint16)


@functools.cache
def _exponents() -> np.ndarray:
    """The ASCII of each exponent's sign and three digits, "-324" .. "+308",
    one four-byte item each."""
    return np.frombuffer("".join(f"{e:+04d}" for e in range(*_EXPONENTS)).encode(), np.uint32)


def _scaled(a: np.ndarray, pow10: np.ndarray):
    """|x| 10^k as (p, t), for `pow10` the four rows of `_pow10_span` at
    each cell's k."""
    hi, lo, head, tail = pow10
    p = a * hi
    c = _SPLIT * a
    ah = c - (c - a)
    al = a - ah
    return p, ((ah * head - p) + ah * tail + al * head) + al * tail + a * lo


def _render_block(x: np.ndarray, seps: np.ndarray) -> str:
    """`%.16e` text of the cells `x` (whole rows), each followed by its
    column's separator from `seps`."""
    n = x.size
    a = np.abs(x)
    fast = (a >= _FAST_RANGE[0]) & (a <= _FAST_RANGE[1])
    a = np.where(fast, a, 1.0)
    k = 16 - np.floor(np.log10(a)).astype(np.int64)
    k0 = int(k.min()) - 1
    pow10 = _pow10_span(k0, int(k.max()) + 1)
    p, t = _scaled(a, pow10.take(k - k0, axis=1))
    # log10 misses the decimal exponent by one next to a power of ten
    moved = np.flatnonzero(((p - 1e16) + t < 0) | ((p - 1e17) + t >= 0))
    if moved.size:
        k[moved] += np.where(p[moved] < 5e16, 1, -1)
        p[moved], t[moved] = _scaled(a[moved], pow10.take(k[moved] - k0, axis=1))
    up = np.floor(t + 0.5)
    slow = (~fast | ((p - 1e16) + t < _DOUBT) | ((p - 1e17) + t > -0.5)
            | (np.abs(np.abs(t - up) - 0.5) < _DOUBT))
    q = p.astype(np.int64) + up.astype(np.int64)
    e = 16 - k
    zero = np.flatnonzero(x == 0)
    q[zero] = 0
    e[zero] = 0
    slow[zero] = False
    for i in np.flatnonzero(slow).tolist():
        text = f"{abs(float(x[i])):.16e}"
        q[i] = int(text[0] + text[2:18])
        e[i] = int(text[19:])
    # q's 17 digits: the leading one, then two 8-digit halves split into
    # four quarters and eight pairs, in int64 throughout
    halves = np.empty((n, 2), np.int64)
    halves[:, 0] = q // 10 ** 8
    halves[:, 1] = q - halves[:, 0] * 10 ** 8
    lead = halves[:, 0] // 10 ** 8
    halves[:, 0] -= lead * 10 ** 8
    quarters = np.empty((n, 2, 2), np.int64)
    quarters[:, :, 0] = halves // 10 ** 4
    quarters[:, :, 1] = halves - quarters[:, :, 0] * 10 ** 4
    quarters = quarters.reshape(n, 4)
    pairs = np.empty((n, 4, 2), np.int64)
    pairs[:, :, 0] = quarters // 100
    pairs[:, :, 1] = quarters - pairs[:, :, 0] * 100
    cells = np.empty((n, _CELL_BYTES), np.uint8)
    cells[:, 0], cells[:, 2], cells[:, 19] = ord("-"), ord("."), ord("e")
    cells[:, 1] = lead + ord("0")
    cells[:, 3:19] = _digit_pairs().take(pairs.reshape(n, 8)).view(np.uint8)
    cells[:, 20:24] = _exponents().take(e - _EXPONENTS[0]).view(np.uint8).reshape(n, 4)
    cells.reshape(-1, len(seps), _CELL_BYTES)[:, :, 24] = seps
    keep = np.ones((n, _CELL_BYTES), bool)
    keep[:, 0] = np.signbit(x)
    keep[:, 21] = cells[:, 21] != ord("0")
    return cells[keep].tobytes().decode("ascii")


def _render_table(table: np.ndarray) -> str:
    """The finite 2-D `table` as `%.16e` text, cells split by commas and rows
    ended by newlines: byte for byte `("%.16e," ... "%.16e\\n") % cells`."""
    table = np.asarray(table, dtype=float)
    nrows, ncols = table.shape
    seps = np.full(ncols, ord(","), np.uint8)
    seps[-1] = ord("\n")
    step = max(1, _BLOCK_CELLS // ncols)
    return "".join(_render_block(table[i:i + step].ravel(), seps)
                   for i in range(0, nrows, step))


def _write_table(cfg: RunConfig, columns: list[str], table: np.ndarray,
                 notes: list[str], gaps: list[float] = ()) -> str:
    """Render the 2-D float table as the run's text; `gaps` are the numbers
    the notes report: compare's sup gaps, oracle's masses.

    A non-finite table value or gap is a numerical failure, not an output.
    Every cell is `%.16e` text, from `_render_table`.
    """
    if not (np.isfinite(table).all() and np.isfinite(gaps).all()):
        raise NonFiniteOutputError("the run produced a non-finite output value")
    body = _render_table(table)
    if cfg.fmt == "csv":
        lines = ["# gbgroove output", f"# config: {json.dumps(cfg.resolved(), sort_keys=True)}"]
        lines += [f"# {n}" for n in notes]
        lines.append("# columns: " + ",".join(columns))
        return "\n".join(lines) + "\n" + body
    # no indent: CPython runs its C encoder only without one
    head = json.dumps({"config": cfg.resolved(), "notes": notes, "columns": columns},
                      sort_keys=True)
    # "rows", the last key in sorted order, spliced in as json.dumps writes
    # the cells: %.16e text needs no escape
    rows = '["' + body[:-1].replace(",", '", "').replace("\n", '"], ["') + '"]' if body else ""
    return f'{head[:-1]}, "rows": [{rows}]}}\n'


# ---- modes -----------------------------------------------------------------


def _mode_params(cfg: RunConfig) -> str:
    [bt] = _bt_values(cfg)
    params = _reduce(cfg.model, cfg.physical, bt)
    B = (float(cfg.model["B"]) if cfg.model is not None
         else mullins_coefficient(PhysicalParams(**cfg.physical)))
    lines = [
        f"B_m4_per_s = {_fmt(B)}",
        f"alpha_m2 = {_fmt(params.alpha)}",
        f"m = {_fmt(params.m)}",
        f"L0_m = {_fmt(params.L0)} (at Bt = {_fmt(bt)} m^4)",
        f"alpha_hat = {_fmt(params.alpha_hat)}",
    ]
    return "\n".join(lines) + "\n"


def _mode_profile(cfg: RunConfig, with_oracle: bool) -> str:
    columns = ["Bt_m4", "x_m", "y_mullins_m", "y_composite_m"]
    if with_oracle:
        columns.append("y_oracle_m")
    blocks = []     # one (samples, columns) block per Bt
    notes: list[str] = []
    gaps: list[float] = []
    spec = ExpansionSpec(N=cfg.order)
    for bt in cfg.times:
        params = _reduce(cfg.model, cfg.physical, bt)
        span = (cfg.xmax if cfg.xmax is not None else 8.0) * params.L0
        xs = np.linspace(0.0, span, cfg.samples)
        dx = _halfline(halfline_dx, params.alpha_hat) if with_oracle else None
        cols = [np.full(len(xs), bt), xs, *mullins_and_composite(xs, bt, params, spec)]
        if with_oracle:
            ys = cols[-1]
            yo = params.L0 * _halfline(halfline_profile, span / params.L0, cfg.samples, 1.0,
                                       params.m, params.alpha_hat, dx)[0]
            # xs[0] = 0: the composite's root depth
            depth = abs(ys[0]) if ys[0] != 0 else 1.0
            sup = float(np.max(np.abs(ys - yo)) / depth)
            notes.append(f"Bt={_fmt(bt)}: sup|composite-oracle|/depth = {_fmt(sup)}")
            gaps.append(sup)
            cols.append(yo)
        blocks.append(np.column_stack(cols))
    return _write_table(cfg, columns, np.concatenate(blocks), notes, gaps)


def _halfline(fn, *args):
    """A half-line call, whose ValueError (past float64's range, or a spacing
    finer than the column takes) exits 2."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise CliConfigError(f"the oracle column: {exc}") from exc


def _mode_depth_series(cfg: RunConfig) -> str:
    alphas = cfg.alphas
    if not alphas:
        if "alpha" in cfg.model:
            alphas = [cfg.model["alpha"]]     # checked by `_reduce` below
        else:
            raise CliConfigError("depth-series needs an 'alphas' list or a model alpha")
    columns = ["alpha_m2", "Bt_m4", "depth_mullins_m", "depth_composite_m",
               "relative_effect"]
    # every row reduced as nondimensionalize reduces it, powers through libm
    bts = np.array(cfg.times, dtype=float)
    L0 = libm_pow(bts, 0.25)
    L0_2 = libm_pow(L0, 2)
    ah = []
    for alpha in alphas:
        model = {**cfg.model, "alpha": alpha}
        params = _reduce(model, None, cfg.times[0])  # checks alpha and m, warns once if m is steep
        ah.append(params.alpha / L0_2)
        bad = ~(np.isfinite(ah[-1]) & np.isfinite(L0))
        if bad.any():       # the first row ModelParams refuses exits 2 with its message
            _reduce(model, None, cfg.times[int(np.argmax(bad))])
    rows = SimpleNamespace(m=params.m, L0=np.tile(L0, len(alphas)), alpha_hat=np.concatenate(ah))
    bt = np.tile(bts, len(alphas))
    # L0 * y_0(0, Bt / L0^4) with Z(0) in closed form, float op for float op
    # as the tests' mullins_profile_dim
    ym = np.tile(np.abs(L0 * (params.m * libm_pow(bts / libm_pow(L0, 4), 0.25) * Z0)), len(alphas))
    dd = depth_difference(bt, rows)
    table = np.column_stack([np.repeat(np.array(alphas, dtype=float), len(bts)), bt, ym, ym - dd,
                             np.divide(dd, ym, out=np.zeros(len(bt)), where=ym > 0)])
    return _write_table(cfg, columns, table, [])


def _mode_corner(cfg: RunConfig) -> str:
    [bt] = _bt_values(cfg)
    params = _reduce(cfg.model, cfg.physical, bt)
    ah = params.alpha_hat
    if ah <= 0:
        raise CliConfigError("corner mode needs alpha > 0")
    # amplitude corner_gamma, or alpha_hat where corner_gamma is 0
    spec = CornerSpec(r=cfg.corner_r, gamma=cfg.corner_gamma or ah, alpha_hat=ah)
    # the columns are at tau = 1, where zeta is w
    ws = np.linspace(0.0, 20.0, cfg.samples)
    yc456 = corner_solutions_yc((4, 5, 6), ws, 1.0, spec)
    combination = corner_combination(ws, 1.0, spec, yc456=yc456)
    columns = ["w", "y_c4", "y_c5", "y_c6", "combination"]
    table = np.column_stack([ws, *yc456, combination])
    notes = [f"nondimensional corner-layer similarity solutions at tau=1, "
             f"r={cfg.corner_r}, amplitude gamma={_fmt(spec.gamma)}"]
    return _write_table(cfg, columns, table, notes)


def _mode_oracle(cfg: RunConfig) -> str:
    columns = ["Bt_m4", "x_m", "y_oracle_m"]
    blocks = []
    notes = []
    masses = []
    xs = np.linspace(0.0, HALFLINE_L, cfg.samples)
    for bt in cfg.times:
        params = _reduce(cfg.model, cfg.physical, bt)
        ah = params.alpha_hat
        ys, mass = _halfline(halfline_profile, HALFLINE_L, cfg.samples, 1.0, params.m, ah,
                             _halfline(halfline_dx, ah))
        masses.append(mass)
        notes.append(f"Bt={_fmt(bt)}: mass={_fmt(mass)} (nondimensional)")
        blocks.append(np.column_stack([np.full(len(xs), bt), xs * params.L0, ys * params.L0]))
    return _write_table(cfg, columns, np.concatenate(blocks), notes, masses)


# What each mode reads, one entry per mode: its function; the optional
# RunConfig fields it reads; the most Bt values it reads (None: one or more;
# a mode reading one takes _DEFAULT_BT when none is given); the rows it is
# charged per Bt value; and the rows charged on top for each Bt value past
# the first
_EXPANSION_FIELDS = ("order", "samples", "xmax", "fmt")
_MODE_TABLE = {
    "params": (_mode_params, (), 1, lambda cfg: 0, 0),
    "profile": (functools.partial(_mode_profile, with_oracle=False), _EXPANSION_FIELDS, None,
                lambda cfg: cfg.samples, BT_ROWS),
    "depth-series": (_mode_depth_series, ("alphas", "fmt"), None,
                     lambda cfg: max(len(cfg.alphas), 1), 0),
    "corner": (_mode_corner, ("corner_r", "corner_gamma", "samples", "fmt"), 1,
               lambda cfg: cfg.samples, 0),
    "oracle": (_mode_oracle, ("samples", "fmt"), None, lambda cfg: cfg.samples, BT_ROWS),
    "compare": (functools.partial(_mode_profile, with_oracle=True), _EXPANSION_FIELDS, None,
                lambda cfg: cfg.samples, BT_ROWS),
}
MODES = tuple(_MODE_TABLE)
# the RunConfig fields every mode reads; how many Bt values, the table says
_READ_BY_EVERY_MODE = ("mode", "physical", "model", "times", "out")


def run(cfg: RunConfig) -> str:
    """Dispatch one validated run; returns the emitted text."""
    cfg.validate()
    # an overflowing or NaN value fails the output check (exit 3): numpy
    # need not warn about it first
    with np.errstate(over="ignore", invalid="ignore"):
        text = _MODE_TABLE[cfg.mode][0](cfg)
    if cfg.out:
        Path(cfg.out).write_text(text)
    return text


# ---- entry point -----------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser every `main` call shares: parse_args keeps no state in
    it (each call fills a fresh namespace, and `append` copies its default)."""
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
    parser.add_argument("--Bt", dest="times", metavar="BT", type=float, action="append",
                        help="evaluation time as a Bt product, m^4 (repeatable)")
    parser.add_argument("--order", type=int, help="outer expansion order N")
    parser.add_argument("--samples", type=int, help="output sample count")
    parser.add_argument("--xmax", type=float,
                        help="window in units of (Bt)^(1/4), default 8, at most 12")
    parser.add_argument("--out", type=str, help="output file path")
    parser.add_argument("--format", dest="fmt", choices=FORMATS)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg_dict: dict = {}
        if args.preset:
            # a copy of each list and dict: a run must not reach into PRESETS
            cfg_dict.update((k, copy.copy(v)) for k, v in PRESETS[args.preset].items())
        if args.config:
            try:
                doc = json.loads(args.config.read_text())
            except (OSError, json.JSONDecodeError) as exc:
                raise CliConfigError(f"cannot read config file: {exc}")
            if not isinstance(doc, dict):
                raise CliConfigError("config file must hold a JSON object")
            cfg_dict.update(doc)
        cfg_dict = _merge_cli(cfg_dict, args)
        if "mode" not in cfg_dict:
            raise CliConfigError("no mode given (flag --mode, config, or preset)")
        allowed = {f.name for f in RunConfig.__dataclass_fields__.values()}
        unknown = set(cfg_dict) - allowed
        if unknown:
            raise CliConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg = RunConfig(**cfg_dict)
        text = run(cfg)
    except CliConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    except (SeriesError, GammaPoleError,
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
