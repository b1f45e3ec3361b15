"""Span recorder for the traced run, attached to gbgroove from outside.

`install` replaces the package's public layer functions, in every gbgroove
module namespace that holds them, with wrappers that record a span
(name, start, end, parent) while recording is on.  The package itself is
never edited.  `layer_metrics` turns one pass worth of spans into the
per-layer numbers; `check_self_time` proves that arithmetic on a synthetic
span tree.

A span name is "<layer>:<function>".  The layers are:

  specfun          hyp_series_derivative, hyp_pFq, hyp_pFq_derivative
  outer            every public function of gbgroove.outer
  layers.bl        the boundary-layer (wall correction) functions
  layers.corner    every other public function of gbgroove.layers
  composite        public functions of gbgroove.composite except the two below
  composite.scalar mullins_profile_dim and depth_difference
  oracle.assemble  assemble_operator
  oracle.factor    GrooveOperator.advance with a (dt, theta) that operator
                   has not been advanced with before (it factors)
  oracle.step      GrooveOperator.advance with a (dt, theta) seen before
  oracle.solve     solve
  cli.run          gbgroove.cli.run
  op               the benchmark's own span around each operation
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
import weakref
from collections import defaultdict

SPECFUN = ("hyp_series_derivative", "hyp_pFq", "hyp_pFq_derivative")
BOUNDARY_LAYER = ("beta2", "beta4", "boundary_layer_coeffs", "boundary_layer_G",
                  "boundary_layer_G_derivative")
COMPOSITE_SCALAR = ("mullins_profile_dim", "depth_difference")
CORNER_UNIT = "corner_solutions_yc"   # one y_ci evaluation: the corner work unit


class Recorder:
    """Spans of one process, kept in memory.

    Each span is [name, start, end, parent, extra]; `parent` is the index
    of the enclosing span or -1, `extra` carries a series result's
    diagnostics (specfun) or the emitted row count (op).  The benchmark is
    single-threaded, so the innermost open span is the parent of the next.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.enabled = False
        self._open = -1

    def begin(self, name: str) -> int:
        self.spans.append([name, time.perf_counter(), 0.0, self._open, None])
        self._open = len(self.spans) - 1
        return self._open

    def end(self, index: int) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        self._open = span[3]

    def clear(self) -> None:
        self.spans = []
        self._open = -1


def _wrap(rec: Recorder, name, fn, observe=None):
    """`name` is a string or a callable(args) -> string."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not rec.enabled:
            return fn(*args, **kwargs)
        index = rec.begin(name if isinstance(name, str) else name(args))
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.end(index)
        if observe is not None:
            rec.spans[index][4] = observe(result)
        return result

    return traced


def _series_diagnostics(res):
    return res.terms_used, res.cancellation_digits, res.reliable


def _public_functions(module, names=None):
    names = module.__all__ if names is None else names
    return [(n, getattr(module, n)) for n in names
            if inspect.isfunction(getattr(module, n))]


def install(rec: Recorder):
    """Wrap the layer functions everywhere gbgroove binds them.

    Returns an undo list for `uninstall`.
    """
    from gbgroove import cli, composite, layers, oracle, outer, specfun

    targets = []    # (original function, span name, observe)
    for n, fn in _public_functions(specfun, SPECFUN):
        targets.append((fn, f"specfun:{n}", _series_diagnostics))
    for n, fn in _public_functions(outer):
        targets.append((fn, f"outer:{n}", None))
    for n, fn in _public_functions(layers):
        layer = "layers.bl" if n in BOUNDARY_LAYER else "layers.corner"
        targets.append((fn, f"{layer}:{n}", None))
    for n, fn in _public_functions(composite):
        layer = "composite.scalar" if n in COMPOSITE_SCALAR else "composite"
        targets.append((fn, f"{layer}:{n}", None))
    targets.append((oracle.assemble_operator, "oracle.assemble:assemble_operator", None))
    targets.append((oracle.solve, "oracle.solve:solve", None))
    targets.append((cli.run, "cli.run:run", None))

    modules = [m for k, m in list(sys.modules.items())
               if m is not None and (k == "gbgroove" or k.startswith("gbgroove."))]
    undo = []
    for original, name, observe in targets:
        wrapper = _wrap(rec, name, original, observe)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    undo.append((module, attr, original))
                    setattr(module, attr, wrapper)

    # advance factors the first time an operator sees a (dt, theta) pair
    seen = weakref.WeakKeyDictionary()

    def advance_name(args):
        op, _, dt, theta = args
        keys = seen.setdefault(op, set())
        if (dt, theta) in keys:
            return "oracle.step:advance"
        keys.add((dt, theta))
        return "oracle.factor:advance"

    advance = oracle.GrooveOperator.advance
    undo.append((oracle.GrooveOperator, "advance", advance))
    oracle.GrooveOperator.advance = _wrap(rec, advance_name, advance)
    return undo


def uninstall(undo) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


# ---- per-layer arithmetic ---------------------------------------------------

def _layer(name: str) -> str:
    return name.split(":", 1)[0]


def layer_totals(spans) -> dict:
    """Per layer: entries, time covered and self time.

    An entry is a span with no ancestor in the same layer; the layer's time
    is the summed duration of its entries, which is the wall time covered by
    the layer even where its functions call each other.  A span's self time
    is its duration minus the durations of its child spans (one thread, so
    children never overlap); a layer's self time is the sum over its spans.
    """
    n = len(spans)
    self_time = [0.0] * n
    totals = defaultdict(lambda: {"calls": 0, "time_s": 0.0, "self_s": 0.0, "spans": 0})
    for i, (name, start, end, parent, _) in enumerate(spans):
        duration = end - start
        self_time[i] += duration
        if parent >= 0:
            self_time[parent] -= duration
        layer = _layer(name)
        p = parent
        while p >= 0 and _layer(spans[p][0]) != layer:
            p = spans[p][3]
        t = totals[layer]
        t["spans"] += 1
        if p < 0:
            t["calls"] += 1
            t["time_s"] += duration
    for i, span in enumerate(spans):
        totals[_layer(span[0])]["self_s"] += self_time[i]
    return totals


def layer_metrics(spans) -> dict:
    """The per-layer metrics of one pass over a workload's op list."""
    tot = layer_totals(spans)
    root = [0] * len(spans)
    corner_calls = points = terms = series = unreliable = rows = 0
    corner_ops = set()
    max_cancel = 0.0
    for i, (name, _, _, parent, extra) in enumerate(spans):
        root[i] = i if parent < 0 else root[parent]
        if name == f"layers.corner:{CORNER_UNIT}":
            corner_calls += 1
            corner_ops.add(root[i])
        elif name == "composite:composite_profile_nd":
            points += 1
        elif name.startswith("specfun:") and extra is not None and (
                parent < 0 or _layer(spans[parent][0]) != "specfun"):
            # hyp_pFq_derivative -> hyp_pFq reports one series twice; count
            # the outer call only (extra is None where the call raised)
            series += 1
            terms += extra[0]
            if math.isfinite(extra[1]):
                max_cancel = max(max_cancel, extra[1])
            unreliable += not extra[2]
        elif name.startswith("op:"):
            rows += extra
    corner_rows = sum(spans[i][4] for i in corner_ops)

    def per(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    sp, co = tot["specfun"], tot["composite"]
    fa, st = tot["oracle.factor"], tot["oracle.step"]
    return {
        "specfun.calls": sp["calls"],
        "specfun.time_s": sp["time_s"],
        "specfun.terms": terms,
        "specfun.ns_per_term": per(sp["time_s"], terms, 1e9),
        "specfun.max_cancel_digits": max_cancel,
        "specfun.unreliable_share": per(unreliable, series),
        "outer.calls": tot["outer"]["calls"],
        "outer.time_s": tot["outer"]["time_s"],
        "outer.self_s": tot["outer"]["self_s"],
        "layers.bl.calls": tot["layers.bl"]["calls"],
        "layers.bl.time_s": tot["layers.bl"]["time_s"],
        "layers.corner.calls": corner_calls,
        "layers.corner.time_s": tot["layers.corner"]["time_s"],
        "layers.corner.calls_per_row": per(corner_calls, corner_rows),
        "composite.points": points,
        "composite.time_s": co["time_s"],
        "composite.self_s": co["self_s"],
        "composite.us_per_point": per(co["time_s"], points, 1e6),
        "composite.scalar.calls": tot["composite.scalar"]["calls"],
        "composite.scalar.time_s": tot["composite.scalar"]["time_s"],
        "oracle.assemble.calls": tot["oracle.assemble"]["calls"],
        "oracle.assemble.time_s": tot["oracle.assemble"]["time_s"],
        "oracle.factor.count": fa["spans"],
        "oracle.factor.time_s": fa["time_s"],
        "oracle.step.count": st["spans"],
        "oracle.step.time_s": st["time_s"],
        "oracle.step.us_per_step": per(st["time_s"], st["spans"], 1e6),
        "oracle.lu_reuse": per(st["spans"], st["spans"] + fa["spans"]),
        "oracle.solve.self_s": tot["oracle.solve"]["self_s"],
        "cli.run.time_s": tot["cli.run"]["time_s"],
        "cli.self_s": tot["cli.run"]["self_s"],
        "cli.rows": rows,
    }


def check_self_time() -> None:
    """Raise if the span arithmetic is wrong on a hand-computed tree.

    op [0, 10] rows=2
      cli.run [1, 9]
        composite [2, 6]
          outer mullins_profile [2.5, 5.5]
            outer mullins_shape [3, 5]
              specfun [3.5, 4.5] (10 terms, 2 cancelled digits)
        layers.corner y_c4 [7, 8]
    """
    spans = [
        ["op:cli", 0.0, 10.0, -1, 2],
        ["cli.run:run", 1.0, 9.0, 0, None],
        ["composite:composite_profile_nd", 2.0, 6.0, 1, None],
        ["outer:mullins_profile", 2.5, 5.5, 2, None],
        ["outer:mullins_shape", 3.0, 5.0, 3, None],
        ["specfun:hyp_series_derivative", 3.5, 4.5, 4, (10, 2.0, True)],
        [f"layers.corner:{CORNER_UNIT}", 7.0, 8.0, 1, None],
    ]
    got = layer_metrics(spans)
    want = {
        "cli.run.time_s": 8.0, "cli.self_s": 3.0, "cli.rows": 2,
        "composite.points": 1, "composite.time_s": 4.0, "composite.self_s": 1.0,
        "outer.calls": 1, "outer.time_s": 3.0, "outer.self_s": 2.0,
        "specfun.calls": 1, "specfun.time_s": 1.0, "specfun.terms": 10,
        "specfun.ns_per_term": 1e8, "specfun.max_cancel_digits": 2.0,
        "specfun.unreliable_share": 0.0,
        "layers.corner.calls": 1, "layers.corner.time_s": 1.0,
        "layers.corner.calls_per_row": 0.5,
        "oracle.step.count": 0, "oracle.lu_reuse": 0.0,
    }
    wrong = {k: (got[k], v) for k, v in want.items() if got[k] != v}
    if wrong:
        raise AssertionError(f"span self-time arithmetic is off: {wrong}")
    if layer_totals(spans)["op"]["self_s"] != 2.0:
        raise AssertionError("op self time should be 10 - 8")
