"""Uniform composite profile, wall-condition residuals and groove metrics.

The composite is outer expansion + wall correction (+ optional corner
term), evaluated in nondimensional variables (x in units of L0, t standing
for B t / L0^4) and dimensionalized at the interface.  Metrics are
extracted from a dense sampling refined near the wall so the exponential
layer is never missed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .layers import (
    CornerSpec,
    beta2,
    beta4,
    boundary_layer_G,
    corner_combination,
    corner_combination_deriv0,
)
from .material import ModelParams
from .outer import mullins_profile, outer_term
from .specfun import gamma

__all__ = [
    "ExpansionSpec",
    "GrooveMetrics",
    "composite_profile",
    "composite_profile_nd",
    "mullins_profile_dim",
    "bc_residuals",
    "curvature_cancellation_residuals",
    "depth_difference",
    "groove_metrics",
    "default_window",
]

_SQRT2 = math.sqrt(2.0)
_G34 = gamma(0.75)
_G74 = gamma(1.75)

# groove_metrics on a callable: four 33-point zooms narrow a grid bracket
# 65536-fold, past the ~1e-8 at which rounding flattens an extremum, and
# panels of 8 Gauss-Legendre nodes give the mass
_ZOOMS = 4
_ZOOM_POINTS = 33
_PANELS = 32
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


@dataclass(frozen=True)
class ExpansionSpec:
    """What goes into the composite: the outer order N and, when `corner` is
    given, the corner-layer term."""

    N: int = 2
    corner: CornerSpec | None = None

    def __post_init__(self):
        if self.N < 0:
            raise ValueError("N must be >= 0")


@dataclass(frozen=True)
class GrooveMetrics:
    """Scalar descriptors of one groove profile (same units as the input)."""

    depth: float
    x_max: float | None
    y_max: float | None
    x_min2: float | None
    y_min2: float | None
    mass: float

    @property
    def has_primary_maximum(self) -> bool:
        return self.x_max is not None

    @property
    def has_secondary_minimum(self) -> bool:
        return self.x_min2 is not None


def _nd_coords(x: float, t: float, params: ModelParams) -> tuple[float, float]:
    """Map dimensional (x [m], t [s]) to (x_hat, t_hat)."""
    if not t > 0:
        raise ValueError("t must be positive")
    L0 = params.L0
    return x / L0, params.B * t / L0 ** 4


def composite_profile_nd(x, t: float, m: float, alpha_hat: float,
                         spec: ExpansionSpec, order: int = 0):
    """Composite profile in nondimensional variables (x / L0, with t the
    product B t / L0^4), or its d^order/dx^order (term-differentiated).

    A nonzero corner term must carry this `alpha_hat`, or ValueError is
    raised.  It has derivatives only at the wall, in closed form (x = 0,
    order <= 5); with a nonzero corner, any other derivative raises
    ValueError.
    """
    corner = spec.corner
    if corner is not None and corner.gamma != 0.0 and corner.alpha_hat != alpha_hat:
        raise ValueError(f"corner alpha_hat = {corner.alpha_hat} differs from "
                         f"the profile's alpha_hat = {alpha_hat}")
    y = mullins_profile(x, t, m, order=order)
    for r in range(1, spec.N + 1):
        y += alpha_hat ** r * outer_term(r, x, t, m, order=order)
    if alpha_hat > 0:
        y += boundary_layer_G(x, t, alpha_hat, m, order=order)
    if corner is not None and corner.gamma != 0.0 and alpha_hat > 0:
        ah = alpha_hat
        if order == 0:
            y += corner_combination(x / ah, t / ah ** 5, corner)
        elif np.any(x):
            raise ValueError("the corner term has derivatives only at the wall (x = 0)")
        else:
            y += corner_combination_deriv0(order, t / ah ** 5, corner) / ah ** order
    return y


def composite_profile(x: float, t: float, params: ModelParams,
                      spec: ExpansionSpec) -> float:
    """Dimensional composite profile y(x, t) [m]."""
    xh, th = _nd_coords(x, t, params)
    return params.L0 * composite_profile_nd(xh, th, params.m, params.alpha_hat, spec)


def mullins_profile_dim(x: float, t: float, params: ModelParams) -> float:
    """Dimensional unpassivated profile for side-by-side comparisons."""
    xh, th = _nd_coords(x, t, params)
    return params.L0 * mullins_profile(xh, th, params.m)


def bc_residuals(t: float, params: ModelParams,
                 spec: ExpansionSpec) -> tuple[float, float, float]:
    """Wall-condition residuals of the composite, nondimensional.

        r1 = |y_x(0) - alpha y_xxx(0) - m/2|
        r2 = |y_xxx(0) - alpha y_xxxxx(0)|
        r3 = |y_xx(0)|

    The construction satisfies the first two exactly: the outer terms have
    vanishing odd wall derivatives beyond the imposed slope, and the
    operator (d/dx - alpha d^3/dx^3) annihilates exp(-x/sqrt(alpha))
    identically.  r3 is zero through order alpha^1 and picks up the
    uncancelled alpha^2 curvature of the second correction once N >= 2.
    """
    _, th = _nd_coords(0.0, t, params)
    ah = params.alpha_hat
    m = params.m
    d = [composite_profile_nd(0.0, th, m, ah, spec, k) for k in range(6)]
    r1 = abs(d[1] - ah * d[3] - m / 2.0)
    r2 = abs(d[3] - ah * d[5])
    r3 = abs(d[2])
    return r1, r2, r3


def curvature_cancellation_residuals(t: float, params: ModelParams) -> tuple[float, float]:
    """Relative residuals of the wall-curvature cancellation, order by order.

    Order alpha^0: beta2 against the curvature of the unpassivated profile;
    order alpha^1: beta4 against the curvature of the first correction.
    """
    _, th = _nd_coords(0.0, t, params)
    m = params.m
    b2 = beta2(th, m)
    c0 = mullins_profile(0.0, th, m, order=2)
    b4 = beta4(th, m)
    c1 = outer_term(1, 0.0, th, m, order=2)
    return abs(b2 + c0) / abs(b2), abs(b4 + c1) / abs(b4)


def depth_difference(t: float, params: ModelParams) -> float:
    """Root elevation of the passivated groove over the unpassivated one [m].

    Four-term closed form; identical to composite(0) - unpassivated(0) at
    N = 2 (the wall correction contributes its full amplitude at x = 0).
    """
    _, th = _nd_coords(0.0, t, params)
    ah = params.alpha_hat
    m = params.m
    total = 0.0
    for r in (1, 2):
        total += ((-ah) ** r * m * gamma(1.5 * r - 0.25)
                  / (4.0 * math.pi * th ** (0.5 * r - 0.25) * math.factorial(r)))
    total += ah * m / (2.0 * _SQRT2 * th ** 0.25 * _G34)
    total -= ah ** 2 * m * _G74 / (4.0 * math.pi * th ** 0.75)
    return params.L0 * total


def default_window(t: float, params: ModelParams) -> float:
    """Default evaluation window 8 (Bt)^(1/4) [m]."""
    return 8.0 * (params.B * t) ** 0.25


def _sample_grid(x_cap: float, bl_width: float, samples: int) -> np.ndarray:
    """Uniform grid plus wall refinement resolving the exponential layer."""
    xs = np.linspace(0.0, x_cap, samples)
    if bl_width > 0:
        fine = np.linspace(0.0, min(3.0 * bl_width, x_cap), 25)
        xs = np.unique(np.concatenate([xs, fine]))
    return xs


def _sample(profile, xs: np.ndarray) -> np.ndarray:
    """profile at every x: one call with the array, or one call per point
    for a callable that takes floats only (it raises on an array, or does
    not return one value per point)."""
    try:
        ys = np.asarray(profile(xs), dtype=float)
        if ys.shape == xs.shape:
            return ys
    except (TypeError, ValueError):
        pass
    return np.array([profile(float(x)) for x in xs])


def _zoom(profile, a: float, b: float, sign: float) -> tuple[float, float]:
    """Extremum of sign * profile in [a, b] as (x, y), the best sample of the
    last zoom.  Each zoom samples `_ZOOM_POINTS` points in one call and keeps
    the two intervals around the best one, narrowing the bracket 16-fold."""
    for _ in range(_ZOOMS):
        xs = np.linspace(a, b, _ZOOM_POINTS)
        ys = _sample(profile, xs)
        j = int(np.argmax(sign * ys))
        a, b = xs[max(j - 1, 0)], xs[min(j + 1, _ZOOM_POINTS - 1)]
    return float(xs[j]), float(ys[j])


def _mass(profile, x_cap: float, bl_width: float) -> float:
    """Integral of the profile over [0, x_cap]: `_PANELS` Gauss-Legendre
    panels, and as many again over the first 32 wall-layer widths, in one
    call."""
    edges = np.linspace(0.0, x_cap, _PANELS + 1)
    if bl_width > 0:
        wall = np.linspace(0.0, min(32.0 * bl_width, x_cap), _PANELS + 1)
        edges = np.unique(np.concatenate([edges, wall]))
    half = 0.5 * np.diff(edges)
    xs = edges[:-1, None] + half[:, None] * (1.0 + _GL_NODES)
    ys = _sample(profile, xs.ravel()).reshape(xs.shape)
    return float(half @ (ys @ _GL_WEIGHTS))


def groove_metrics(profile, params: ModelParams | None = None,
                   x_cap: float | None = None, t: float | None = None,
                   samples: int = 2048) -> GrooveMetrics:
    """Extract depth, primary maximum, secondary minimum and mass.

    `profile` is either a callable y(x) or a pair of equal-length arrays
    (x, y).  A callable is only ever called through `_sample`: with arrays,
    or point by point if it takes floats only.  It is sampled on the dense
    grid; extrema found there are refined by repeated zooms of their
    bracket (`_zoom`), and the mass comes from fixed Gauss-Legendre panels
    (`_mass`).  Sampled arrays give the grid extrema and trapezoid mass.
    """
    callable_profile = callable(profile)
    if callable_profile:
        if x_cap is None:
            if params is None or t is None:
                raise ValueError("callable profiles need x_cap or (params, t)")
            x_cap = default_window(t, params)
        bl = math.sqrt(params.alpha) if params is not None and params.alpha > 0 else 0.0
        xs = _sample_grid(x_cap, bl, samples)
        ys = _sample(profile, xs)
    else:
        xs, ys = (np.asarray(v, dtype=float) for v in profile)
        if xs.shape != ys.shape or xs.ndim != 1:
            raise ValueError("sampled profile needs matching 1-d arrays")

    def first_turn(sign: float, after: float):
        """(x, y) where sign * y first stops rising past `after`, zoomed in on
        for a callable; (None, None) if it never does."""
        s = sign * ys
        turns = np.flatnonzero((xs[1:-1] > after) & (s[1:-1] >= s[:-2]) & (s[1:-1] > s[2:]))
        if not turns.size:
            return None, None
        i = turns[0] + 1
        if callable_profile:
            return _zoom(profile, xs[i - 1], xs[i + 1], sign)
        return float(xs[i]), float(ys[i])

    x_max, y_max = first_turn(1.0, -math.inf)
    x_min2, y_min2 = (None, None) if x_max is None else first_turn(-1.0, x_max)
    mass = _mass(profile, float(xs[-1]), bl) if callable_profile else float(np.trapezoid(ys, xs))
    return GrooveMetrics(depth=float(abs(ys[0])), x_max=x_max, y_max=y_max,
                         x_min2=x_min2, y_min2=y_min2, mass=mass)
