"""Uniform composite profile, wall-condition residuals and groove metrics.

The composite is outer expansion + wall correction (+ optional corner
term), evaluated in nondimensional variables and dimensionalized at the
interface.  Metrics are extracted from a dense sampling refined near the
wall so the exponential layer is never missed.
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
    "composite_derivative_nd",
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


def composite_profile_nd(x: float, t: float, m: float, alpha_hat: float,
                         spec: ExpansionSpec) -> float:
    """Composite profile in nondimensional variables (B = 1)."""
    y = mullins_profile(x, t, 1.0, m)
    for r in range(1, spec.N + 1):
        y += alpha_hat ** r * outer_term(r, x, t, 1.0, m)
    if alpha_hat > 0:
        y += boundary_layer_G(x, t, alpha_hat, 1.0, m)
    if spec.corner is not None and spec.corner.gamma != 0.0:
        ah = spec.corner.alpha_hat
        if ah > 0:
            y += corner_combination(x / ah, t / ah ** 5, spec.corner)
    return y


def composite_derivative_nd(x: float, t: float, m: float, alpha_hat: float,
                            spec: ExpansionSpec, order: int) -> float:
    """d^order/dx^order of the nondimensional composite, term-differentiated."""
    d = mullins_profile(x, t, 1.0, m, order)
    for r in range(1, spec.N + 1):
        d += alpha_hat ** r * outer_term(r, x, t, 1.0, m, order)
    if alpha_hat > 0:
        d += boundary_layer_G(x, t, alpha_hat, 1.0, m, order)
    if spec.corner is not None and spec.corner.gamma != 0.0:
        ah = spec.corner.alpha_hat
        if ah > 0 and x == 0.0 and order <= 5:
            d += corner_combination_deriv0(order, t / ah ** 5, spec.corner) / ah ** order
    return d


def composite_profile(x: float, t: float, params: ModelParams,
                      spec: ExpansionSpec) -> float:
    """Dimensional composite profile y(x, t) [m]."""
    xh, th = _nd_coords(x, t, params)
    return params.L0 * composite_profile_nd(xh, th, params.m, params.alpha_hat, spec)


def mullins_profile_dim(x: float, t: float, params: ModelParams) -> float:
    """Dimensional unpassivated profile for side-by-side comparisons."""
    xh, th = _nd_coords(x, t, params)
    return params.L0 * mullins_profile(xh, th, 1.0, params.m)


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
    d = [composite_derivative_nd(0.0, th, m, ah, spec, k) for k in range(6)]
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
    b2 = beta2(th, 1.0, m)
    c0 = mullins_profile(0.0, th, 1.0, m, 2)
    b4 = beta4(th, 1.0, m)
    c1 = outer_term(1, 0.0, th, 1.0, m, 2)
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


def _golden_refine(f, a: float, b: float, minimize: bool, iters: int = 80):
    """Golden-section search on [a, b]; returns (x, f(x))."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    sgn = 1.0 if minimize else -1.0
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc = sgn * f(c)
    fd = sgn * f(d)
    for _ in range(iters):
        if b - a < 1e-14 * max(1.0, abs(a) + abs(b)):
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = sgn * f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = sgn * f(d)
    x = 0.5 * (a + b)
    return x, f(x)


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


def groove_metrics(profile, params: ModelParams | None = None,
                   x_cap: float | None = None, t: float | None = None,
                   samples: int = 2048) -> GrooveMetrics:
    """Extract depth, primary maximum, secondary minimum and mass.

    `profile` is either a callable y(x) or a pair of equal-length arrays
    (x, y).  A callable is sampled on the dense grid (see `_sample`) and
    called with floats afterwards: extrema found on the grid are refined by
    golden-section search and the mass comes from adaptive quadrature.
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

    depth = abs(ys[0])

    # first interior maximum: first index where y stops rising
    x_max = y_max = None
    interior = np.arange(1, len(xs) - 1)
    rising = (ys[interior] >= ys[interior - 1]) & (ys[interior] > ys[interior + 1])
    if rising.any():
        i = interior[rising][0]
        if callable_profile:
            x_max, y_max = _golden_refine(profile, xs[i - 1], xs[i + 1], minimize=False)
        else:
            x_max, y_max = float(xs[i]), float(ys[i])

    x_min2 = y_min2 = None
    if x_max is not None:
        after = np.arange(1, len(xs) - 1)
        mask = (xs[after] > x_max) & (ys[after] <= ys[after - 1]) & (ys[after] < ys[after + 1])
        if mask.any():
            i = after[mask][0]
            if callable_profile:
                x_min2, y_min2 = _golden_refine(profile, xs[i - 1], xs[i + 1], minimize=True)
            else:
                x_min2, y_min2 = float(xs[i]), float(ys[i])

    if callable_profile:
        from scipy.integrate import quad  # deferred: it is most of the package import time

        pts = [p for p in (x_max, x_min2) if p is not None]
        mass, _ = quad(profile, 0.0, float(xs[-1]), points=pts or None, limit=200)
    else:
        mass = float(np.trapezoid(ys, xs))

    return GrooveMetrics(depth=float(depth),
                         x_max=None if x_max is None else float(x_max),
                         y_max=None if y_max is None else float(y_max),
                         x_min2=None if x_min2 is None else float(x_min2),
                         y_min2=None if y_min2 is None else float(y_min2),
                         mass=mass)
