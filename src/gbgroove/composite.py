"""Uniform composite profile, root-depth difference and groove metrics.

The composite is outer expansion + wall correction, evaluated in
nondimensional variables (x in units of L0 = (Bt)^(1/4), t standing for
Bt / L0^4) and dimensionalized at the interface.  The dimensional functions
take time as the product Bt [m^4].  Metrics are extracted from a dense
sampling refined near the wall so the exponential layer is never missed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .layers import boundary_layer_G
from .material import ModelParams
from .outer import outer_expansion
from .specfun import gamma

__all__ = [
    "ExpansionSpec",
    "GrooveMetrics",
    "composite_profile_nd",
    "mullins_and_composite",
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
_GL_NODES = 8


@dataclass(frozen=True)
class ExpansionSpec:
    """What goes into the composite: the outer order N."""

    N: int = 2

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


def _nd_coords(x: float, bt: float, params: ModelParams) -> tuple[float, float]:
    """Map dimensional (x [m], Bt [m^4]) to (x_hat, t_hat)."""
    if not bt > 0:
        raise ValueError("Bt must be positive")
    L0 = params.L0
    return x / L0, bt / L0 ** 4


def composite_profile_nd(x, t: float, m: float, alpha_hat: float,
                         spec: ExpansionSpec, order: int = 0):
    """Composite profile in nondimensional variables (x / L0, with t the
    ratio Bt / L0^4), or its d^order/dx^order (term-differentiated): the
    outer expansion to order N plus the wall layer."""
    terms = outer_expansion(spec.N, x, t, m, order=order)
    return _compose(terms, x, t, m, alpha_hat, spec, order)


def _compose(terms: list, x, t: float, m: float, alpha_hat: float,
             spec: ExpansionSpec, order: int = 0):
    """y_0 + sum_r alpha_hat^r y_r + wall correction, from the terms of
    `outer_expansion(spec.N, x, t, m, order=order)`.

    Every sum is out of place: `terms` is left as it was, so terms[0] is
    still the unpassivated profile afterwards.
    """
    y = terms[0]
    for r in range(1, spec.N + 1):
        y = y + alpha_hat ** r * terms[r]
    if alpha_hat > 0:
        y = y + boundary_layer_G(x, t, alpha_hat, m, order=order)
    return y


def mullins_and_composite(x, bt: float, params: ModelParams, spec: ExpansionSpec):
    """(unpassivated, composite) profiles at x [m], from one engine pass: the
    first is the composite's own y_0 times L0, bit for bit a separate
    `mullins_profile` pass, and the second is L0 times `composite_profile_nd`
    at (x / L0, Bt / L0^4)."""
    xh, th = _nd_coords(x, bt, params)
    terms = outer_expansion(spec.N, xh, th, params.m)
    composite = _compose(terms, xh, th, params.m, params.alpha_hat, spec)
    return params.L0 * terms[0], params.L0 * composite


def depth_difference(bt: float, params: ModelParams) -> float:
    """Root elevation of the passivated groove over the unpassivated one [m].

    Four-term closed form; identical to composite(0) - unpassivated(0) at
    N = 2 (the wall correction contributes its full amplitude at x = 0).
    """
    _, th = _nd_coords(0.0, bt, params)
    ah = params.alpha_hat
    m = params.m
    total = 0.0
    for r in (1, 2):
        total += ((-ah) ** r * m * gamma(1.5 * r - 0.25)
                  / (4.0 * math.pi * th ** (0.5 * r - 0.25) * math.factorial(r)))
    total += ah * m / (2.0 * _SQRT2 * th ** 0.25 * _G34)
    total -= ah ** 2 * m * _G74 / (4.0 * math.pi * th ** 0.75)
    return params.L0 * total


def default_window(bt: float) -> float:
    """Default evaluation window 8 (Bt)^(1/4) [m]."""
    return 8.0 * bt ** 0.25


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
    # the rule is made here, not at import: numpy.polynomial is nine modules
    nodes, weights = np.polynomial.legendre.leggauss(_GL_NODES)
    half = 0.5 * np.diff(edges)
    xs = edges[:-1, None] + half[:, None] * (1.0 + nodes)
    ys = _sample(profile, xs.ravel()).reshape(xs.shape)
    return float(half @ (ys @ weights))


def groove_metrics(profile, params: ModelParams | None = None,
                   x_cap: float | None = None, bt: float | None = None,
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
            if bt is None:
                raise ValueError("callable profiles need x_cap or bt")
            x_cap = default_window(bt)
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
