"""Boundary-layer and corner-layer corrections.

The boundary layer is the strip x = O(sqrt(alpha)) where the sixth-order
term balances the fourth-order one; its correction is a pair of decaying
exponentials whose amplitudes cancel the outer curvature at the wall,
order by order.  The corner layer (x = O(alpha), t = O(alpha^5)) is ruled
by pure sixth-order diffusion, whose similarity solutions are 1F5
combinations assembled through a constant 6x6 matrix.  Variables are
nondimensional, as in `outer`: t (and the corner time tau) stands for
B t / L0^4, so B never enters separately.  The evaluators take a float or
an array of points; a float gives a float back.
`boundary_layer_G` and `corner_fundamental_v` take `order` and return that
derivative, the value at the default 0.  `corner_fundamental_v`,
`corner_solutions_yc` and `corner_solution_diagnostics` take one index or
a sequence of them, which adds a leading axis; the fundamentals behind a
call are summed in one engine pass.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .outer import _G34, _SQRT2
from .specfun import (
    GammaPoleError,
    SeriesError,
    SeriesResult,
    compensated_sum,
    gamma,
    hyp_series,
    reciprocal_gamma,
    up_to,
)

__all__ = [
    "CornerSpec",
    "CORNER_MATRIX",
    "beta2",
    "beta4",
    "boundary_layer_G",
    "corner_fundamental_v",
    "corner_solutions_yc",
    "corner_solution_diagnostics",
    "corner_weights",
    "theorem_coefficients",
    "corner_combination",
    "SIMILARITY_EXPONENT_LIMIT",
]

_SQRT3 = math.sqrt(3.0)
_G74 = gamma(1.75)

SIMILARITY_EXPONENT_LIMIT = -2.0 / 3.0

# row i: similarity solution y_ci; column j: weighted v_j contribution
CORNER_MATRIX = np.array([
    [1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
    [1.0, 0.5, -0.5, -1.0, -0.5, 0.5],
    [0.0, _SQRT3 / 2, _SQRT3 / 2, 0.0, -_SQRT3 / 2, -_SQRT3 / 2],
    [1.0, -1.0, 1.0, -1.0, 1.0, -1.0],
    [1.0, -0.5, -0.5, 1.0, -0.5, -0.5],
    [0.0, _SQRT3 / 2, -_SQRT3 / 2, 0.0, _SQRT3 / 2, -_SQRT3 / 2],
])

_W6_SCALE = -1.0 / 6.0 ** 6


# ---------------------------------------------------------------------------
# boundary layer


def beta2(t: float, m: float) -> float:
    """Order-alpha amplitude; cancels the leading outer curvature at x=0."""
    if not t > 0:
        raise ValueError("need t > 0")
    return m / (2.0 * _SQRT2 * t ** 0.25 * _G34)


def beta4(t: float, m: float) -> float:
    """Order-alpha^2 amplitude; cancels the first-correction curvature at x=0."""
    if not t > 0:
        raise ValueError("need t > 0")
    return -m * _G74 / (4.0 * math.pi * t ** 0.75)


def boundary_layer_G(x, t: float, alpha: float, m: float, *, order: int = 0):
    """Wall correction G = (alpha b2 + alpha^2 b4) exp(-x/sqrt(alpha)), or its
    exact d^order/dx^order."""
    if not (isinstance(order, numbers.Integral) and order >= 0):
        raise ValueError(f"order must be an integer >= 0, got {order!r}")
    if alpha == 0.0:
        return np.zeros(np.shape(x)) if np.ndim(x) else 0.0
    if not 0 < alpha < math.inf:
        raise ValueError(f"alpha must be non-negative and finite, got {alpha}")
    if not math.isfinite(m):
        raise ValueError(f"m must be finite, got {m}")
    if not np.all(np.greater_equal(x, 0)):
        raise ValueError("x must be non-negative, not NaN")
    sign = -1.0 if order % 2 else 1.0
    coeff = sign * alpha ** (-0.5 * order) * (alpha * beta2(t, m) + alpha ** 2 * beta4(t, m))
    # an x / sqrt(alpha) past the float range is inf, past the cut: G is 0 there
    with np.errstate(over="ignore"):
        scaled = np.divide(x, math.sqrt(alpha))
    # exp per point through libm, which numpy's exp may not match
    return up_to(700.0, scaled, lambda xi: coeff * np.fromiter(
        map(math.exp, np.negative(xi).tolist()), float, len(xi)))


# ---------------------------------------------------------------------------
# corner layer


@dataclass(frozen=True)
class CornerSpec:
    """Similarity exponent and amplitude of a corner-layer solution."""

    r: float = -1.0
    gamma: float = 0.0      # amplitude V'(0); physically O(alpha_hat)
    alpha_hat: float = 0.0

    def __post_init__(self):
        if not self.r < SIMILARITY_EXPONENT_LIMIT:
            raise ValueError(
                f"similarity exponent r must be < -2/3 for decay in time, got {self.r}")
        if not 0 <= self.alpha_hat < math.inf:
            raise ValueError(f"alpha_hat must be non-negative and finite, got {self.alpha_hat}")
        if not math.isfinite(self.gamma):
            raise ValueError(f"corner amplitude gamma must be finite, got {self.gamma}")
        if self.alpha_hat > 0 and abs(self.gamma) > 10.0 * self.alpha_hat:
            warnings.warn(
                f"corner amplitude gamma = {self.gamma:.3g} is large compared "
                f"with alpha_hat = {self.alpha_hat:.3g}; the corner layer is "
                "meant to carry an O(alpha_hat) amplitude", UserWarning,
                stacklevel=2)


def _v_params(i: int, r: float):
    if not 1 <= i <= 6:
        raise ValueError(f"fundamental-solution index must be 1..6, got {i}")
    nums = ((i - 1) / 6.0 - r,)
    dens = tuple((i + j) / 6.0 for j in range(6) if (i + j) != 6)
    return nums, dens


def corner_fundamental_v(i, w, r: float, order: int = 0):
    """Fundamental similarity solution v_i(w) = w^(i-1) 1F5(...; -w^6/6^6), or
    its term-differentiated d^order/dw^order.

    `i` is one index or a sequence of them, which adds a leading axis; a
    sequence is summed in one engine pass."""
    if np.any(np.less(w, 0)):
        raise ValueError(f"w must be non-negative, got {np.min(w)}")
    ks = np.atleast_1d(i).tolist()
    params = [_v_params(k, r) for k in ks]
    v = hyp_series([nums for nums, _ in params], [dens for _, dens in params],
                   _W6_SCALE, [k - 1 for k in ks], 6, w, order).value
    return v if np.ndim(i) else v[0]


def corner_weights(r: float) -> np.ndarray:
    """Entries 1/((j-1)! Gamma((7-j)/6 + r)), via the entire reciprocal gamma.

    Gamma poles make a weight vanish rather than raising: the associated
    fundamental solution simply drops out of the similarity set (this is
    what happens at the default r = -1, where the j = 1 weight is zero).
    """
    return np.array([
        reciprocal_gamma((7 - j) / 6.0 + r) / math.factorial(j - 1)
        for j in range(1, 7)
    ])


def corner_solutions_yc(i, zeta, tau: float, spec: CornerSpec):
    """Similarity solution y_ci(zeta, tau) from the 6x6 matrix representation.

    `i` is one index or a sequence of them, which adds a leading axis.
    """
    return corner_solution_diagnostics(i, zeta, tau, spec).value


def corner_solution_diagnostics(i, zeta, tau: float, spec: CornerSpec) -> SeriesResult:
    """y_ci with combination-level cancellation reporting, per point.

    The six weighted fundamentals grow like exp(c w^(6/5)) individually;
    their cancellation, not the series summation, is what limits float64
    past w ~ 22.  Every fundamental the indices use is summed once, all of
    them in one engine pass.
    """
    rows = [i] if np.ndim(i) == 0 else list(i)
    for k in rows:
        if not 1 <= k <= 6:
            raise ValueError(f"solution index must be 1..6, got {k}")
    if not tau > 0:
        raise ValueError("tau must be positive")
    if np.any(np.less(zeta, 0)):
        raise ValueError("zeta must be non-negative")
    w = np.divide(zeta, tau ** (1.0 / 6.0))
    weights = corner_weights(spec.r)
    wij = [[weights[j] * CORNER_MATRIX[k - 1, j] for j in range(6)] for k in rows]
    used = [j for j in range(6) if any(row[j] != 0.0 for row in wij)]
    v = dict(zip(used, corner_fundamental_v([j + 1 for j in used], w, spec.r)))
    pref = tau ** spec.r
    value, max_piece = [], []
    for row in wij:
        pieces = [row[j] * v[j] for j in range(6) if row[j] != 0.0]
        value.append(pref * compensated_sum(pieces))
        max_piece.append(abs(pref) * np.max(np.abs(pieces), axis=0, initial=0.0))
    value, max_piece = (np.array(a) if np.ndim(i) else a[0] for a in (value, max_piece))
    if np.ndim(value) == 0:
        value, max_piece = float(value), float(max_piece)
    return SeriesResult(value=value, terms_used=1, max_term_magnitude=max_piece)


def _gamma_or_pole(x: float, what: str) -> float:
    try:
        return gamma(x)
    except GammaPoleError as exc:
        raise GammaPoleError(f"{what}: Gamma({x}) is a pole") from exc


def _bracket_gammas(r: float) -> tuple[float, float, float]:
    gA = _gamma_or_pole(5.0 / 6.0 + r, "decaying-combination weight")
    gB = _gamma_or_pole(0.5 + r, "decaying-combination weight")
    gC = _gamma_or_pole(1.0 / 6.0 + r, "decaying-combination weight")
    return gA, gB, gC


def theorem_coefficients(Vprime0: float, r: float, alpha_hat: float,
                         tau: float) -> tuple[float, float, float]:
    """Closed-form coefficients (c4, c5, c6) of the decaying combination."""
    if not tau > 0:
        raise ValueError("tau must be positive")
    gA, gB, gC = _bracket_gammas(r)
    A = Vprime0 * gA
    Bt = alpha_hat * tau ** (1.0 / 3.0) * Vprime0 * gB
    C = alpha_hat ** 2 * tau ** (2.0 / 3.0) * Vprime0 * gC
    c4 = -(C + Bt + A) / 3.0
    c5 = -(C - 2.0 * Bt + A) / 3.0
    c6 = -(C - A) / _SQRT3
    return c4, c5, c6


def corner_combination(zeta, tau: float, spec: CornerSpec, yc456=None):
    """Decaying corner-layer solution c4 y_c4 + c5 y_c5 + c6 y_c6.

    `yc456` reuses corner_solutions_yc((4, 5, 6), zeta, tau, spec)
    when the caller already has it.  Raises SeriesError when the
    coefficients or the combination overflow.
    """
    c4, c5, c6 = theorem_coefficients(spec.gamma, spec.r, spec.alpha_hat, tau)
    if not all(map(math.isfinite, (c4, c5, c6))):
        raise SeriesError(f"corner coefficients overflow: (c4, c5, c6) = "
                          f"({c4}, {c5}, {c6}) at alpha_hat = {spec.alpha_hat}")
    if yc456 is None:
        yc456 = corner_solutions_yc((4, 5, 6), zeta, tau, spec)
    y4, y5, y6 = yc456
    with np.errstate(over="ignore", invalid="ignore"):
        combination = c4 * y4 + c5 * y5 + c6 * y6
    if not np.all(np.isfinite(combination)):
        raise SeriesError("corner combination overflows")
    return combination
