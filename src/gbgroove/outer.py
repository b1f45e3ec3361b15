"""Self-similar groove profiles: the fourth-order (unpassivated) solution
and the higher-order outer corrections of the passivated problem.

Variables are nondimensional: x in units of L0 and t standing for
B t / L0^4, so B enters only through that product.  All shapes are
functions of the similarity variable u = x/t^(1/4) with series argument
z = u^4/256.  Evaluators clamp at u = U_CLAMP and return 0 beyond it;
past that point the profile is buried in cancellation noise.
`outer_expansion` gives the terms y_0, ..., y_N of the expansion together,
as a list over r, at a float or an array of points x (a float gives floats
back): all their series go through one engine pass.  It takes `order` and
returns that derivative, the value at the default 0.  `Z0` is the
unpassivated shape at the root, in closed form.
"""

from __future__ import annotations

import math

import numpy as np

from .specfun import (
    compensated_sum,
    gamma,
    hyp_series,
    up_to,
)

__all__ = [
    "U_CLAMP",
    "outer_expansion",
]

U_CLAMP = 12.0
MAX_ORDER = 8

_SQRT2 = math.sqrt(2.0)
_G34 = gamma(0.75)
_G54 = gamma(1.25)

# series parameter blocks reused throughout
_EVEN = ((0.25,), (0.75, 1.25, 1.5))      # multiplies u^2
_CONST = ((-0.25,), (0.25, 0.5, 0.75))    # constant prefactor
_Z_SCALE = 1.0 / 256.0


def _similarity(x, t: float):
    """(u, L) with L = t^(1/4)."""
    if np.any(np.less(x, 0)):
        raise ValueError(f"x must be non-negative, got {x}")
    if not 0 < t < math.inf:
        raise ValueError(f"need 0 < t < inf, got t={t}")
    L = t ** 0.25
    return x / L, L


def _shape_derivs(shapes, u, order: int) -> list:
    """For each shape, given as its pieces (c, p, (a, b)), the sum of
    c * d^order/du^order [u^p pFq(a; b; u^4/256)] over its pieces, at every
    u: one engine pass, one parameter row per piece."""
    owner, cs, powers, nums, dens = zip(*(
        (k, c, power, a, b) for k, pieces in enumerate(shapes)
        for c, power, (a, b) in pieces if c != 0.0))
    values = hyp_series(nums, dens, _Z_SCALE, powers, 4, u, order).value
    return [compensated_sum(c * v for k, c, v in zip(owner, cs, values) if k == shape)
            for shape in range(len(shapes))]


def _linear_term_deriv(c: float, u, order: int):
    if order == 0:
        return c * u
    if order == 1:
        return c
    return 0.0


# Z(0), the unpassivated shape at the root: the u^2 piece and the linear
# term vanish there and the constant piece's series is 1
Z0 = -1.0 / (2.0 * _SQRT2 * _G54)
_MULLINS_PIECES = (
    (-1.0 / (4.0 * _SQRT2 * _G34), 2, _EVEN),
    (Z0, 0, _CONST),
)


def _term_pieces(r: int):
    """Series pieces (c, p, (a, b)) of the shape of y_r: the correction Y_r
    for r >= 1, the unpassivated Z less its linear term u/2 for r = 0."""
    if r == 0:
        return _MULLINS_PIECES
    rf = math.factorial(r)
    # 1.5 r -/+ 0.25 lies in 1/4 + Z/2: never a Gamma pole
    ga = gamma(1.5 * r - 0.25)
    gb = gamma(1.5 * r + 0.25)
    sign = -1.0 if r % 2 else 1.0
    return (
        (sign * ga / (4.0 * math.pi * rf), 0, ((1.5 * r - 0.25,), (0.25, 0.5, 0.75))),
        (-sign * gb / (8.0 * math.pi * rf), 2, ((1.5 * r + 0.25,), (0.75, 1.25, 1.5))),
    )


def _term_shapes(rs, u, order: int) -> list:
    """d^order/du^order of the shape of y_r (Z for r = 0, else Y_r), for
    each r in rs, at every u: one engine pass."""
    sums = _shape_derivs([_term_pieces(r) for r in rs], u, order)
    return [_linear_term_deriv(0.5, u, order) + s if r == 0 else s for r, s in zip(rs, sums)]


def outer_expansion(N: int, x, t: float, m: float, *, order: int = 0) -> list:
    """The outer expansion's terms [y_0, y_1, ..., y_N](x, t), or their
    d^order/dx^order: y_0 = m t^(1/4) Z(u) and y_r = m t^((1-2r)/4) Y_r(u),
    each bit for bit the term evaluated alone, and all their series are
    summed in one engine pass."""
    if N < 0:
        raise ValueError(f"expansion order N must be >= 0, got {N}")
    if not math.isfinite(m):
        raise ValueError(f"m must be finite, got {m}")
    u, L = _similarity(x, t)
    shapes = up_to(U_CLAMP, u, lambda v: _term_shapes(range(N + 1), v, order))
    return [m * L ** (1 - 2 * r - order) * shape for r, shape in enumerate(shapes)]


