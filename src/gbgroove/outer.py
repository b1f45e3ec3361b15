"""Self-similar groove profiles: the fourth-order (unpassivated) solution
and the higher-order outer corrections of the passivated problem.

Variables are nondimensional: x in units of L0 and t standing for
B t / L0^4, so B enters only through that product.  All shapes are
functions of the similarity variable u = x/t^(1/4) with series argument
z = u^4/256.  Evaluators clamp at u = U_CLAMP and return 0 beyond it;
past that point the profile is buried in cancellation noise.
The evaluators take a float or an array of points (x or u); a float gives
a float back.  The profile and shape evaluators take `order` and return
that derivative, the value at the default 0.
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
    "QuadratureError",
    "basis_f1",
    "basis_f2",
    "mullins_profile",
    "mullins_shape",
    "outer_term",
    "outer_term_shape",
    "yr_quadrature_oracle",
    "mullins_ode_residual",
]

U_CLAMP = 12.0
MAX_ORDER = 8

_SQRT2 = math.sqrt(2.0)
_G12 = gamma(0.5)
_G34 = gamma(0.75)
_G54 = gamma(1.25)

# series parameter blocks reused throughout
_EVEN = ((0.25,), (0.75, 1.25, 1.5))      # multiplies u^2
_CONST = ((-0.25,), (0.25, 0.5, 0.75))    # constant prefactor
_CUBIC = ((0.5,), (1.25, 1.5, 1.75))      # multiplies u^3
_Z_SCALE = 1.0 / 256.0


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested accuracy."""


def _similarity(x, t: float):
    """(u, L) with L = t^(1/4)."""
    if np.any(np.less(x, 0)):
        raise ValueError(f"x must be non-negative, got {x}")
    if not t > 0:
        raise ValueError(f"need t > 0, got t={t}")
    L = t ** 0.25
    return x / L, L


def _shape_deriv(pieces, u, order: int):
    """Sum of c * d^order/du^order [u^p pFq(a; b; u^4/256)] over pieces, at every u."""
    return compensated_sum(
        c * hyp_series(nums, dens, _Z_SCALE, power, 4, u, order).value
        for c, power, (nums, dens) in pieces if c != 0.0)


def _linear_term_deriv(c: float, u, order: int):
    if order == 0:
        return c * u
    if order == 1:
        return c
    return 0.0


_MULLINS_PIECES = (
    (-1.0 / (4.0 * _SQRT2 * _G34), 2, _EVEN),
    (-1.0 / (2.0 * _SQRT2 * _G54), 0, _CONST),
)


def mullins_shape(u, order: int = 0):
    """d^order/du^order of the unpassivated similarity shape Z(u) = y0/(m t^{1/4})."""
    return up_to(U_CLAMP, u, lambda v: _linear_term_deriv(0.5, v, order)
                    + _shape_deriv(_MULLINS_PIECES, v, order))


def basis_f1(x: float, t: float) -> float:
    """First decaying self-similar basis solution of the fourth-order problem."""
    u, L = _similarity(x, t)
    pieces = (
        (-1.0 / (2.0 * _G34), 2, _EVEN),
        (1.0 / (6.0 * _SQRT2 * _G12), 3, _CUBIC),
    )
    return L * up_to(U_CLAMP, u, lambda v: v / _SQRT2 + _shape_deriv(pieces, v, 0))


def basis_f2(x: float, t: float) -> float:
    """Second decaying self-similar basis solution of the fourth-order problem."""
    u, L = _similarity(x, t)
    pieces = (
        (1.0 / _G54, 0, _CONST),
        (1.0 / (6.0 * _SQRT2 * _G12), 3, _CUBIC),
    )
    return L * up_to(U_CLAMP, u, lambda v: -v / _SQRT2 + _shape_deriv(pieces, v, 0))


def mullins_profile(x, t: float, m: float, *, order: int = 0):
    """Unpassivated groove profile y0(x, t), or its d^order/dx^order
    (term-differentiated)."""
    u, L = _similarity(x, t)
    return m * L ** (1 - order) * mullins_shape(u, order)


def outer_term_shape(r: int, u, order: int = 0):
    """d^order/du^order of the order-r correction shape Y_r(u) (per unit m)."""
    if r < 1:
        raise ValueError(f"correction index r must be >= 1, got {r}")
    rf = math.factorial(r)
    # 1.5 r -/+ 0.25 lies in 1/4 + Z/2: never a Gamma pole
    ga = gamma(1.5 * r - 0.25)
    gb = gamma(1.5 * r + 0.25)
    sign = -1.0 if r % 2 else 1.0
    pieces = (
        (sign * ga / (4.0 * math.pi * rf), 0, ((1.5 * r - 0.25,), (0.25, 0.5, 0.75))),
        (-sign * gb / (8.0 * math.pi * rf), 2, ((1.5 * r + 0.25,), (0.75, 1.25, 1.5))),
    )
    return up_to(U_CLAMP, u, lambda v: _shape_deriv(pieces, v, order))


def outer_term(r: int, x, t: float, m: float, *, order: int = 0):
    """Order-r outer correction y_r(x, t), or its d^order/dx^order
    (term-differentiated); enters the expansion as alpha^r y_r."""
    u, L = _similarity(x, t)
    return m * L ** (1 - 2 * r - order) * outer_term_shape(r, u, order)


def yr_quadrature_oracle(r: int, x: float, t: float, m: float,
                         rtol: float = 1e-11) -> float:
    """Order-r correction by direct inverse cosine-transform quadrature.

    Fully independent of the hypergeometric evaluation path: integrates
    (2/pi) * (-t)^r * (m / (2 r!)) * k^{6r-2} e^{-k^4 t} cos(k x)
    over k after rescaling to the similarity variable.
    """
    from scipy.integrate import quad  # deferred: it is most of the package import time

    if r < 1:
        raise ValueError(f"correction index r must be >= 1, got {r}")
    u, L = _similarity(x, t)
    power = 6 * r - 2

    def integrand(kappa):
        return kappa ** power * math.exp(-kappa ** 4) * math.cos(kappa * u)

    # cut where the envelope falls 16 decades below its peak
    peak_k = (power / 4.0) ** 0.25
    peak = peak_k ** power * math.exp(-peak_k ** 4)
    k_max = peak_k
    while k_max ** power * math.exp(-k_max ** 4) > 1e-16 * peak:
        k_max += 0.25
    val, err = quad(integrand, 0.0, k_max, limit=400,
                    epsabs=1e-15 * max(peak, 1.0), epsrel=rtol)
    if not math.isfinite(val) or err > max(1e-13 * peak, 10 * rtol * abs(val)):
        raise QuadratureError(
            f"cosine-transform quadrature for r={r}, u={u:.3g} reported "
            f"error {err:.2e} against value {val:.6e}")
    sign = -1.0 if r % 2 else 1.0
    return sign * m * L ** (1 - 2 * r) / (math.pi * math.factorial(r)) * val


def mullins_ode_residual(u: float, profile=None) -> float:
    """Residual of the similarity ODE Z'''' - (u/4) Z' + Z/4 at u.

    `profile` is a callable profile(u, order) returning the order-th
    derivative of a similarity shape; defaults to the built-in
    unpassivated shape with term-differentiated series derivatives.
    """
    if profile is None:
        profile = mullins_shape
    z0 = profile(u, 0)
    z1 = profile(u, 1)
    z4 = profile(u, 4)
    return z4 - 0.25 * u * z1 + 0.25 * z0
