"""Uniform composite profile and root-depth difference.

The composite is outer expansion + wall correction, evaluated in
nondimensional variables (x in units of L0 = (Bt)^(1/4), t standing for
Bt / L0^4) and dimensionalized at the interface.  The dimensional functions
take time as the product Bt [m^4].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .layers import _G34, _G74, _SQRT2, boundary_layer_G
from .material import ModelParams
from .outer import outer_expansion
from .specfun import gamma, libm_pow

__all__ = [
    "ExpansionSpec",
    "composite_profile_nd",
    "mullins_and_composite",
    "depth_difference",
]

_GR = {r: gamma(1.5 * r - 0.25) for r in (1, 2)}     # of the outer terms y_1 and y_2


@dataclass(frozen=True)
class ExpansionSpec:
    """What goes into the composite: the outer order N."""

    N: int = 2

    def __post_init__(self):
        if self.N < 0:
            raise ValueError("N must be >= 0")


def _nd_coords(x: float, bt, params: ModelParams):
    """Map dimensional (x [m], Bt [m^4]) to (x_hat, t_hat); Bt and L0 may be arrays."""
    if not np.all(np.greater(bt, 0)):
        raise ValueError("Bt must be positive")
    L0 = params.L0
    return x / L0, bt / libm_pow(L0, 4)


def composite_profile_nd(x, t: float, m: float, alpha_hat: float,
                         spec: ExpansionSpec, order: int = 0):
    """Composite profile in nondimensional variables (x / L0, with t the
    ratio Bt / L0^4), or its d^order/dx^order (term-differentiated): the
    outer expansion to order N plus the wall layer."""
    if not 0 <= alpha_hat < math.inf:
        raise ValueError(f"alpha_hat must be non-negative and finite, got {alpha_hat}")
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
    first is the composite's own y_0 times L0, bit for bit the unpassivated
    profile evaluated alone, and the second is L0 times `composite_profile_nd`
    at (x / L0, Bt / L0^4)."""
    xh, th = _nd_coords(x, bt, params)
    terms = outer_expansion(spec.N, xh, th, params.m)
    composite = _compose(terms, xh, th, params.m, params.alpha_hat, spec)
    return params.L0 * terms[0], params.L0 * composite


def depth_difference(bt, params: ModelParams):
    """Root elevation of the passivated groove over the unpassivated one [m].

    Four-term closed form; identical to composite(0) - unpassivated(0) at
    N = 2 (the wall correction contributes its full amplitude at x = 0).
    Bt may be a 1-d array, with `params` a record of m, and of L0 and
    alpha_hat at each Bt: powers go through libm per element, so each
    element is the float call's value bit for bit.
    """
    _, th = _nd_coords(0.0, bt, params)
    ah = params.alpha_hat
    m = params.m
    q = {r: libm_pow(th, 0.5 * r - 0.25) for r in (1, 2)}      # th^(1/4), th^(3/4)
    total = 0.0
    for r in (1, 2):
        total += libm_pow(-ah, r) * m * _GR[r] / (4.0 * math.pi * q[r] * math.factorial(r))
    total += ah * m / (2.0 * _SQRT2 * q[1] * _G34)
    total -= libm_pow(ah, 2) * m * _G74 / (4.0 * math.pi * q[2])
    return params.L0 * total
