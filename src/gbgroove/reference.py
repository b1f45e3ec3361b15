"""Exact solution of the linear groove problem by numerical Laplace inversion.

The nondimensional equation y_t = alpha y_xxxxxx - y_xxxx starts from a flat
surface, so its Laplace transform in t is a constant-coefficient ODE in x:
s Y = alpha Y'''''' - Y''''.  Its modes are exp(-kappa x) with q = kappa^2 a
root of alpha q^3 - q^2 - s = 0 (q^2 = -s at alpha = 0); the principal
square root of each q gives the three (two at alpha = 0) modes that decay
into the solid.

The wall conditions are the solver's: y_x - alpha y_xxx = m/2 (transform
m/(2s)), y_xx = 0 when alpha > 0, and zero flux y_xxx - alpha y_xxxxx = 0.
On the half-line the decaying modes alone satisfy them.  On the box [0, L]
the growing modes are written exp(-kappa (L - x)), so every basis function
is at most 1 on the box, and the far rows are the solver's: y = 0, y_x = 0
when alpha > 0, and zero flux.

The transform is inverted on the fixed Talbot contour of Weideman &
Trefethen (Math. Comp. 76, 2007):
    s(theta) = (N/t) (0.5017 theta cot(0.6407 theta) - 0.6122 + 0.2645 i theta)
with the midpoint rule at N nodes in (-pi, pi); the error falls like
exp(-1.36 N) until roundoff, amplified by about exp(0.17 N), takes over.
Mullins (J. Appl. Phys. 28, 1957) solved the alpha = 0 problem the same way.

This is a check for the two numerical routes, not a CLI mode.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["exact_profile"]


def _contour(n: int, t: float):
    """Talbot nodes s_k and weights s'(theta_k) for n midpoints."""
    theta = -math.pi + (np.arange(n) + 0.5) * (2.0 * math.pi / n)
    a = 0.6407 * theta
    cot = np.cos(a) / np.sin(a)
    s = (n / t) * (0.5017 * theta * cot - 0.6122 + 0.2645j * theta)
    ds = (n / t) * (0.5017 * cot - 0.5017 * a / np.sin(a) ** 2 + 0.2645j)
    return s, ds


def _rows(p: np.ndarray, alpha: float, far: bool) -> np.ndarray:
    """Condition rows for modes whose x-derivative multiplies them by p.

    Wall: slope-bending, curvature (alpha > 0), flux.  Far: value, slope
    (alpha > 0), flux.
    """
    slope = p - alpha * p ** 3
    flux = p ** 3 - alpha * p ** 5
    first = np.ones_like(p) if far else slope
    if alpha > 0:
        middle = p if far else p ** 2
        return np.stack([first, middle, flux])
    return np.stack([first, flux])


def _transform(x: np.ndarray, s: complex, m: float, alpha: float,
               L: float) -> np.ndarray:
    """Y(x, s) for one contour node."""
    kappa = np.sqrt(np.roots([alpha, -1.0, 0.0, -s]))   # leading 0 dropped
    rhs = np.zeros(len(kappa) * (1 if math.isinf(L) else 2), dtype=complex)
    rhs[0] = m / (2.0 * s)
    if math.isinf(L):
        c = np.linalg.solve(_rows(-kappa, alpha, far=False), rhs)
        return np.exp(-np.outer(x, kappa)) @ c
    edge = np.exp(-kappa * L)
    system = np.block([
        [_rows(-kappa, alpha, far=False), _rows(kappa, alpha, far=False) * edge],
        [_rows(-kappa, alpha, far=True) * edge, _rows(kappa, alpha, far=True)],
    ])
    cd = np.linalg.solve(system, rhs)
    k = len(kappa)
    return (np.exp(-np.outer(x, kappa)) @ cd[:k]
            + np.exp(-np.outer(L - x, kappa)) @ cd[k:])


def exact_profile(x, t: float, m: float, alpha_hat: float,
                  L: float = math.inf, nodes: int = 24) -> np.ndarray:
    """Height y(x, t) of the linear problem from a flat start, exactly up to
    the inversion error (about 1e-13 of depth at the default 24 nodes).

    `L = inf` is the half-line; a finite `L` is the box [0, L] with the
    solver's far-field conditions.
    """
    if not t > 0:
        raise ValueError(f"t must be positive, got {t}")
    if not alpha_hat >= 0:
        raise ValueError(f"alpha_hat must be non-negative, got {alpha_hat}")
    if not L > 0:
        raise ValueError(f"L must be positive, got {L}")
    xs = np.asarray(x, dtype=float)
    s, ds = _contour(nodes, t)
    total = np.zeros(xs.shape, dtype=complex)
    for sk, dsk in zip(s, ds):
        total += np.exp(sk * t) * dsk * _transform(xs.ravel(), sk, m, alpha_hat,
                                                   L).reshape(xs.shape)
    return (total / (1j * nodes)).real
