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
The upper-half nodes are solved in one batch; the solver's half-line modes
(`oracle`) share the contour (`_upper_contour`) and sum their modes on an
equally spaced window; `_mode_sum` sums them at any points, one exponential
per point, and the tests hold the window's sum to it.

This is a check for the two numerical routes, not a CLI mode.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

__all__ = ["exact_profile"]

# Talbot nodes of both inversions, this module's and the half-line modes'
_NODES = 24


def _contour(n: int, t: float):
    """Talbot nodes s_k and weights s'(theta_k) for n midpoints."""
    theta = -math.pi + (np.arange(n) + 0.5) * (2.0 * math.pi / n)
    a = 0.6407 * theta
    cot = np.cos(a) / np.sin(a)
    s = (n / t) * (0.5017 * theta * cot - 0.6122 + 0.2645j * theta)
    ds = (n / t) * (0.5017 * cot - 0.5017 * a / np.sin(a) ** 2 + 0.2645j)
    return s, ds


def _cubic_roots(s: np.ndarray, alpha: float) -> np.ndarray:
    """Roots q of alpha q^3 - q^2 = s, one row per node of s: (len(s), 3),
    or (len(s), 2) at alpha = 0, where the equation is q^2 = -s.

    Each row is the eigenvalues of the companion matrix `np.roots` builds
    for [alpha, -1, 0, -s] (its leading zero dropped at alpha = 0), all
    rows in one batched call.  The reference's modes are exp(-sqrt(q) x);
    the solver's discrete modes z^i solve z - 2 + 1/z = q dx^2.
    """
    s = np.asarray(s, dtype=complex)
    coeffs = [alpha, -1.0, 0.0] if alpha > 0 else [-1.0, 0.0]
    p = np.empty((len(s), len(coeffs) + 1), dtype=complex)
    p[:, :-1] = coeffs
    p[:, -1] = -s
    deg = p.shape[1] - 1
    companion = np.zeros((len(s), deg, deg), dtype=complex)
    companion[:, 1:, :-1] = np.eye(deg - 1)
    companion[:, 0, :] = -p[:, 1:] / p[:, :1]
    return np.linalg.eigvals(companion)


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


def _upper_contour(t: float, m: float, alpha_hat: float, nodes: int = _NODES):
    """Check t, m, alpha_hat and nodes; return the upper half of the Talbot
    nodes s and their weights exp(s t) s'(theta) 2/(i nodes): the problem is
    real, so twice the real part of their sum is the whole (even) contour's.
    Float64 carries the transform for t in [1e-100, 1e100], |m| <= 1e100
    and alpha_hat / sqrt(t) 0 or in [1e-16, 1e16].  Past them systems went
    singular (t = 1e300 or 5e-324, alpha_hat = 5e-324) or overflowed (m =
    1e308: the solution is linear in m); below 1e-16 the sixth-order term
    moves the profile by less than roundoff (0.55 alpha_hat / sqrt(t) of
    depth) while the cubic's small roots lose their digits."""
    if not 1e-100 <= t <= 1e100:
        raise ValueError(f"t must lie in [1e-100, 1e100], got {t}")
    if not abs(m) <= 1e100:
        raise ValueError(f"m must lie in [-1e100, 1e100], got {m}")
    if not (alpha_hat == 0 or 1e-16 <= alpha_hat / math.sqrt(t) <= 1e16):
        raise ValueError(f"alpha_hat must be 0, or alpha_hat / sqrt(t) lie in [1e-16, 1e16]; "
                         f"got alpha_hat = {alpha_hat} at t = {t}")
    if not (isinstance(nodes, numbers.Integral) and nodes >= 2 and nodes % 2 == 0):
        raise ValueError(f"nodes must be an even integer >= 2, got {nodes!r}")
    s, ds = _contour(nodes, t)
    s, ds = s[nodes // 2:], ds[nodes // 2:]
    return s, np.exp(s * t) * ds * (2.0 / (1j * nodes))


def _mode_sum(u: np.ndarray, rate: np.ndarray, weight: np.ndarray, c: np.ndarray):
    """Real part of sum_k exp(u rate_k) @ (weight c_k): the inversion of the
    modes exp(u rate_k), rate and c (nodes, k), at the points u."""
    total = np.zeros(u.shape, dtype=complex)
    powers = np.empty((len(u), len(weight)), dtype=complex)
    for k in range(c.shape[1]):
        np.multiply.outer(u, rate[:, k], out=powers)
        total += np.exp(powers, out=powers) @ (weight * c[:, k])
    return total.real


def exact_profile(x, t: float, m: float, alpha_hat: float,
                  L: float = math.inf, nodes: int = _NODES) -> np.ndarray:
    """Height y(x, t) of the linear problem from a flat start, exactly up to
    the inversion error.  At the default 24 nodes it meets 48 nodes to 1e-12
    of depth (5e-13 measured) for alpha_hat / sqrt(t) 0 or in [1e-2, 1e16]
    on the half-line, and in [1e-2, 1e3] on the box L = 8 t^(1/4).
    Elsewhere the gap grows (t = 1, 257 points on [0, 8]): below 1e-2 to
    2.4e-10 on the half-line and 1.5e-7 on that box, both near 1e-12, as
    the cubic's companion eigenvalues carry an absolute error of about
    eps / alpha_hat; on the box past 1e3 to 1.2e-9 at 1e8 and 5.6e-4 at
    1e16, as its systems grow ill-conditioned once the wall layer
    sqrt(alpha_hat) outgrows L (a shorter box loses more).

    `L = inf` is the half-line; a finite `L` in (0, 1e100] is the box
    [0, L] with the solver's far-field conditions.  Every `x` must lie in
    [0, L] and at most 1e100, `nodes` be even, and `t`, `m` and
    `alpha_hat` as `_upper_contour` states: past 1e100, x and L times a
    mode's rate (up to about 1e51) leave float64.
    """
    s, weight = _upper_contour(t, m, alpha_hat, nodes)
    if not (0 < L <= 1e100 or L == math.inf):
        raise ValueError(f"L must be inf or lie in (0, 1e100], got {L}")
    xs = np.asarray(x, dtype=float)
    # the basis functions are bounded on [0, L] only: outside it they grow
    # without bound
    if not np.all((xs >= 0) & (xs <= min(L, 1e100))):
        raise ValueError(f"x must lie in [0, L] = [0, {L}] and at most 1e100")
    kappa = np.sqrt(_cubic_roots(s, alpha_hat))
    k = kappa.shape[1]
    if math.isinf(L):
        system = np.moveaxis(_rows(-kappa, alpha_hat, far=False), 0, 1)
    else:
        # columns: the decaying modes, then the growing ones written
        # exp(-kappa (L - x)); rows: the wall's, then the far field's
        p, edge, one = np.hstack([-kappa, kappa]), np.exp(-kappa * L), np.ones_like(kappa)
        system = np.concatenate([
            np.moveaxis(_rows(p, alpha_hat, far=False), 0, 1) * np.hstack([one, edge])[:, None],
            np.moveaxis(_rows(p, alpha_hat, far=True), 0, 1) * np.hstack([edge, one])[:, None],
        ], axis=1)
    rhs = np.zeros(system.shape[:2], dtype=complex)
    rhs[:, 0] = m / (2.0 * s)
    c = np.linalg.solve(system, rhs[..., None])[..., 0]
    y = _mode_sum(xs.ravel(), -kappa, weight, c[:, :k])
    if not math.isinf(L):
        y += _mode_sum(L - xs.ravel(), -kappa, weight, c[:, k:])
    return y.reshape(xs.shape)
