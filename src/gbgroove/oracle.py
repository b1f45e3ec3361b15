"""Implicit finite-difference solver for the sixth-order groove equation.

Independent of the series machinery: discretizes y_t = alpha y_xxxxxx -
y_xxxx (nondimensional) on a uniform grid with the wall conditions
(slope-bending, zero flux, zero curvature) and a clamped far field, and
marches it from a perfectly flat start to one time, t_final: backward
Euler over a short dyadic ramp, then variable-step BDF2 on a plateau of
multiples of dt, the whole schedule built as a list of step lengths
(`time_steps`).  Both are L-stable, so the stiff 1/dx^6 modes that the
incompatible flat start excites are damped, not carried along.

Wall and far-field flux rows are imposed in integral (mass-balance) form:
the semi-discrete system then conserves the trapezoidal mass identically,
which is the discrete shadow of matter conservation.

The interior operator is kept as its one stencil, alpha_hat*D6 - D4, and
applied by correlation.  The equation is linear with constant
coefficients, so the backward-Euler system of a step h is that stencil
plus one edge block: interior rows I - h (alpha_hat D6 - D4), and the few
wall and far-field rows C_E + W_E/h, assembled once, with the bandwidths
read off them.  The interior rows and columns of a system are a section of
a symmetric Toeplitz band whose symbol is at least 1, so that block is
symmetric positive definite: LAPACK's banded Cholesky (dpbtrf, lower
storage) factors it without pivoting, and the factor is kept as L~ D L~^T,
a unit-diagonal band factor in upper storage and the squared pivots D.  The
few wall and far-field unknowns are eliminated through their Schur
complement, solved once per system.  `solve` marches in three height
buffers that rotate, the last two solutions and a spare: each step writes
its start value into the spare, and `advance` solves in it in place, with
one in-place solve of the interior (two unit-diagonal dtbsv sweeps and one
division by the squared pivots), one gather of the edge and near-edge nodes
and a small product for the edge unknowns, and one product (dgemv) that
writes the edge values and corrects the interior by them in place.  No step
allocates a height array, and finiteness is checked once per run of equal
steps.  The last step's factors are kept, so a run of equal steps factors
once.

The same semi-discrete equations are also solved exactly in time on the
half-line, x >= 0 (`halfline_profile`, at the spacing `halfline_dx`); the
CLI's ``oracle`` and ``compare`` modes print that column.  In the Laplace
domain the interior rows have constant coefficients, so from a flat start the
heights are a combination of the stencil's lo decaying discrete modes z^i,
and the lo wall rows fix it at each node of the reference's Talbot contour:
no box, no far-field row, no time step and no SciPy.  It is the
Laplace-domain form of a discrete transparent boundary condition (Arnold,
VLSI Design 6, 1998; Ehrhardt & Arnold, Riv. Mat. Univ. Parma, 2001).  The
march stays as the check on it that inverts no transform.  The column is
asked for on an equally spaced window, np.linspace(0, xmax, n), so its modes
are summed there by a block split of the point index, j = a B + b with B
about sqrt(n): one complex matrix product of ceil(n/B) block powers and B
offset powers, ceil(n/B) + B exponentials per mode and contour node where
one exponential per point took n.

SciPy's BLAS and LAPACK wrappers are imported where a system is factored,
not at module level, so the CLI, which never marches, and the half-line
modes never load SciPy.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .reference import _cubic_roots, _upper_contour

__all__ = [
    "ConfigError",
    "DivergenceError",
    "Grid",
    "SolverConfig",
    "Profile",
    "fd_weights",
    "assemble_operator",
    "GrooveOperator",
    "solve",
    "time_steps",
    "mass",
    "halfline_dx",
    "halfline_profile",
]

MIN_NODES = 64
# float64 roundoff in forming each step system follows the step matrix's
# largest entry, about h * alpha_hat / dx^6 for a step h: summed with it,
# the identity's 1 takes a rounding error of eps times it.  So dx and alpha_hat
# set the loss, not the node count.  At alpha_hat 0.05 / 0.307 / 0.56 and
# dt 1/64, the sup error against the exact box solution on L = 8 is
# 3.2e-5 / 6.3e-5 / 8.3e-5 of depth at dx 1/64 (nx 513), 1.9e-4 / 3.1e-4 /
# 5.6e-4 at dx 1/128 (nx 1025) and 0.8-3.7% at dx 1/256 (nx 2049).  On
# L = 16, nx 1025 keeps dx 1/64 and the nx 513 errors; at alpha_hat 0.01 the
# entry is 30x smaller and nx 1025 on L = 8 is clean (2.5e-5).  Capping nx
# bounds dx only on a given box: on L = 8 this cap admits dx 1/256 and its
# percent-level error, which a cap on the entry itself would refuse.
MAX_NODES = 2049
# step budget: a t_final/dt far above it (dt = 1e-9 takes ~1e9 steps)
# marches for hours with no exit
MAX_STEPS = 65536
BC_ORDER = 3        # accuracy order of the one-sided wall and far-field stencils
RAMP_STAGES = 9     # dyadic step sizes dt/2^8 .. dt at the start of a run
RAMP_STEPS = 2      # backward-Euler steps taken at each ramp stage
# the plateau step is at most t_final / LATTICE_STEPS, so a short solve still
# ends on a run of full BDF2 steps: at t_final 1e-2 and dt 1/64 (nx 513, L 8)
# the cap t_final/4 that RAMP_STEPS alone gave missed the exact box solution
# by 2e-2 of depth, and this cap by 3-5e-4
LATTICE_STEPS = 32


class ConfigError(ValueError):
    """Inconsistent grid or solver configuration."""


class DivergenceError(RuntimeError):
    """Time integration produced non-finite values, or a time-step system
    could not be factored: an interior block that is not positive definite
    or an exactly singular edge system."""


def fd_weights(nodes, x0: float, order: int) -> np.ndarray:
    """Finite-difference weights for the order-th derivative at x0 (Fornberg)."""
    xs = np.asarray(nodes, dtype=float)
    n = len(xs)
    if order >= n:
        raise ValueError("need more nodes than the derivative order")
    d = np.zeros((order + 1, n, n))
    d[0, 0, 0] = 1.0
    c1 = 1.0
    for nn in range(1, n):
        c2 = 1.0
        for v in range(nn):
            c3 = xs[nn] - xs[v]
            c2 *= c3
            for k in range(min(nn, order) + 1):
                d[k, nn, v] = ((xs[nn] - x0) * d[k, nn - 1, v]
                               - k * d[k - 1, nn - 1, v]) / c3
        for k in range(min(nn, order) + 1):
            d[k, nn, nn] = c1 / c2 * (k * d[k - 1, nn - 1, nn - 1]
                                      - (xs[nn - 1] - x0) * d[k, nn - 1, nn - 1])
        c1 = c2
    return d[order, n - 1, :]


def _factor(ab: np.ndarray):
    """Cholesky factors of the symmetric positive definite band matrix whose
    lower LAPACK band storage is ab, and a function that solves with them in
    place.

    ab is (kd + 1, m): A[j + d, j] at ab[d, j].  A matrix that is not
    positive definite raises DivergenceError.  dpbtrf's factor L is kept as
    A = L~ D L~^T, with L~ = L diag(1/l_jj) unit lower triangular and D the
    squared pivots l_jj^2, so the solve is two unit-diagonal dtbsv sweeps
    and one division by the squared pivots: no sweep divides, so no row of
    a sweep waits on a division.  L~ is kept transposed, in upper band
    storage: L~[j, j - d] at up[kd - d, j].
    """
    from scipy.linalg.blas import dtbsv
    from scipy.linalg.lapack import dpbtrf
    c, info = dpbtrf(ab, lower=1, overwrite_ab=True)
    if info < 0:
        raise RuntimeError(f"dpbtrf rejected argument {-info}")
    if info > 0:
        raise DivergenceError("time-step interior block not positive definite: "
                              f"leading minor of order {info}")
    kd, m = c.shape[0] - 1, c.shape[1]
    d2 = c[0] ** 2
    unit = c / c[0]
    up = np.zeros_like(c, order="F")
    for d in range(kd + 1):
        up[kd - d, d:] = unit[d, :m - d]

    def solve(b: np.ndarray) -> np.ndarray:
        """Overwrite b (m, or m x k column by column) with A^-1 b and return
        it."""
        for col in (b.T if b.ndim == 2 else (b,)):
            # positional, as keywords cost f2py a parse per call: incx 1,
            # offx 0, upper storage, trans (L~ y = col, then L~^T x = y / D),
            # unit diagonal, overwrite_x
            x = dtbsv(kd, up, col, 1, 0, 0, 1, 1, 1)
            np.divide(x, d2, out=x)
            x = dtbsv(kd, up, x, 1, 0, 0, 0, 1, 1)
            if x is not col:    # f2py copied col (a strided view): keep its result
                col[...] = x
        return b

    return solve


@functools.cache
def _unit_one_sided(order: int) -> np.ndarray:
    """`_one_sided` at unit spacing, computed once per order (read-only)."""
    w = fd_weights(np.arange(float(order + BC_ORDER)), 0.0, order)
    w.flags.writeable = False
    return w


def _one_sided(order: int, dx: float) -> np.ndarray:
    """Weights for the order-th derivative at the first of order + BC_ORDER
    grid nodes: the solver's wall rows."""
    return _unit_one_sided(order) / dx ** order


@dataclass(frozen=True)
class Grid:
    """Uniform nodes on [0, L]."""

    L: float
    nx: int

    def __post_init__(self):
        if self.nx < MIN_NODES:
            raise ConfigError(f"need nx >= {MIN_NODES}, got {self.nx}")
        # the stencil divides by dx^6, which float64 carries in [1e-300, 1e300]
        if not 1e-50 <= self.dx <= 1e50:
            raise ConfigError(f"need L > 0 and dx = L/(nx - 1) in [1e-50, 1e50], got "
                              f"L = {self.L}")

    @property
    def dx(self) -> float:
        return self.L / (self.nx - 1)

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.L, self.nx)


@dataclass(frozen=True)
class SolverConfig:
    """Everything one marching run needs (nondimensional throughout)."""

    grid: Grid
    # plateau time step, capped at t_final / LATTICE_STEPS; early steps ramp up
    # to it.  Each step length is one system: the stencil plus one edge block
    dt: float
    t_final: float
    alpha_hat: float
    m: float

    def __post_init__(self):
        if not 0 < self.dt < math.inf:
            raise ConfigError("dt must be positive and finite")
        # as for the exact reference's t; the plateau step, at least
        # t_final / MAX_STEPS, then stays a normal float
        if not 1e-100 <= self.t_final <= 1e100:
            raise ConfigError(f"t_final must lie in [1e-100, 1e100], got {self.t_final}")
        # past it the stencil's alpha_hat / dx^6 overflows; the exact
        # reference stops there too
        if not 0 <= self.alpha_hat <= 1e16 * math.sqrt(self.t_final):
            raise ConfigError("alpha_hat must lie in [0, 1e16 sqrt(t_final)], got "
                              f"{self.alpha_hat} at t_final = {self.t_final}")
        # the solution is linear in m: past the exact reference's bound a
        # march overflows
        if not abs(self.m) <= 1e100:
            raise ConfigError(f"m must lie in [-1e100, 1e100], got {self.m}")
        if self.grid.nx > MAX_NODES:
            raise ConfigError(
                f"need nx <= {MAX_NODES}, got {self.grid.nx}: float64 roundoff in forming "
                "each step grows with the step matrix's largest entry, about "
                f"dt * alpha_hat / dx^6, here with dx = {self.grid.dx:.4g} and "
                f"alpha_hat = {self.alpha_hat:.4g}")
        if self.t_final / self.dt > MAX_STEPS:
            raise ConfigError(f"need t_final/dt <= {MAX_STEPS}, got "
                              f"{self.t_final / self.dt:.4g} steps")
        if self.alpha_hat > 0 and self.grid.dx > _wall_layer_dx(self.alpha_hat) * (1.0 + 1e-12):
            raise ConfigError(
                f"dx = {self.grid.dx:.4g} does not resolve the wall layer; "
                f"need dx <= sqrt(alpha_hat)/4 = {_wall_layer_dx(self.alpha_hat):.4g}")
        if self.grid.L < 8.0 * self.t_final ** 0.25 * (1.0 - 1e-12):
            raise ConfigError(
                f"domain L = {self.grid.L:.4g} shorter than 8 t_final^(1/4) "
                f"= {8*self.t_final**0.25:.4g}")


@dataclass(frozen=True)
class Profile:
    """Grid samples of the surface at one time."""

    heights: np.ndarray
    time: float
    grid: Grid

    def __post_init__(self):
        h = np.asarray(self.heights, dtype=float)
        if h.shape != (self.grid.nx,):
            raise ConfigError("heights must match the grid")
        if not np.all(np.isfinite(h)):
            raise DivergenceError(f"non-finite heights at t = {self.time}")
        object.__setattr__(self, "heights", h)


def _edge_block(n: int, dx: float, alpha_hat: float, m: float):
    """The interior stencil and the edge block of n nodes at spacing dx:
    (stencil, C_E, W_E, bc).

    The stencil is alpha_hat*D6 - D4 (-D4 when alpha_hat = 0), of half-width
    lo = 3 (2).  Row r of C_E y + W_E y_t = bc[r] is grid row r for r < lo
    (the wall rows) and n - 2 lo + r after (the far rows): the backward-Euler
    step of length h takes C_E + W_E/h, and the Laplace transform from a
    flat start C_E + s W_E, with right-hand side bc/s.  The sixth-order
    problem adds zero wall curvature and zero far slope; at alpha_hat = 0
    the balance rows take rows 1 and n - 2 instead.
    """
    ah = alpha_hat
    lo = 3 if ah > 0 else 2
    hi = n - 1 - lo
    d4 = np.array([1.0, -4.0, 6.0, -4.0, 1.0]) / dx ** 4
    if ah > 0:
        stencil = ah * (np.array([1.0, -6.0, 15.0, -20.0, 15.0, -6.0, 1.0]) / dx ** 6)
        stencil[1:6] -= d4
    else:
        stencil = -d4
    k = 2 * lo
    C_E, W_E = np.zeros((2, k, n))
    bc = np.r_[m / 2.0, np.zeros(k - 1)]
    w1 = _one_sided(1, dx)
    # wall slope-bending: y_x - alpha_hat y_xxx = m/2, the first entry of bc
    C_E[0, :len(w1)] = w1
    if ah > 0:
        w3 = _one_sided(3, dx)
        C_E[0, :len(w3)] -= ah * w3
        w2 = _one_sided(2, dx)
        # wall curvature: y_xx = 0
        C_E[1, :len(w2)] = w2
        # far slope: y_x = 0
        C_E[k - 2, n - len(w1):] = -w1[::-1]
    # far value: y = 0
    C_E[k - 1, n - 1] = 1.0
    # mass-balance rows take the place of the flux rows: the edge nodes'
    # trapezoid weights (W_E) plus the telescoped flux S, dx times the sum
    # of the first / last eight interior rows
    w = dx * stencil
    for i in range(8):
        # wall balance, grid row lo - 1
        C_E[lo - 1, i:i + k + 1] += w
        # far balance, grid row n - lo
        C_E[lo, hi - 7 + i - lo:hi - 6 + i + lo] += w
    C_E[lo - 1, lo + 3:] = C_E[lo, :hi - 2] = 0.0
    W_E[lo - 1, :lo] = W_E[lo, hi + 1:] = dx
    W_E[lo - 1, 0] = W_E[lo, n - 1] = dx / 2.0
    return stencil, C_E, W_E, bc


class GrooveOperator:
    """Interior stencil plus one edge block for one configuration.

    The interior operator is one stencil, ``alpha_hat*D6 - D4`` (``-D4``
    when alpha_hat = 0), on rows interior_lo..interior_hi.  The equation is
    linear with constant coefficients, so the backward-Euler system for a
    step h is the stencil, as interior rows I - h*stencil, plus one edge
    block: the 2 interior_lo rows ``C_E + W_E/h = bc`` of the grid rows
    `_edge`, built once.  They are the wall and far-field conditions (constant rows) and
    the two mass-balance rows (trapezoid weights W_E/h plus the telescoped
    flux S), kept on the columns they reach (`_edge_C`, `_edge_W`), and the
    bandwidths kl and ku are read off them.  A system's interior block, A_II
    on rows and columns interior_lo .. interior_hi, is symmetric positive
    definite and factored by `_factor` (banded Cholesky, kept as a
    unit-diagonal factor and the squared pivots, so its solve is two
    unit-diagonal dtbsv sweeps and one division by the squared pivots).
    Its edge rows, each scaled by its largest entry, are solved through
    their Schur complement, which leaves one edge matrix H acting on one
    gather of the edge and near-edge nodes.  `advance` solves the interior
    in place in a given buffer (or a copy of its input), gathers once, and
    writes the edge and corrects the interior with one product.  The last
    system and its factors are kept.
    """

    def __init__(self, config: SolverConfig):
        self.config = config
        n = config.grid.nx
        dx = config.grid.dx
        self.n = n
        self.dx = dx
        stencil, C_E, W_E, self.bc = _edge_block(n, dx, config.alpha_hat, config.m)
        self.stencil = stencil
        lo = self.interior_lo = len(stencil) // 2
        hi = self.interior_hi = n - 1 - lo
        k = 2 * lo
        self._edge = np.r_[0:lo, hi + 1:n]
        # kl and ku: the farthest any edge row reaches below and above
        r, j = np.nonzero((C_E != 0) | (W_E != 0))
        kl = self.kl = max(lo, int(np.max(self._edge[r] - j)))
        ku = self.ku = max(lo, int(np.max(j - self._edge[r])))

        # Interior rows lo..hi hold one symmetric Toeplitz block, A_II =
        # I - h stencil, whose lower band storage is the stencil's centre and
        # the lo entries right of it.  The edge unknowns enter as u = T^-1
        # x[edge]: at each end the value at the node nearest the interior and
        # its differences outward.  A smooth x has small differences, so
        # x[interior] = y - A_II^-1 A_IE T u does not cancel the large, nearly
        # parallel columns that single edge nodes would give.  A_IE T at the
        # wall is -h times the stencil's lo x lo wall corner times T's wall
        # block (kept here, zero below the corner); at the far end it is the
        # same, mirrored.
        m = hi - lo + 1
        T_wall = np.array([[(-1) ** c * math.comb(lo - 1 - i, c) for c in range(lo)]
                           for i in range(lo)])
        self._T = np.zeros((k, k))
        self._T[:lo, :lo] = T_wall
        self._T[lo:, lo:] = T_wall[::-1]
        corner = np.zeros((lo, lo))
        for p in range(lo):             # row lo + p, columns p..lo-1
            corner[p, p:] = -stencil[:lo - p]
        self._corner = np.zeros((m, lo), order="F")
        self._corner[:lo] = corner @ T_wall
        # the edge rows reach the first ku and the last kl interior nodes
        # (_near): on the columns [edge, near], C_E + W_E/h is A_EE | A_EI.
        # W_E has edge columns only; W_E @ z / h is, with bc, the right-hand side
        self._near = np.r_[0:ku, m - kl:m]
        self._gather = np.r_[self._edge, lo + self._near]
        assert np.isin(j, self._gather).all(), "an edge row reaches past _near"
        self._edge_C = C_E[:, self._gather]
        self._edge_W = W_E[:, self._gather]
        self._last = (None, None)

    def _system_for_dt(self, h: float):
        """Factors of the step system of length h, the stencil plus the edge
        block: the in-place solve of A_II = I - h stencil (`_factor`), the
        n x k map G (Fortran order) of the edge unknowns onto the grid, T on
        the edge rows and -Z = -A_II^-1 A_IE T on the interior ones, and the
        edge map u = c0 + H @ x[_gather], where x holds z on the edge nodes
        and A_II^-1 z on the interior ones.  c0 and H come from the edge
        rows' Schur complement A_EE T - A_EI Z, row-scaled and solved once
        here."""
        key, system = self._last
        if key == h:
            return system
        lo, k = self.interior_lo, len(self._edge)
        col = -h * self.stencil[lo:]
        col[0] += 1.0
        solve_ii = _factor(np.repeat(col[None, :], self.n - 2 * lo, axis=0).T)
        wall = solve_ii(h * self._corner)
        # A_II is persymmetric and A_IE T's far block mirrors its wall block.
        # G maps the edge unknowns onto the grid: T on the edge rows, -Z on
        # the interior ones
        G = np.zeros((self.n, k), order="F")
        G[self._edge] = self._T
        G[lo:self.interior_hi + 1] = -np.hstack([wall, wall[::-1]])
        rows = self._edge_C + self._edge_W / h
        scale = np.maximum(np.abs(rows).max(axis=1, keepdims=True), 1e-300)
        schur = (rows[:, :k] @ self._T + rows[:, k:] @ G[lo + self._near]) / scale
        # right-hand sides: the conditions' values, W_EE / h and -A_EI
        rhs = np.hstack([self.bc[:, None], self._edge_W[:, :k] / h, -rows[:, k:]]) / scale
        from scipy.linalg.blas import dgemv
        from scipy.linalg.lapack import dgesv
        _, _, X, info = dgesv(schur, rhs)
        if info < 0:
            raise RuntimeError(f"dgesv rejected argument {-info}")
        if info > 0:
            raise DivergenceError("singular time-step system: its edge Schur complement "
                                  "is singular")
        system = (solve_ii, G, X[:, 0], X[:, 1:], dgemv)
        self._last = (h, system)
        return system

    def advance(self, z: np.ndarray, dt: float, w: float = 0.0, *,
                out: np.ndarray | None = None) -> np.ndarray:
        """One implicit step of length dt from the start value z, written into
        out and returned.

        w = 0 is backward Euler from z = y_n.  w > 0 is variable-step BDF2
        after a step of dt/w, with z = ((1+w)^2 y_n - w^2 y_{n-1}) / (1+2w):
        that is a backward-Euler step of dt (1+w)/(1+2w) from z, so both
        share the systems, the balance rows and the kept factors.  The step
        works in out: z is copied into it unless out is z itself, and
        without out into a fresh array, which leaves z unchanged.  Its
        interior is solved in place and the edge unknowns u are read off one
        gather of it; then the edge nodes are zeroed and one product, out +=
        G u, writes them (T u) and corrects the interior (-Z u) in place.
        The result is not checked for finiteness: `solve` checks once per
        run of equal steps.
        """
        h = dt * (1.0 + w) / (1.0 + 2.0 * w)
        solve_ii, G, c0, H, dgemv = self._system_for_dt(h)
        if out is None:
            out = z.copy()
        elif out is not z:
            out[...] = z
        solve_ii(out[self.interior_lo:self.interior_hi + 1])
        u = H @ out[self._gather]
        u += c0
        out[self._edge] = 0.0
        # positional, as keywords cost f2py a parse per call: beta 1, y out,
        # offx 0, incx 1, offy 0, incy 1, no transpose, overwrite_y
        y = dgemv(1.0, G, u, 1.0, out, 0, 1, 0, 1, 0, 1)
        if y is not out:    # f2py copied it: keep its result
            out[...] = y
        return out


def assemble_operator(config: SolverConfig) -> GrooveOperator:
    """Build a configuration's operator: the interior stencil plus one edge
    block."""
    return GrooveOperator(config)


def time_steps(config: SolverConfig) -> list[float]:
    """Step lengths to t_final: a dyadic ramp out of t = 0, then the dt lattice.

    The fresh groove grows like t^(1/4): RAMP_STEPS steps of each length
    dt/2^8 .. dt resolve the early transient cheaply.  At the CLI's dt and
    dx, 1/64, the first step ends where the groove's width t^(1/4) spans
    about six nodes; much earlier times are narrower than the grid.  The
    ramp ends just short of 4 dt.  Then one step goes to each lattice point
    k dt at least dt/2 past the ramp, and one to t_final, so BDF2 runs at
    step ratio 1 (dt is capped at t_final / LATTICE_STEPS, so the ramp ends
    well before t_final).  A plateau step that is dt/2^s to within the
    rounding of its end point is taken as exactly that, so a dt that is not
    a power of two still has one system per step length.
    """
    dt = min(config.dt, config.t_final / LATTICE_STEPS)
    steps = [dt / 2.0 ** s for s in range(RAMP_STAGES - 1, -1, -1) for _ in range(RAMP_STEPS)]
    start = 0.0
    for h in steps:     # the ramp's end: the steps' running sum, left to right
        start += h
    first = math.ceil(start / dt + 0.5)
    last = math.ceil(config.t_final / dt * (1.0 - 1e-12))
    for end in [k * dt for k in range(first, last)] + [config.t_final]:
        h = end - start
        nominal = dt * 2.0 ** round(math.log2(h / dt))
        steps.append(nominal if abs(h - nominal) <= 2.0 * math.ulp(end) else h)
        start = end
    return steps


def solve(config: SolverConfig) -> list[Profile]:
    """March from planarity to t_final and return the final profile, alone
    in a list.

    The ramp steps are backward Euler and every later step is variable-step
    BDF2; `time_steps` keeps each step ratio below 1 + sqrt(2), where BDF2
    is zero-stable.  Three height buffers rotate, y, y_prev and a spare:
    each step writes its start value into the spare (the BDF2 combination
    through one scratch array) and `advance` solves in it in place.  Each
    step is linear in its start value, so a NaN or infinity stays
    non-finite in every later step: finiteness is checked once at the end
    of each run of equal step lengths, and the DivergenceError names the
    run's step length.
    """
    op = assemble_operator(config)
    steps = time_steps(config)
    y, y_prev, spare, scratch = (np.zeros(config.grid.nx) for _ in range(4))
    for k, dt in enumerate(steps):
        w = dt / steps[k - 1] if k >= RAMP_STAGES * RAMP_STEPS else 0.0
        if w:
            np.multiply((1.0 + w) ** 2 / (1.0 + 2.0 * w), y, out=spare)
            np.multiply(w ** 2 / (1.0 + 2.0 * w), y_prev, out=scratch)
            np.subtract(spare, scratch, out=spare)
            z = spare
        else:
            z = y
        # w goes in positionally: the benchmark's tracer tells a new
        # factorization from a reused one by the (dt, w) pair
        op.advance(z, dt, w, out=spare)
        y_prev, y, spare = y, spare, y_prev
        if (k + 1 == len(steps) or steps[k + 1] != dt) and not np.isfinite(y).all():
            raise DivergenceError(f"non-finite solution after a run of dt = {dt:.3e} steps")
    return [Profile(heights=y, time=config.t_final, grid=config.grid)]


# ---- the half-line modes ---------------------------------------------------

# the CLI's window for the column, [0, HALFLINE_L] in units of (Bt)^(1/4)
HALFLINE_L = 8.0
# the finest spacing the column takes: at alpha_hat 0.307 / 0.56 the modes
# miss the exact solution by 9.3e-6 / 1.3e-5 of depth at dx 1/64, 3.5e-6 /
# 6.4e-6 at 1/128 and 2.6e-5 / 2.3e-5 at 1/256, where float64 roundoff in
# the wall rows (entries up to alpha_hat / dx^5) outgrows the spatial error
_FINEST_DX = 1.0 / 256


def _wall_layer_dx(alpha_hat: float) -> float:
    """The coarsest spacing that resolves the wall layer, sqrt(alpha_hat)/4:
    the bound a march's grid must meet and the half-line column's rule."""
    return math.sqrt(alpha_hat) / 4.0


def halfline_dx(alpha_hat: float) -> float:
    """The half-line column's spacing: the coarsest that resolves the wall
    layer, in whole intervals of [0, HALFLINE_L], at least 512 of them.  A
    spacing below _FINEST_DX raises ValueError."""
    intervals = (max(512, math.ceil(HALFLINE_L / _wall_layer_dx(alpha_hat)))
                 if alpha_hat > 0 else 512)
    dx = HALFLINE_L / intervals
    if dx < _FINEST_DX:
        raise ValueError(
            f"need dx >= 1/256, got dx = {dx:.4g} to resolve the wall layer: float64 "
            f"roundoff in the wall rows grows with their largest entry, about "
            f"alpha_hat / dx^5, here with alpha_hat = {alpha_hat:.4g}")
    return dx


def _wall_modes(s: np.ndarray, m: float, alpha_hat: float, dx: float):
    """The solver's semi-discrete equations on the half-line, solved at each
    Laplace node s from a flat start: Y_i = sum_k c_k z_k^i over the lo modes
    with |z_k| < 1.  Returns c, z - 1 and log z, each (len(s), lo).

    The interior rows s Y = stencil * Y hold at every node i >= lo and have
    constant coefficients, so each mode solves alpha_hat delta^3 - delta^2 =
    s, the stencil's symbol, with delta = (z - 2 + 1/z) / dx^2: delta is a
    root q of the reference's cubic, and z - 1 = d/2 -+ sqrt(d + d^2/4) with
    d = q dx^2.  The lo wall rows of the edge block, (C_E + s W_E) Y =
    bc / s, fix c.  C_E's rows annihilate constants, so they act on
    z^j - 1, from expm1: on z^j itself, near z = 1, they would cancel
    digits (2e-3 of depth at dx 1/256 and alpha_hat 0.307, not 3e-5).
    """
    if not 1e-100 <= dx <= 1e100:
        raise ValueError(f"dx must lie in [1e-100, 1e100], got {dx}")
    q = _cubic_roots(s, alpha_hat)
    d = q * dx ** 2
    # past |d| = 1e4 the root z ~ 1/d, formed as 1 + (z - 1), keeps no digits
    # (error ~ eps d^2); below 1e-24 (dx < ~1e-12 t^(1/4)) the stencil overflows
    size = np.abs(d)
    if not 1e-24 <= size.min() <= size.max() <= 1e4:
        raise ValueError(f"dx = {dx} puts the modes' |q| dx^2 outside [1e-24, 1e4]")
    root = np.sqrt(d + d * d / 4.0)
    zm1 = d / 2.0 - root
    zm1 = np.where(np.abs(1.0 + zm1) < 1.0, zm1, d / 2.0 + root)
    log_z = np.log1p(zm1)
    # MIN_NODES keeps the far rows clear of the columns the wall rows reach
    stencil, C_E, W_E, bc = _edge_block(MIN_NODES, dx, alpha_hat, m)
    lo = len(stencil) // 2
    reach = np.flatnonzero((C_E[:lo] != 0).any(axis=0) | (W_E[:lo] != 0).any(axis=0))[-1] + 1
    C, W = C_E[:lo, :reach], W_E[:lo, :reach]
    powers_m1 = np.expm1(np.arange(reach)[:, None] * log_z[:, None, :])
    rows = C @ powers_m1 + s[:, None, None] * (W @ (1.0 + powers_m1))
    c = np.linalg.solve(rows, (bc[:lo] / s[:, None])[..., None])[..., 0]
    return c, zm1, log_z


def _window_sum(n: int, du: float, rate: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """Real part of sum_k exp(j du rate_k) coef_k at j = 0 .. n-1, for flat
    rate and coef.  With B = isqrt(n - 1) + 1 and j = a B + b, exp(j du rate)
    is exp(a B du rate) exp(b du rate), so the whole window is one complex
    matrix product of the ceil(n/B) block powers and the B offset powers
    scaled by coef: each mode takes ceil(n/B) + B exponentials, not n."""
    B = math.isqrt(n - 1) + 1
    blocks = np.exp(np.multiply.outer(np.arange(0, n, B) * du, rate))
    offsets = np.exp(np.multiply.outer(np.arange(B) * du, rate)) * coef
    return (blocks @ offsets.T).real.ravel()[:n]


def halfline_profile(xmax: float, samples: int, t: float, m: float, alpha_hat: float,
                     dx: float) -> tuple[np.ndarray, float]:
    """Height of the solver's semi-discrete problem on the half-line, at
    spacing dx, exactly in time, and its mass: (y(x, t) at x =
    np.linspace(0, xmax, samples), the trapezoidal mass dx (y_0/2 + y_1 +
    y_2 + ...) of the nodal heights) from a flat start.  The modes are
    evaluated at each x (not only at nodes), and the mass per mode as
    dx c (1/(1 - z) - 1/2), both up to the contour's inversion error.  xmax
    must lie in [0, 1e100] and samples be an integer >= 1; t, m and
    alpha_hat as `reference._upper_contour` states, and dx as `_wall_modes`
    does.

    There is no box, no far-field row and no time step: the lo decaying
    modes of `_wall_modes`, summed over the Talbot contour of
    `reference.exact_profile`, are the half-line's discrete transparent
    boundary condition in the Laplace domain.  The window is equally
    spaced, so `_window_sum` sums the modes on it as one block product;
    `reference._mode_sum` sums them at any points, one exponential each.
    """
    if not 0 <= xmax <= 1e100:
        raise ValueError(f"xmax must lie in [0, 1e100], got {xmax}")
    if isinstance(samples, bool) or not (isinstance(samples, numbers.Integral) and samples >= 1):
        raise ValueError(f"samples must be an integer >= 1, got {samples!r}")
    s, weight = _upper_contour(t, m, alpha_hat)
    c, zm1, log_z = _wall_modes(s, m, alpha_hat, dx)
    du = xmax / (samples - 1) / dx if samples > 1 else 0.0
    heights = _window_sum(samples, du, log_z.ravel(), (weight[:, None] * c).ravel())
    return heights, float((dx * (weight[:, None] * c * (-1.0 / zm1 - 0.5)).sum()).real)


# ---- diagnostics ----------------------------------------------------------


def mass(profile: Profile) -> float:
    """Trapezoidal integral of the height field."""
    return float(np.trapezoid(profile.heights, dx=profile.grid.dx))
