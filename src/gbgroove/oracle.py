"""Implicit finite-difference solver for the sixth-order groove equation.

Independent of the series machinery: discretizes y_t = alpha y_xxxxxx -
y_xxxx (nondimensional) on a uniform grid with the wall conditions
(slope-bending, zero flux, zero curvature) and a clamped far field, and
marches it from a perfectly flat start: backward Euler over a short dyadic
ramp, then variable-step BDF2 on a plateau of multiples of dt.  Both are
L-stable, so the stiff 1/dx^6 modes that the incompatible flat start
excites are damped, not carried along.

Wall and far-field flux rows are imposed in integral (mass-balance) form:
the semi-discrete system then conserves the trapezoidal mass identically,
which is the discrete shadow of matter conservation.

The interior operator is kept as its one stencil, alpha_hat*D6 - D4, and
applied by correlation.  The equation is linear with constant
coefficients, so the backward-Euler matrix of a step h is C + h K + W/h:
three coefficient arrays assembled once in one row-band layout (row i,
offset j - i), with the bandwidths read off the rows.  Each system is
row-scaled, moved into LAPACK band storage by one gather and factored by
LAPACK's banded LU with partial pivoting (dgbtrf); each step is one banded
solve with those factors (dgbtrs).  The plateau step's factors and the
last ones are kept; snapshot splits then cost only their own steps.

SciPy's LAPACK wrappers are imported where a system is factored, not at
module level, so the series-only paths (and ``import gbgroove.cli``) never
load SciPy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConfigError",
    "DivergenceError",
    "Grid",
    "SolverConfig",
    "Profile",
    "EnergyBreakdown",
    "fd_weights",
    "assemble_operator",
    "GrooveOperator",
    "solve",
    "time_grid",
    "mass",
    "energy",
    "chemical_potential",
    "flux",
    "continuity_residual",
]

MIN_NODES = 64
# past ~769 nodes float64 roundoff in forming each step system makes the
# error against the exact box solution grow with nx: at nx 1025 it is up to
# 7.7x (dt 1/64) and 112x (dt 1/4096) the error at nx 513, and at nx 2049
# 0.7-9.7% of depth; in 80-bit longdouble the scheme stays at 5.5-5.8e-5
MAX_NODES = 2049
# step budget: a t_final/dt far above it (dt = 1e-9 takes ~1e9 steps)
# marches for hours with no exit
MAX_STEPS = 65536
BC_ORDER = 3        # accuracy order of the one-sided wall and far-field stencils
RAMP_STAGES = 25    # dyadic step sizes dt/2^24 .. dt at the start of a run
RAMP_STEPS = 2      # backward-Euler steps taken at each ramp stage
# variable-step BDF2 is zero-stable for step ratios below 1 + sqrt(2)
BDF2_MAX_RATIO = 1.0 + math.sqrt(2.0)


class ConfigError(ValueError):
    """Inconsistent grid or solver configuration."""


class DivergenceError(RuntimeError):
    """Time integration produced non-finite values or an exactly singular
    time-step system."""


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


def _factor(ab: np.ndarray, kl: int, ku: int):
    """LU factors, with partial pivoting, of the n x n matrix whose LAPACK
    band storage is ab, and a function that solves with them.

    ab is (2 kl + ku + 1, n) and Fortran-ordered: A[i, j] at
    ab[kl + ku + i - j, j], the first kl rows left for the fill.  It is
    factored in place.  An exactly singular matrix raises DivergenceError.
    """
    from scipy.linalg.lapack import dgbtrf, dgbtrs
    lu, piv, info = dgbtrf(ab, kl, ku, overwrite_ab=True)
    if info < 0:
        raise RuntimeError(f"dgbtrf rejected argument {-info}")
    if info > 0:
        raise DivergenceError(f"singular time-step system: zero pivot in column {info - 1}")

    def solve(b: np.ndarray) -> np.ndarray:
        x, info = dgbtrs(lu, kl, ku, b, piv, overwrite_b=True)
        if info:
            raise RuntimeError(f"dgbtrs rejected argument {-info}")
        return x

    return solve


def _one_sided(order: int, dx: float) -> np.ndarray:
    """Weights for the order-th derivative at the first of order + BC_ORDER
    grid nodes: the solver's wall rows and the diagnostics' end stencils."""
    return fd_weights(np.arange(float(order + BC_ORDER)), 0.0, order) / dx ** order


@dataclass(frozen=True)
class Grid:
    """Uniform nodes on [0, L]."""

    L: float
    nx: int

    def __post_init__(self):
        if self.nx < MIN_NODES:
            raise ConfigError(f"need nx >= {MIN_NODES}, got {self.nx}")
        if not self.L > 0:
            raise ConfigError("L must be positive")

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
    dt: float                       # plateau time step; early steps ramp up to it
    t_final: float
    alpha_hat: float
    m: float
    snapshot_times: tuple[float, ...] = ()

    def __post_init__(self):
        if not 0 < self.dt < math.inf:
            raise ConfigError("dt must be positive and finite")
        if not self.t_final > 0:
            raise ConfigError("t_final must be positive")
        if self.alpha_hat < 0:
            raise ConfigError("alpha_hat must be non-negative")
        if self.grid.nx > MAX_NODES:
            raise ConfigError(f"need nx <= {MAX_NODES}, got {self.grid.nx}: float64 "
                              "roundoff in forming each step dominates on finer grids")
        if self.t_final / self.dt > MAX_STEPS:
            raise ConfigError(f"need t_final/dt <= {MAX_STEPS}, got "
                              f"{self.t_final / self.dt:.4g} steps")
        if self.alpha_hat > 0 and self.grid.dx > math.sqrt(self.alpha_hat) / 4.0 + 1e-15:
            raise ConfigError(
                f"dx = {self.grid.dx:.4g} does not resolve the wall layer; "
                f"need dx <= sqrt(alpha_hat)/4 = {math.sqrt(self.alpha_hat)/4:.4g}")
        if self.grid.L < 8.0 * self.t_final ** 0.25 - 1e-12:
            raise ConfigError(
                f"domain L = {self.grid.L:.4g} shorter than 8 t_final^(1/4) "
                f"= {8*self.t_final**0.25:.4g}")
        for s in self.snapshot_times:
            if not 0 < s <= self.t_final + 1e-12:
                raise ConfigError(f"snapshot time {s} outside (0, t_final]")


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


class GrooveOperator:
    """Interior stencil plus wall/far rows for one configuration.

    The interior operator is one stencil, ``alpha_hat*D6 - D4`` (``-D4``
    when alpha_hat = 0), on rows interior_lo..interior_hi: ``apply`` is a
    correlation of the heights with it.  Every other row is a wall or
    far-field condition (`bc_rows`) or a mass-balance row (`balance_rows`).
    The equation is linear with constant coefficients, so the backward-Euler
    system for a step h is affine in h and 1/h: ``C + h K + W/h``, with
    interior rows I - h*stencil, constant condition rows and balance rows
    W/h + S.  The three coefficient arrays share one row-band layout, row i
    and offset j - i from -kl to ku: the interior rows are one broadcast of
    the stencil and the boundary rows are written into their slots.  A
    system is row-scaled by its row-wise max, gathered into LAPACK band
    storage by one index built here, and factored by `_factor`.  Two
    systems and their factors are kept: the last one, and the plateau
    step's (BDF2 at step ratio 1), which snapshot splits interrupt.
    """

    def __init__(self, config: SolverConfig):
        self.config = config
        n = config.grid.nx
        dx = config.grid.dx
        ah = config.alpha_hat
        self.n = n
        self.dx = dx
        lo = self.interior_lo = 3 if ah > 0 else 2   # also the stencil half-width
        hi = self.interior_hi = n - 1 - lo
        d4 = np.array([1.0, -4.0, 6.0, -4.0, 1.0]) / dx ** 4
        if ah > 0:
            stencil = ah * (np.array([1.0, -6.0, 15.0, -20.0, 15.0, -6.0, 1.0]) / dx ** 6)
            stencil[1:6] -= d4
        else:
            stencil = -d4
        self.stencil = stencil

        w1 = _one_sided(1, dx)
        slope = np.zeros(n)
        slope[:len(w1)] += w1
        far0 = np.zeros(n); far0[n - 1] = 1.0
        rows = {0: slope, n - 1: far0}
        # the sixth-order problem adds zero wall curvature and zero far slope;
        # at alpha_hat = 0 the balance rows take rows 1 and n - 2 instead
        if ah > 0:
            w3 = _one_sided(3, dx)
            slope[:len(w3)] -= ah * w3
            w2 = _one_sided(2, dx)
            curv = np.zeros(n); curv[:len(w2)] = w2
            far1 = np.zeros(n); far1[n - len(w1):] = -w1[::-1]
            rows[1] = curv
            rows[n - 2] = far1
        self.bc_rows = rows
        self.bc_rhs = np.zeros(n)
        self.bc_rhs[0] = config.m / 2.0
        # wall / far mass-balance rows take the place of the flux rows:
        # row -> (trapezoid weights of the edge nodes, telescoped flux, that
        # is dx times the sum of the first / last eight interior rows)
        w = dx * stencil
        SL = np.zeros(n)
        for i in range(lo, lo + 8):
            SL[i - lo:i + lo + 1] += w
        SL[lo + 3:] = 0.0
        SR = np.zeros(n)
        for i in range(hi - 7, hi + 1):
            SR[i - lo:i + lo + 1] += w
        SR[:hi - 2] = 0.0
        WL = np.zeros(n)
        WL[0] = dx / 2.0
        WL[1:lo] = dx
        WR = np.zeros(n)
        WR[n - 1] = dx / 2.0
        WR[hi + 1:n - 1] = dx
        self.balance_rows = {lo - 1: (WL, SL), n - lo: (WR, SR)}
        assert not rows.keys() & self.balance_rows.keys(), "boundary rows overlap"

        # C, K, W in one row-band layout: row i, offset j - i + kl, with kl
        # and ku the farthest any boundary row reaches below and above
        edge = [*range(lo), *range(hi + 1, n)]
        coeffs = {i: self.balance_rows.get(i, (np.zeros(n), rows.get(i))) for i in edge}
        reach = np.concatenate([np.flatnonzero((Wi != 0) | (Ci != 0)) - i
                                for i, (Wi, Ci) in coeffs.items()])
        kl = self.kl = max(lo, -int(reach.min()))
        ku = self.ku = max(lo, int(reach.max()))
        self._C, self._K, self._W = (np.zeros((n, kl + ku + 1)) for _ in range(3))
        self._C[lo:hi + 1, kl] = 1.0
        self._K[lo:hi + 1, kl - lo:kl + lo + 1] = -stencil
        for i, (Wi, Ci) in coeffs.items():
            j = np.arange(max(0, i - kl), min(n, i + ku + 1))
            self._C[i, j - i + kl] = Ci[j]
            self._W[i, j - i + kl] = Wi[j]
        # LAPACK band storage, transposed: A[i, j] goes to [j, kl + ku + i - j]
        # of an (n, 2 kl + ku + 1) array, whose transpose is the Fortran
        # array dgbtrf takes.  Fill rows and corners take band entry (0, 0),
        # which lies left of the matrix and is zero.
        j = np.arange(n)[:, None]
        r = np.arange(2 * kl + ku + 1)
        i = j + r - (kl + ku)
        inside = (r >= kl) & (i >= 0) & (i < n)
        self._lapack_index = np.where(inside, i * (kl + ku + 1) + j - i + kl, 0)
        # the right-hand side's edge rows: the wall and far conditions plus the
        # balance rows' W @ z / h, whose columns are edge rows too
        self._edge = np.array(edge)
        self._W_edge = np.array([coeffs[i][0][edge] for i in edge])
        # BDF2 steps of the plateau dt at step ratio 1, as `advance` forms them
        self._plateau_h = _ramp(config)[0] * (1.0 + 1.0) / (1.0 + 2.0)
        self._last = self._plateau = (None, None)

    def apply(self, y: np.ndarray) -> np.ndarray:
        """Spatial operator on interior rows, zero elsewhere."""
        out = np.zeros(self.n)
        out[self.interior_lo:self.interior_hi + 1] = np.correlate(y, self.stencil, "valid")
        return out

    def _scaled_band(self, h: float):
        """C + h K + W/h in the row-band layout, each row divided by its
        largest magnitude, and those row scales."""
        band = self._C + h * self._K + self._W / h
        scale = np.maximum(np.abs(band).max(axis=1), 1e-300)
        band /= scale[:, None]
        return band, scale

    def _system_for_dt(self, h: float):
        """Solver for the row-scaled system C + h K + W/h, its row scales,
        and the scaled right-hand side of its edge rows as b0 + G @ z[edge]."""
        for key, system in (self._last, self._plateau):
            if key == h:
                return system
        band, scale = self._scaled_band(h)
        lu_solve = _factor(band.ravel()[self._lapack_index].T, self.kl, self.ku)
        s = scale[self._edge]
        system = (lu_solve, scale, self.bc_rhs[self._edge] / s,
                  self._W_edge / (h * s[:, None]))
        self._last = (h, system)
        if h == self._plateau_h:
            self._plateau = self._last
        return system

    def advance(self, z: np.ndarray, dt: float, w: float = 0.0) -> np.ndarray:
        """One implicit step of length dt from the start value z.

        w = 0 is backward Euler from z = y_n.  w > 0 is variable-step BDF2
        after a step of dt/w, with z = ((1+w)^2 y_n - w^2 y_{n-1}) / (1+2w):
        that is a backward-Euler step of dt (1+w)/(1+2w) from z, so both
        share the systems, the balance rows and the kept factors.
        """
        h = dt * (1.0 + w) / (1.0 + 2.0 * w)
        lu_solve, scale, b0, G = self._system_for_dt(h)
        rhs = z / scale
        rhs[self._edge] = b0 + G @ z[self._edge]
        out = lu_solve(rhs)
        if not np.isfinite(out).all():
            raise DivergenceError(
                f"non-finite solution after a dt = {dt:.3e} step "
                f"(max |z| before step: {np.max(np.abs(z)):.3e})")
        return out


def assemble_operator(config: SolverConfig) -> GrooveOperator:
    """Build the banded operator and boundary rows for a configuration."""
    return GrooveOperator(config)


def _ramp(config: SolverConfig) -> tuple[float, np.ndarray]:
    """Plateau step and the end points of the dyadic ramp steps.

    The ramp ends just short of 2 RAMP_STEPS dt, and the plateau step is
    capped so that this lies before t_final.
    """
    dt = min(config.dt, config.t_final / (2.0 * RAMP_STEPS))
    stages = dt / 2.0 ** np.arange(RAMP_STAGES - 1, -1, -1)
    return dt, np.cumsum(np.repeat(stages, RAMP_STEPS))


def time_grid(config: SolverConfig) -> np.ndarray:
    """Step endpoints: a dyadic ramp out of t = 0, then multiples of dt.

    The fresh groove grows like t^(1/4); the ramp spends RAMP_STEPS steps
    on each of RAMP_STAGES dyadic scales so the early transient is resolved
    without paying for it over the whole run.  The plateau is anchored on
    the lattice k dt, starting at least dt/2 past the ramp, so every
    plateau step but the first has length dt (the last one too when t_final
    is on the lattice) and BDF2 runs at step ratio 1.
    """
    dt, ramp = _ramp(config)
    first = math.ceil(ramp[-1] / dt + 0.5)
    last = math.ceil(config.t_final / dt * (1.0 - 1e-12))
    ts = np.concatenate(([0.0], ramp, dt * np.arange(first, last), [config.t_final]))
    # split steps so every snapshot time is hit exactly
    snaps = np.array([s for s in config.snapshot_times
                      if ts[0] < s < config.t_final], dtype=float)
    if len(snaps):
        ts = np.unique(np.concatenate([ts, snaps]))
    return ts


def solve(config: SolverConfig) -> list[Profile]:
    """March from planarity and return profiles at the snapshot times.

    Steps that end inside the ramp are backward Euler, and so is any step
    more than BDF2_MAX_RATIO times longer than the one before; every other
    step is BDF2.  The final time is always included as the last snapshot.
    """
    op = assemble_operator(config)
    ts = time_grid(config)
    plateau_dt, ramp = _ramp(config)
    ramp_end = float(ramp[-1])
    # a step that is a ramp stage or the plateau step dt/2^s to within the
    # rounding of its end points is taken as exactly that, so that a dt
    # that is not a power of two still has one system per stage
    hs = np.diff(ts)
    nominal = plateau_dt * 2.0 ** np.round(np.log2(hs / plateau_dt))
    hs = np.where(np.abs(hs - nominal) <= 2.0 * np.spacing(ts[1:]), nominal, hs).tolist()
    ts = ts.tolist()
    wanted = sorted(set(config.snapshot_times) | {config.t_final})
    y = y_prev = np.zeros(config.grid.nx)
    out: list[Profile] = []
    wi = 0
    for k in range(len(ts) - 1):
        dt = hs[k]
        w = dt / hs[k - 1] if ts[k + 1] > ramp_end else 0.0
        if w > BDF2_MAX_RATIO:
            w = 0.0
        if w:
            z = ((1.0 + w) ** 2 / (1.0 + 2.0 * w)) * y - (w ** 2 / (1.0 + 2.0 * w)) * y_prev
        else:
            z = y
        # w goes in positionally: the benchmark's tracer tells a new
        # factorization from a reused one by the (dt, w) pair
        y_prev, y = y, op.advance(z, dt, w)
        while wi < len(wanted) and ts[k] < wanted[wi] <= ts[k + 1] + 1e-15:
            out.append(Profile(heights=y.copy(), time=ts[k + 1], grid=config.grid))
            wi += 1
    if not out or out[-1].time < config.t_final:
        out.append(Profile(heights=y.copy(), time=config.t_final, grid=config.grid))
    return out


# ---- diagnostics ----------------------------------------------------------


def mass(profile: Profile) -> float:
    """Trapezoidal integral of the height field."""
    return float(np.trapezoid(profile.heights, dx=profile.grid.dx))


def _derivative_field(h: np.ndarray, dx: float, order: int) -> np.ndarray:
    """Centered differences of half-width (order + 1) // 2, one-sided
    (`_one_sided`) at that many nodes nearest each end."""
    q = (order + 1) // 2
    c = fd_weights(np.arange(-q, q + 1.0), 0.0, order) / dx ** order
    w = _one_sided(order, dx)
    out = np.empty(len(h))
    out[q:-q] = np.correlate(h, c, "valid")
    for i in range(q):
        out[i] = w @ h[i:i + len(w)]
        out[-1 - i] = (-1) ** order * (w @ h[::-1][i:i + len(w)])
    return out


@dataclass(frozen=True)
class EnergyBreakdown:
    """Quadratic free energy split into excess and flat-surface baseline."""

    excess: float
    baseline: float

    @property
    def total(self) -> float:
        return self.excess + self.baseline


def energy(profile: Profile, m: float, alpha_hat: float,
           gamma_surface: float = 1.0) -> EnergyBreakdown:
    """Small-slope free energy of a profile (nondimensional by default).

    excess = gs [ (m/2) y(0) + 1/2 int y_x^2 + (alpha/2) int y_xx^2 ];
    the flat-surface term gs * L is reported separately.
    """
    h = profile.heights
    dx = profile.grid.dx
    yx = _derivative_field(h, dx, 1)
    yxx = _derivative_field(h, dx, 2)
    excess = (m / 2.0) * h[0]
    excess += 0.5 * float(np.trapezoid(yx ** 2, dx=dx))
    excess += 0.5 * alpha_hat * float(np.trapezoid(yxx ** 2, dx=dx))
    return EnergyBreakdown(excess=gamma_surface * excess,
                           baseline=gamma_surface * profile.grid.L)


def chemical_potential(profile: Profile, alpha_hat: float) -> np.ndarray:
    """Interface chemical potential  mu = -y_xx + alpha y_xxxx."""
    h = profile.heights
    dx = profile.grid.dx
    mu = -_derivative_field(h, dx, 2)
    if alpha_hat > 0:
        mu = mu + alpha_hat * _derivative_field(h, dx, 4)
    return mu


def flux(profile: Profile, alpha_hat: float) -> np.ndarray:
    """Interface diffusion flux  j = -d(mu)/dx = y_xxx - alpha y_xxxxx.

    The wall value is evaluated directly from the height field with
    one-sided stencils of the solver's wall-row order, BC_ORDER; it is the
    residual of the zero-flux condition the solver imposes in balance form.
    """
    h = profile.heights
    dx = profile.grid.dx
    mu = chemical_potential(profile, alpha_hat)
    j = -_derivative_field(mu, dx, 1)
    w3 = _one_sided(3, dx)
    j0 = float(w3 @ h[:len(w3)])
    if alpha_hat > 0:
        w5 = _one_sided(5, dx)
        j0 -= alpha_hat * float(w5 @ h[:len(w5)])
    j[0] = j0
    return j


def continuity_residual(p0: Profile, p1: Profile, alpha_hat: float) -> np.ndarray:
    """Residual of y_t + dj/dx between two snapshots (interior nodes)."""
    if p1.time <= p0.time:
        raise ValueError("need p1 later than p0")
    dt = p1.time - p0.time
    dx = p0.grid.dx
    yt = (p1.heights - p0.heights) / dt
    jmid = 0.5 * (flux(p0, alpha_hat) + flux(p1, alpha_hat))
    djdx = _derivative_field(jmid, dx, 1)
    return yt + djdx
