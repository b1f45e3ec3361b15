"""Implicit finite-difference solver for the sixth-order groove equation.

Independent of the series machinery: discretizes y_t = alpha y_xxxxxx -
y_xxxx (nondimensional) on a uniform grid with the wall conditions
(slope-bending, zero flux, zero curvature) and a clamped far field, and
marches it with a theta-scheme from a perfectly flat start.

Wall and far-field flux rows are imposed in integral (mass-balance) form:
the semi-discrete system then conserves the trapezoidal mass identically,
which is the discrete shadow of matter conservation.

The interior operator is kept as its one stencil, alpha_hat*D6 - D4, and
applied by correlation.  Each time-step matrix is written from the
stencil, the boundary rows and the balance rows in one vectorized pass,
row-scaled, directly in CSC form, and factored by SuperLU.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import splu

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
# the wall rows carry 1/dx^5 entries: past ~2000 nodes they amplify
# roundoff above the truncation error
MAX_NODES = 2049
# step budget: a t_final/dt far above it (dt = 1e-9 takes ~1e9 steps)
# marches for hours with no exit
MAX_STEPS = 65536
BC_ORDER = 3        # accuracy order of the one-sided wall and far-field stencils
RAMP_STAGES = 40    # dyadic step sizes dt/2^39 .. dt at the start of a run
RAMP_STEPS = 8      # steps taken at each ramp stage


class ConfigError(ValueError):
    """Inconsistent grid or solver configuration."""


class DivergenceError(RuntimeError):
    """Time integration produced non-finite values."""


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
    theta: float = 1.0
    snapshot_times: tuple[float, ...] = ()

    def __post_init__(self):
        if not self.dt > 0:
            raise ConfigError("dt must be positive")
        if not self.t_final > 0:
            raise ConfigError("t_final must be positive")
        if not 0.5 <= self.theta <= 1.0:
            raise ConfigError("theta must lie in [1/2, 1]")
        if self.alpha_hat < 0:
            raise ConfigError("alpha_hat must be non-negative")
        if self.grid.nx > MAX_NODES:
            raise ConfigError(f"need nx <= {MAX_NODES}, got {self.grid.nx}: finer grids "
                              "amplify roundoff through the wall rows")
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
    Each time-step system is written straight from those pieces as a
    row-scaled CSC matrix; its LU factors are cached per (dt, theta) and
    reused while dt stays fixed.
    """

    def __init__(self, config: SolverConfig):
        self.config = config
        n = config.grid.nx
        dx = config.grid.dx
        ah = config.alpha_hat
        self.n = n
        self.dx = dx
        self.interior_lo = 3 if ah > 0 else 2   # also the stencil half-width
        self.interior_hi = n - 1 - self.interior_lo
        self._assemble_interior()
        self._assemble_boundary_rows()
        self._assemble_pattern()
        self._lu_cache: dict[float, object] = {}

    # ---- assembly -------------------------------------------------------

    def _assemble_interior(self):
        cfg = self.config
        n, dx, ah = self.n, self.dx, cfg.alpha_hat
        d4 = np.array([1.0, -4.0, 6.0, -4.0, 1.0]) / dx ** 4
        if ah > 0:
            stencil = ah * (np.array([1.0, -6.0, 15.0, -20.0, 15.0, -6.0, 1.0]) / dx ** 6)
            stencil[1:6] -= d4
        else:
            stencil = -d4
        self.stencil = stencil
        # telescoped flux functionals at the two edges of the interior block:
        # dx times the sum of the first / last eight interior rows
        lo, hi = self.interior_lo, self.interior_hi
        w = dx * stencil
        SL = np.zeros(n)
        for i in range(lo, lo + 8):
            SL[i - lo:i + lo + 1] += w
        SL[lo + 3:] = 0.0
        SR = np.zeros(n)
        for i in range(hi - 7, hi + 1):
            SR[i - lo:i + lo + 1] += w
        SR[:hi - 2] = 0.0
        self.SL = SL
        self.SR = SR

    def _assemble_boundary_rows(self):
        cfg = self.config
        n, dx, ah = self.n, self.dx, cfg.alpha_hat

        def wall_weights(order):
            return fd_weights(np.arange(float(order + BC_ORDER)), 0.0, order) / dx ** order

        w1 = wall_weights(1)
        slope = np.zeros(n)
        slope[:len(w1)] += w1
        far0 = np.zeros(n); far0[n - 1] = 1.0
        rows = {0: slope, n - 1: far0}
        # the sixth-order problem adds zero wall curvature and zero far slope;
        # at alpha_hat = 0 the balance rows take rows 1 and n - 2 instead
        if ah > 0:
            w3 = wall_weights(3)
            slope[:len(w3)] -= ah * w3
            w2 = wall_weights(2)
            curv = np.zeros(n); curv[:len(w2)] = w2
            far1 = np.zeros(n); far1[n - len(w1):] = -w1[::-1]
            rows[1] = curv
            rows[n - 2] = far1
        rhs = np.zeros(n)
        rhs[0] = cfg.m / 2.0
        self.bc_rows = rows
        self.bc_rhs = rhs
        # wall / far mass-balance rows take the place of the flux rows:
        # row -> (trapezoid weights of the edge nodes, telescoped flux)
        lo = self.interior_lo
        WL = np.zeros(n)
        WL[0] = dx / 2.0
        WL[1:lo] = dx
        WR = np.zeros(n)
        WR[n - 1] = dx / 2.0
        WR[self.interior_hi + 1:n - 1] = dx
        self.balance_rows = {lo - 1: (WL, self.SL), n - lo: (WR, self.SR)}
        assert not rows.keys() & self.balance_rows.keys(), "boundary rows overlap"

    def _assemble_pattern(self):
        """Columns of the wall/far rows, and the CSC order of the system."""
        n, lo, hi = self.n, self.interior_lo, self.interior_hi
        self._edge_cols = {}
        for i in (*range(lo), *range(hi + 1, n)):
            if i in self.balance_rows:
                W, S = self.balance_rows[i]
                self._edge_cols[i] = np.flatnonzero((W != 0) | (S != 0))
            else:
                self._edge_cols[i] = np.flatnonzero(self.bc_rows[i])
        width = len(self.stencil)
        rows = self._row_major({i: np.full(len(c), i) for i, c in self._edge_cols.items()},
                               np.repeat(np.arange(lo, hi + 1), width))
        cols = self._row_major(self._edge_cols,
                               np.arange(lo, hi + 1)[:, None] + np.arange(-lo, lo + 1))
        self._row_of = rows
        self._row_start = np.flatnonzero(np.diff(rows, prepend=-1))
        self._by_col = np.lexsort((rows, cols))
        self._col_ptr = np.concatenate(([0], np.cumsum(np.bincount(cols, minlength=n))))

    def _row_major(self, edge: dict[int, np.ndarray], band: np.ndarray) -> np.ndarray:
        """Wall rows, interior band, far rows: one flat array in row order."""
        lo, hi = self.interior_lo, self.interior_hi
        return np.concatenate([edge[i] for i in range(lo)] + [band.ravel()]
                              + [edge[i] for i in range(hi + 1, self.n)])

    # ---- stepping -------------------------------------------------------

    def apply(self, y: np.ndarray) -> np.ndarray:
        """Spatial operator on interior rows, zero elsewhere."""
        out = np.zeros(self.n)
        out[self.interior_lo:self.interior_hi + 1] = np.correlate(y, self.stencil, "valid")
        return out

    def _edge_row(self, i: int, dt: float, theta: float) -> np.ndarray:
        if i in self.balance_rows:
            # wall + interior + far mass changes telescope to zero exactly
            W, S = self.balance_rows[i]
            return W / dt + theta * S
        return self.bc_rows[i]

    def _system_for_dt(self, dt: float, theta: float):
        key = (dt, theta)
        cached = self._lu_cache.get(key)
        if cached is not None:
            return cached
        n, lo, hi = self.n, self.interior_lo, self.interior_hi
        c = theta * dt
        band = np.empty((hi + 1 - lo, len(self.stencil)))
        band[:] = -(c * self.stencil)
        band[:, lo] = 1.0 - c * self.stencil[lo]
        vals = self._row_major({i: self._edge_row(i, dt, theta)[cols]
                                for i, cols in self._edge_cols.items()}, band)
        scale = np.maximum(np.maximum.reduceat(np.abs(vals), self._row_start), 1e-300)
        vals *= (1.0 / scale)[self._row_of]
        Ms = csc_matrix((vals[self._by_col], self._row_of[self._by_col], self._col_ptr),
                        shape=(n, n))
        Ms.eliminate_zeros()
        lu = splu(Ms)
        self._lu_cache[key] = (lu, Ms, scale)
        if len(self._lu_cache) > 8:
            self._lu_cache.pop(next(iter(self._lu_cache)))
        return lu, Ms, scale

    def advance(self, y: np.ndarray, dt: float, theta: float) -> np.ndarray:
        lu, Ms, scale = self._system_for_dt(dt, theta)
        lo, hi = self.interior_lo, self.interior_hi
        rhs = self.bc_rhs.copy()
        rhs[lo:hi + 1] = y[lo:hi + 1] + (1.0 - theta) * dt * np.correlate(y, self.stencil, "valid")
        for i, (W, S) in self.balance_rows.items():
            rhs[i] = W @ y / dt - (1.0 - theta) * (S @ y)
        b = rhs / scale
        out = lu.solve(b)
        # one sweep of iterative refinement: the stiff sixth-order system
        # leaves O(kappa eps) noise that the flux and mass diagnostics see
        out += lu.solve(b - Ms @ out)
        if not np.all(np.isfinite(out)):
            raise DivergenceError(
                f"non-finite solution after a dt = {dt:.3e} step "
                f"(max |y| before step: {np.max(np.abs(y)):.3e})")
        return out


def assemble_operator(config: SolverConfig) -> GrooveOperator:
    """Build the banded operator and boundary rows for a configuration."""
    return GrooveOperator(config)


def time_grid(config: SolverConfig) -> np.ndarray:
    """Step endpoints: a dyadic ramp out of t = 0, then the plateau dt.

    The fresh groove grows like t^(1/4); the ramp spends RAMP_STEPS steps
    on each of RAMP_STAGES dyadic scales so the early transient is resolved
    without paying for it over the whole run.
    """
    dt = min(config.dt, config.t_final / 4.0)
    times = [0.0]
    t = 0.0
    for s in range(RAMP_STAGES - 1, -1, -1):
        dts = dt / 2.0 ** s
        for _ in range(RAMP_STEPS):
            t += dts
            times.append(t)
            if t >= config.t_final:
                break
        if t >= config.t_final:
            break
    while t < config.t_final - 1e-12 * config.t_final:
        t = min(t + dt, config.t_final)
        times.append(t)
    ts = np.array(times)
    ts[-1] = config.t_final
    # split steps so every snapshot time is hit exactly
    snaps = np.array([s for s in config.snapshot_times
                      if ts[0] < s < config.t_final], dtype=float)
    if len(snaps):
        ts = np.unique(np.concatenate([ts, snaps]))
    return ts


def solve(config: SolverConfig) -> list[Profile]:
    """March from planarity and return profiles at the snapshot times.

    The final time is always included as the last snapshot.
    """
    op = assemble_operator(config)
    ts = time_grid(config)
    wanted = sorted(set(config.snapshot_times) | {config.t_final})
    y = np.zeros(config.grid.nx)
    out: list[Profile] = []
    wi = 0
    for k in range(len(ts) - 1):
        dt = ts[k + 1] - ts[k]
        y = op.advance(y, dt, config.theta)
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
    """Centered differences, one-sided at the ends, all order >= 2."""
    n = len(h)
    out = np.empty(n)
    if order == 1:
        out[1:-1] = (h[2:] - h[:-2]) / (2 * dx)
        w = fd_weights(np.arange(4.0), 0.0, 1) / dx
        out[0] = w @ h[:4]
        out[-1] = -(w @ h[::-1][:4])
    elif order == 2:
        out[1:-1] = (h[2:] - 2 * h[1:-1] + h[:-2]) / dx ** 2
        w = fd_weights(np.arange(5.0), 0.0, 2) / dx ** 2
        out[0] = w @ h[:5]
        out[-1] = w @ h[::-1][:5]
    elif order == 4:
        out[2:-2] = (h[4:] - 4 * h[3:-1] + 6 * h[2:-2] - 4 * h[1:-3] + h[:-4]) / dx ** 4
        w = fd_weights(np.arange(7.0), 0.0, 4) / dx ** 4
        out[0] = w @ h[:7]
        out[1] = w @ h[1:8]
        out[-1] = w @ h[::-1][:7]
        out[-2] = w @ h[::-1][1:8]
    else:
        raise ValueError(f"unsupported derivative order {order}")
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
    w3 = fd_weights(np.arange(3.0 + BC_ORDER), 0.0, 3) / dx ** 3
    j0 = float(w3 @ h[:len(w3)])
    if alpha_hat > 0:
        w5 = fd_weights(np.arange(5.0 + BC_ORDER), 0.0, 5) / dx ** 5
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
