"""Finite-difference solver: operator exactness, convergence, conservation."""

import math

import numpy as np
import pytest

from gbgroove import oracle
from gbgroove.composite import ExpansionSpec, composite_profile_nd
from gbgroove.oracle import (
    BC_ORDER,
    MAX_NODES,
    MAX_STEPS,
    ConfigError,
    DivergenceError,
    Grid,
    Profile,
    SolverConfig,
    assemble_operator,
    chemical_potential,
    continuity_residual,
    energy,
    fd_weights,
    flux,
    mass,
    solve,
    time_grid,
)
from gbgroove.outer import mullins_profile
from gbgroove.reference import exact_profile

M_FIG = 0.209
AH_FIG = 0.30674093303633276


def _config(**over):
    base = dict(grid=Grid(L=8.0, nx=513), dt=1.0 / 512, t_final=1.0,
                alpha_hat=AH_FIG, m=M_FIG)
    base.update(over)
    return SolverConfig(**base)


class TestConfigValidation:
    def test_minimum_nodes(self):
        with pytest.raises(ConfigError):
            Grid(L=8.0, nx=32)

    def test_layer_resolution(self):
        with pytest.raises(ConfigError):
            # dx = 0.125 fails to resolve sqrt(0.04)/4 = 0.05
            _config(grid=Grid(L=8.0, nx=65), alpha_hat=0.04)

    def test_domain_length(self):
        with pytest.raises(ConfigError):
            _config(grid=Grid(L=4.0, nx=513), t_final=1.0)

    def test_snapshot_range(self):
        with pytest.raises(ConfigError):
            _config(snapshot_times=(2.0,))

    def test_node_cap(self):
        _config(grid=Grid(L=8.0, nx=MAX_NODES))
        with pytest.raises(ConfigError):
            _config(grid=Grid(L=8.0, nx=MAX_NODES + 1))

    def test_step_cap(self):
        _config(dt=1.0 / MAX_STEPS)
        for dt in (0.5 / MAX_STEPS, 1e-9, 5e-324):
            with pytest.raises(ConfigError):
                _config(dt=dt)


class TestFdWeights:
    @pytest.mark.parametrize("order, n", [(1, 4), (2, 5), (3, 6), (5, 8)])
    def test_polynomial_exactness(self, order, n):
        """One-sided weights reproduce d^k x^p exactly for p < n."""
        xs = np.arange(float(n))
        w = fd_weights(xs, 0.0, order)
        for p in range(n):
            vals = xs ** p
            exact = math.factorial(p) / math.factorial(p - order) * 0.0 ** (p - order) \
                if p >= order else 0.0
            if p == order:
                exact = math.factorial(order)
            assert w @ vals == pytest.approx(exact, abs=1e-8 * math.factorial(n))


class TestOperator:
    def test_zero_is_fixed_point(self):
        op = assemble_operator(_config())
        assert np.all(op.apply(np.zeros(513)) == 0.0)

    def test_linears_annihilated(self):
        # centered stencils kill linears exactly; the leftover is pure
        # roundoff at the operator's row scale
        op = assemble_operator(_config())
        x = op.config.grid.nodes
        res = op.apply(x)
        row_scale = 20 * op.config.alpha_hat / op.dx ** 6 + 6 / op.dx ** 4
        assert np.max(np.abs(res)) < 1e-12 * np.max(np.abs(x)) * row_scale

    def test_alpha_zero_reduces_to_fourth_order(self):
        cfg = _config(alpha_hat=0.0)
        op = assemble_operator(cfg)
        x = op.config.grid.nodes
        y = np.sin(x)
        res = op.apply(y)
        interior = slice(op.interior_lo, op.interior_hi + 1)
        # -D4 sin = -sin + O(dx^2)
        assert np.max(np.abs(res[interior] + np.sin(x[interior]))) < 5e-4

    def test_sixth_order_term_present(self):
        cfg = _config()
        op = assemble_operator(cfg)
        x = op.config.grid.nodes
        y = np.sin(x)
        res = op.apply(y)
        interior = slice(op.interior_lo, op.interior_hi + 1)
        # (ah D6 - D4) sin = -(ah + 1) sin + O(dx^2)
        expect = -(cfg.alpha_hat + 1.0) * np.sin(x[interior])
        assert np.max(np.abs(res[interior] - expect)) < 5e-3

    def test_bandwidth_bound(self):
        """The bandwidths are read off the rows: tight, and within 9."""
        for alpha_hat, kl, ku in ((0.0, 2, 3), (AH_FIG, 3, 5)):
            op = assemble_operator(_config(alpha_hat=alpha_hat))
            band, _ = op._scaled_band(1.0 / 512)
            rows, cols = _band_to_dense(band, op.kl).nonzero()
            assert (op.kl, op.ku) == (kl, ku)
            assert (np.max(rows - cols), np.max(cols - rows)) == (kl, ku)
            assert max(kl, ku) <= 9


class TestStep:
    def test_rest_state_with_zero_slope(self):
        cfg = _config(m=0.0)
        y = assemble_operator(cfg).advance(np.zeros(513), 1e-3)
        assert np.max(np.abs(y)) == 0.0

    def test_boundary_row_consistency(self):
        """After one implicit step the slope-bending row holds exactly."""
        cfg = _config()
        op = assemble_operator(cfg)
        y = op.advance(np.zeros(513), 1e-5)
        row = op.bc_rows[0]
        assert float(row @ y) == pytest.approx(cfg.m / 2, rel=1e-9)

    def test_unpassivated_wall_slope(self):
        cfg = _config(alpha_hat=0.0, grid=Grid(L=8.0, nx=513))
        y = assemble_operator(cfg).advance(np.zeros(513), 1e-4)
        w1 = fd_weights(np.arange(4.0), 0.0, 1) / cfg.grid.dx
        assert float(w1 @ y[:4]) == pytest.approx(cfg.m / 2, rel=1e-6)

    def test_time_step_order(self):
        """Richardson order: p ~ 1 for a backward-Euler step on a smooth
        continuation, p ~ 2 for a whole solve (ramp plus BDF2 plateau).

        With errors C dt^p the ratio |y_16 - y_64| / |y_32 - y_64| tends
        to (4^p - 1)/(2^p - 1): 3 at first order, 5 at second.
        """
        def ratio(sols):
            e1 = np.max(np.abs(sols[16] - sols[64]))
            e2 = np.max(np.abs(sols[32] - sols[64]))
            return e1 / e2

        grid = Grid(L=8.0, nx=257)
        base = solve(_config(grid=grid, dt=1.0 / 128, t_final=0.5))[-1]
        op = assemble_operator(_config(grid=grid))
        backward = {}
        for nsteps in (16, 32, 64):
            y = base.heights.copy()
            for _ in range(nsteps):
                y = op.advance(y, 0.5 / nsteps)
            backward[nsteps] = y
        assert ratio(backward) == pytest.approx(3.0, abs=0.7)

        marched = {nsteps: solve(_config(grid=grid, dt=1.0 / nsteps))[-1].heights
                   for nsteps in (16, 32, 64)}
        assert ratio(marched) == pytest.approx(5.0, abs=1.5)


class TestSolve:
    def test_snapshots_hit_exactly(self):
        cfg = _config(snapshot_times=(0.25, 0.75))
        snaps = solve(cfg)
        assert [s.time for s in snaps] == [0.25, 0.75, 1.0]

    def test_zero_slope_stays_flat(self):
        cfg = _config(m=0.0)
        snaps = solve(cfg)
        assert np.max(np.abs(snaps[-1].heights)) == 0.0

    def test_matches_unpassivated_closed_form(self):
        cfg = _config(alpha_hat=0.0, grid=Grid(L=8.0, nx=513))
        prof = solve(cfg)[-1]
        x = cfg.grid.nodes
        ref = np.array([mullins_profile(u, 1.0, cfg.m) for u in x])
        err = np.max(np.abs(prof.heights - ref))
        assert err < 0.01 * abs(ref[0])

    @pytest.mark.parametrize("alpha_hat", [0.05, AH_FIG, 0.56])
    def test_matches_exact_reference(self, alpha_hat):
        """At the CLI's grid and plateau step the solver sits within 1e-4
        of depth of the Laplace-Talbot solution on the same box."""
        cfg = _config(dt=1.0 / 64, alpha_hat=alpha_hat)
        ref = exact_profile(cfg.grid.nodes, 1.0, cfg.m, alpha_hat, L=cfg.grid.L)
        err = np.max(np.abs(solve(cfg)[-1].heights - ref))
        assert err <= 1e-4 * abs(ref[0])

    @pytest.mark.parametrize("alpha_hat", [0.05, AH_FIG, 0.56])
    def test_matches_exact_reference_at_fine_dt(self, alpha_hat):
        """At dt = 1/4096 the time error is gone and the same 1e-4 of depth
        bounds the spatial error at the CLI's grid."""
        cfg = _config(dt=1.0 / 4096, alpha_hat=alpha_hat)
        ref = exact_profile(cfg.grid.nodes, 1.0, cfg.m, alpha_hat, L=cfg.grid.L)
        err = np.max(np.abs(solve(cfg)[-1].heights - ref))
        assert err <= 1e-4 * abs(ref[0])

    def test_refinement_contraction(self):
        """Doubling the grid shrinks the solution change by >= 3.5x.

        Grids stay modest: past nx ~ 769 the error grows with nx
        (see MAX_NODES).
        """
        profs = {}
        for nx in (129, 257, 513):
            cfg = _config(grid=Grid(L=8.0, nx=nx), dt=1.0 / 1024)
            profs[nx] = solve(cfg)[-1].heights
        e_coarse = np.max(np.abs(profs[257][::2] - profs[129]))
        e_fine = np.max(np.abs(profs[513][::2] - profs[257]))
        assert e_coarse / e_fine >= 3.5

    def test_unconditional_stability(self):
        """No blow-up across three decades of plateau step size."""
        norms = []
        for dt in (1e-3, 1e-2, 1e-1):
            cfg = _config(grid=Grid(L=8.0, nx=257), dt=dt)
            prof = solve(cfg)[-1]
            norms.append(np.max(np.abs(prof.heights)))
        assert max(norms) < 10 * min(norms)
        assert all(np.isfinite(n) for n in norms)

    def test_far_field_insensitivity(self):
        """Doubling the domain moves the solution by a tail-sized amount."""
        a = solve(_config(grid=Grid(L=8.0, nx=257)))[-1]
        b = solve(_config(grid=Grid(L=16.0, nx=513)))[-1]
        shared = a.grid.nx
        diff = np.max(np.abs(a.heights - b.heights[:shared]))
        # the truncated tail itself sits at the few-1e-4 level; the far
        # closure must not disturb the groove beyond that scale
        assert diff < 1e-2 * abs(a.heights[0])

    def test_discrete_boundary_conditions_held(self):
        cfg = _config(grid=Grid(L=8.0, nx=513))
        prof = solve(cfg)[-1]
        h = prof.heights
        dx = cfg.grid.dx
        w2 = fd_weights(np.arange(5.0), 0.0, 2) / dx ** 2
        yxx0 = abs(float(w2 @ h[:5]))
        yxx = np.abs((h[2:] - 2 * h[1:-1] + h[:-2]) / dx ** 2)
        assert yxx0 <= 1e-3 * np.max(yxx)
        w1 = fd_weights(np.arange(5.0), 0.0, 1) / dx
        w3 = fd_weights(np.arange(6.0), 0.0, 3) / dx ** 3
        slope_res = abs(float(w1 @ h[:5]) - cfg.alpha_hat * float(w3 @ h[:6])
                        - cfg.m / 2)
        assert slope_res <= 1e-3 * cfg.m / 2


@pytest.fixture(scope="module")
def run():
    cfg = _config(grid=Grid(L=8.0, nx=513),
                  snapshot_times=(0.0625, 0.25, 0.5, 1.0))
    return cfg, solve(cfg)


class TestDiagnostics:

    def test_mass_conservation(self, run):
        cfg, snaps = run
        for p in snaps:
            im = int(np.argmax(p.heights))
            bound = 1e-3 * abs(p.heights[0]) * cfg.grid.nodes[im]
            assert abs(mass(p)) <= bound, f"t={p.time}"

    def test_flat_profile_zero_mass(self):
        g = Grid(L=8.0, nx=513)
        assert mass(Profile(heights=np.zeros(513), time=1.0, grid=g)) == 0.0

    def test_antisymmetric_mass(self):
        g = Grid(L=8.0, nx=513)
        x = g.nodes
        y = np.sin(2 * np.pi * x / g.L)
        assert abs(mass(Profile(heights=y, time=1.0, grid=g))) < 1e-12

    def test_energy_dissipation(self, run):
        cfg, snaps = run
        es = [energy(p, cfg.m, cfg.alpha_hat).excess for p in snaps]
        for a, b in zip(es, es[1:]):
            assert b <= a + 1e-10

    def test_energy_baseline(self):
        g = Grid(L=8.0, nx=513)
        p = Profile(heights=np.zeros(513), time=1.0, grid=g)
        e = energy(p, 0.209, 0.3, gamma_surface=2.87)
        assert e.excess == 0.0
        assert e.baseline == pytest.approx(2.87 * 8.0, rel=1e-14)

    def test_bending_energy_scales_with_stiffness(self):
        g = Grid(L=8.0, nx=513)
        x = g.nodes
        p = Profile(heights=1e-2 * np.exp(-((x - 4) ** 2)), time=1.0, grid=g)
        e1 = energy(p, 0.0, 1.0).excess
        e8 = energy(p, 0.0, 8.0).excess
        grad = energy(p, 0.0, 0.0).excess
        assert e8 - grad == pytest.approx(8 * (e1 - grad), rel=1e-12)

    def test_chemical_potential_flat(self):
        g = Grid(L=8.0, nx=513)
        p = Profile(heights=np.zeros(513), time=1.0, grid=g)
        assert np.all(chemical_potential(p, 0.3) == 0.0)

    def test_chemical_potential_spectral_identity(self):
        """mu of sin(kx) is (k^2 + a k^4) sin(kx) on interior nodes."""
        g = Grid(L=8.0, nx=2049)
        x = g.nodes
        k = 2 * np.pi / g.L * 3
        p = Profile(heights=np.sin(k * x), time=1.0, grid=g)
        for ah in (0.0, 0.3):
            mu = chemical_potential(p, ah)
            expect = (k ** 2 + ah * k ** 4) * np.sin(k * x)
            interior = slice(4, -4)
            err = np.max(np.abs(mu[interior] - expect[interior]))
            assert err < 2e-3 * np.max(np.abs(expect))

    def test_alpha_zero_reduces_mu(self):
        g = Grid(L=8.0, nx=513)
        x = g.nodes
        p = Profile(heights=np.sin(x), time=1.0, grid=g)
        mu0 = chemical_potential(p, 0.0)
        d2 = np.empty_like(x)
        d2[1:-1] = (p.heights[2:] - 2 * p.heights[1:-1] + p.heights[:-2]) / g.dx ** 2
        assert np.allclose(mu0[1:-1], -d2[1:-1])

    def test_flux_zero_for_flat(self):
        g = Grid(L=8.0, nx=513)
        p = Profile(heights=np.zeros(513), time=1.0, grid=g)
        assert np.all(flux(p, 0.3) == 0.0)

    def test_wall_flux_gate(self):
        """Zero flux is imposed in mass-balance form; the wall flux read off
        the heights with one-sided stencils stays small against the
        interior flux."""
        cfg = _config(grid=Grid(L=8.0, nx=513))
        prof = solve(cfg)[-1]
        j = flux(prof, cfg.alpha_hat)
        assert abs(j[0]) <= 1e-3 * np.max(np.abs(j))

    def test_continuity(self, run):
        cfg, snaps = run
        p0 = next(p for p in snaps if p.time == 0.5)
        p1 = snaps[-1]
        res = continuity_residual(p0, p1, cfg.alpha_hat)
        yt = (p1.heights - p0.heights) / (p1.time - p0.time)
        interior = slice(8, -8)
        assert np.max(np.abs(res[interior])) < 0.25 * np.max(np.abs(yt))

    def test_continuity_refines_with_snapshot_spacing(self):
        """The mass-balance residual shrinks as the snapshot pair tightens
        (midpoint-flux time error dominates at wide spacing)."""
        cfg = _config(grid=Grid(L=8.0, nx=513),
                      snapshot_times=(0.5, 0.875, 1.0))
        snaps = {p.time: p for p in solve(cfg)}
        interior = slice(8, -8)

        def level(t0):
            res = continuity_residual(snaps[t0], snaps[1.0], cfg.alpha_hat)
            return np.max(np.abs(res[interior]))

        assert level(0.875) < level(0.5)


class TestTimeGrid:
    def test_covers_interval(self):
        cfg = _config()
        ts = time_grid(cfg)
        assert ts[0] == 0.0
        assert ts[-1] == cfg.t_final
        assert np.all(np.diff(ts) > 0)

    def test_ramp_resolves_early_times(self):
        cfg = _config()
        ts = time_grid(cfg)
        assert ts[1] < 1e-9 * cfg.t_final

    def test_plateau_on_the_dt_lattice(self):
        """50 ramp steps end just short of 4 dt; the plateau is 5 dt .. 64 dt."""
        ts = time_grid(_config(dt=1.0 / 64))
        assert len(ts) - 1 == 110
        assert 4.0 / 64 - 1e-6 < ts[50] < 4.0 / 64
        np.testing.assert_array_equal(ts[51:], np.arange(5, 65) / 64)


def _band_to_dense(band, kl):
    """The matrix a row-band array holds: band[i, d] is A[i, i + d - kl].
    Raises if an entry that lies outside the matrix is not zero."""
    n = len(band)
    A = np.zeros((n, n))
    for d in range(band.shape[1]):
        i = np.arange(n)
        j = i + d - kl
        inside = (j >= 0) & (j < n)
        assert np.all(band[~inside, d] == 0.0)
        A[i[inside], j[inside]] = band[inside, d]
    return A


def _lapack_to_dense(ab, kl, ku):
    """The matrix LAPACK band storage holds: A[i, j] at ab[kl + ku + i - j, j].
    Raises if the kl fill rows or a corner entry are not zero."""
    n = ab.shape[1]
    A = np.zeros((n, n))
    for r in range(ab.shape[0]):
        j = np.arange(n)
        i = j + r - kl - ku
        inside = (r >= kl) & (i >= 0) & (i < n)
        assert np.all(ab[r, ~inside] == 0.0)
        A[i[inside], j[inside]] = ab[r, inside]
    return A


def _dense_system(cfg, dt):
    """Row-scaled time-step matrix, row by row in dense numpy, straight from
    the stencil definitions: interior rows I - dt (alpha_hat D6 - D4),
    one-sided wall/far rows, and the two mass-balance rows (edge trapezoid
    weights / dt plus dx-summed first or last eight interior rows)."""
    n, dx, ah, p = cfg.grid.nx, cfg.grid.dx, cfg.alpha_hat, BC_ORDER
    h = 3 if ah > 0 else 2
    d4 = np.array([1.0, -4.0, 6.0, -4.0, 1.0]) / dx ** 4
    d6 = np.array([1.0, -6.0, 15.0, -20.0, 15.0, -6.0, 1.0]) / dx ** 6
    A = np.zeros((n, n))
    for i in range(h, n - h):
        if ah > 0:
            A[i, i - 3:i + 4] = ah * d6
        A[i, i - 2:i + 3] -= d4
    M = np.eye(n) - dt * A

    def weights(order):
        return fd_weights(np.arange(float(order + p)), 0.0, order) / dx ** order

    def wall(*terms):
        row = np.zeros(n)
        for c, w in terms:
            row[:len(w)] += c * w
        return row

    w1, w2, w3 = (weights(k) for k in (1, 2, 3))
    M[0] = wall((1.0, w1), (-ah, w3)) if ah > 0 else wall((1.0, w1))
    M[n - 1] = np.eye(n)[n - 1]
    if ah > 0:
        M[1] = wall((1.0, w2))
        M[n - 2] = np.zeros(n)
        M[n - 2, n - len(w1):] = -w1[::-1]
    SL = np.zeros(n)
    for i in range(h, h + 8):
        SL += dx * A[i]
    SL[h + 3:] = 0.0
    SR = np.zeros(n)
    for i in range(n - 1 - h - 7, n - h):
        SR += dx * A[i]
    SR[:n - h - 3] = 0.0
    WL = np.zeros(n)
    WL[:h] = dx
    WL[0] = dx / 2
    WR = np.zeros(n)
    WR[n - h:] = dx
    WR[n - 1] = dx / 2
    M[h - 1] = WL / dt + SL
    M[n - h] = WR / dt + SR
    return M / np.abs(M).max(axis=1)[:, None]


class TestSystemAssembly:
    @pytest.mark.parametrize("alpha_hat", [0.0, 0.307])
    def test_matches_dense_reference(self, alpha_hat):
        cfg = _config(grid=Grid(L=8.0, nx=64), alpha_hat=alpha_hat)
        op = assemble_operator(cfg)
        for dt in (1e-3, 1.0 / 512, 3e-9):
            band, _ = op._scaled_band(dt)
            got = _band_to_dense(band, op.kl)
            ref = _dense_system(cfg, dt)
            np.testing.assert_array_equal(got != 0, ref != 0)
            np.testing.assert_allclose(got, ref, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("alpha_hat", [0.0, 0.307])
    def test_lapack_storage_matches_dense(self, monkeypatch, alpha_hat):
        """What dgbtrf is handed, expanded from LAPACK band storage, is the
        dense reference system, and its factors solve that system."""
        handed = []

        def capturing(ab, kl, ku):
            handed.append((ab.copy(), kl, ku))
            return factor(ab, kl, ku)

        factor = oracle._factor
        monkeypatch.setattr(oracle, "_factor", capturing)
        cfg = _config(alpha_hat=alpha_hat)
        op = assemble_operator(cfg)
        b = np.cos(np.arange(op.n))
        for dt in (1e-3, 1.0 / 512, 3e-9):
            lu_solve = op._system_for_dt(dt)[0]
            ab, kl, ku = handed[-1]
            assert ab.shape == (2 * op.kl + op.ku + 1, op.n) and (kl, ku) == (op.kl, op.ku)
            got = _lapack_to_dense(ab, kl, ku)
            ref = _dense_system(cfg, dt)
            np.testing.assert_array_equal(got != 0, ref != 0)
            np.testing.assert_allclose(got, ref, rtol=1e-15, atol=0)
            x = lu_solve(b.copy())
            # normwise backward error, eps-sized for partial-pivoting LU
            bound = np.abs(got).sum(axis=1).max() * np.max(np.abs(x)) + np.max(np.abs(b))
            assert np.max(np.abs(got @ x - b)) <= 1e-14 * bound

    def test_singular_band_raises_divergence(self):
        """An exactly singular system is a DivergenceError (CLI exit 3)."""
        kl, ku, n = 3, 5, 16
        ab = np.zeros((2 * kl + ku + 1, n), order="F")
        ab[kl + ku] = 1.0
        ab[kl + ku - 2, 2:] = 0.5
        ab[:, 7] = 0.0
        with pytest.raises(DivergenceError, match="column 7"):
            oracle._factor(ab, kl, ku)

    @pytest.mark.parametrize("alpha_hat", [0.0, 0.307])
    def test_every_row_has_one_role(self, alpha_hat):
        """Interior, wall/far and balance rows partition the system."""
        op = assemble_operator(_config(alpha_hat=alpha_hat))
        interior = set(range(op.interior_lo, op.interior_hi + 1))
        bc, bal = set(op.bc_rows), set(op.balance_rows)
        assert not bc & bal and not bc & interior and not bal & interior
        assert bc | bal | interior == set(range(op.n))
        assert bal == {op.interior_lo - 1, op.n - op.interior_lo}


@pytest.mark.parametrize("snapshots, factorizations", [((), 28),
                                                       ((0.1, 0.3, 0.55, 0.8), 40)],
                         ids=["no-snapshots", "four-snapshots"])
def test_factorization_count(monkeypatch, snapshots, factorizations):
    """One factorization per distinct step length, except that a plateau
    interrupted by a snapshot split goes on with its kept LU."""
    calls = []

    def counting(*args):
        calls.append(args)
        return factor(*args)

    factor = oracle._factor
    monkeypatch.setattr(oracle, "_factor", counting)
    solve(_config(dt=1.0 / 64, snapshot_times=snapshots))
    assert len(calls) == factorizations


@pytest.mark.parametrize("dt", [1.0 / 100, 1e-3])
def test_plateau_dt_off_the_dyadics_refactors_no_more(monkeypatch, dt):
    """A plateau dt that is not a power of two factors at most twice more
    than dt = 1/64: its full ramp and plateau steps are taken as exactly
    dt/2^s, not as differences of rounded lattice times."""
    calls = []
    factor = oracle._factor
    monkeypatch.setattr(oracle, "_factor", lambda *args: calls.append(args) or factor(*args))
    counts = []
    for plateau_dt in (1.0 / 64, dt):
        calls.clear()
        solve(_config(dt=plateau_dt))
        counts.append(len(calls))
    assert counts[1] <= counts[0] + 2
