"""Finite-difference solver: operator exactness, convergence, conservation."""

import gc
import math
import os
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (apply_stencil, chemical_potential, continuity_residual, edge_or, energy,
                      flux, mullins_profile)
from gbgroove import oracle, reference
from gbgroove.oracle import (
    BC_ORDER,
    LATTICE_STEPS,
    MAX_NODES,
    MAX_STEPS,
    RAMP_STAGES,
    RAMP_STEPS,
    ConfigError,
    DivergenceError,
    Grid,
    Profile,
    SolverConfig,
    assemble_operator,
    fd_weights,
    mass,
    solve,
    time_steps,
)
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

    def test_node_cap(self):
        _config(grid=Grid(L=8.0, nx=MAX_NODES))
        with pytest.raises(ConfigError):
            _config(grid=Grid(L=8.0, nx=MAX_NODES + 1))

    @pytest.mark.parametrize("field", ["alpha_hat", "m"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameters(self, field, value):
        # a nan alpha_hat fails every alpha_hat > 0 test and would solve
        # the alpha = 0 problem; a nan m would march until DivergenceError
        with pytest.raises(ConfigError, match=field):
            _config(**{field: value})

    def test_step_cap(self):
        _config(dt=1.0 / MAX_STEPS)
        for dt in (0.5 / MAX_STEPS, 1e-9, 5e-324):
            with pytest.raises(ConfigError):
                _config(dt=dt)

    @pytest.mark.parametrize("L, t_final, alpha_hat, match", [
        # 8 t_final^(1/4) = 8e-15: an absolute slack of 1e-12 admitted any L
        (1e-300, 1e-60, 0.0, "dx"),
        (6.4e-40, 1e-60, 0.0, "domain"),
        # sqrt(alpha_hat)/4 = 2.5e-21: an absolute slack of 1e-15 admitted dx 1e-15
        (6.4e-14, 1e-60, 1e-40, "wall layer"),
        # the capped step t_final / 32 rounded to 0
        (8.0, 5e-324, 0.0, "t_final"),
        # dx ** 4 overflowed
        (1e300, 1.0, 0.0, "dx"),
    ])
    def test_tiny_and_huge_configs(self, L, t_final, alpha_hat, match):
        with pytest.raises(ConfigError, match=match):
            SolverConfig(grid=Grid(L=L, nx=65), dt=1.0 / 64, t_final=t_final,
                         alpha_hat=alpha_hat, m=M_FIG)

    @given(L=edge_or(8.0, 4.0, 16.0), dt=edge_or(1.0 / 64, 1.0 / 1024, 1.0),
           t_final=edge_or(1.0, 1e-2, 0.25), alpha_hat=edge_or(AH_FIG, 0.0, 0.56, 1.0),
           m=edge_or(M_FIG, -1.0))
    @settings(derandomize=True, max_examples=500, deadline=None)
    def test_solve_finite_or_config_or_divergence_error(self, L, dt, t_final, alpha_hat, m):
        """Any floats give finite heights at nx 65, or a ConfigError or
        DivergenceError, with no warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                profile = solve(SolverConfig(grid=Grid(L=L, nx=65), dt=dt, t_final=t_final,
                                             alpha_hat=alpha_hat, m=m))[-1]
            except (ConfigError, DivergenceError):
                return
        assert np.isfinite(profile.heights).all()


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
        assert np.all(apply_stencil(op, np.zeros(513)) == 0.0)

    def test_linears_annihilated(self):
        # centered stencils kill linears exactly; the leftover is pure
        # roundoff at the operator's row scale
        op = assemble_operator(_config())
        x = op.config.grid.nodes
        res = apply_stencil(op, x)
        row_scale = 20 * op.config.alpha_hat / op.dx ** 6 + 6 / op.dx ** 4
        assert np.max(np.abs(res)) < 1e-12 * np.max(np.abs(x)) * row_scale

    def test_alpha_zero_reduces_to_fourth_order(self):
        cfg = _config(alpha_hat=0.0)
        op = assemble_operator(cfg)
        x = op.config.grid.nodes
        y = np.sin(x)
        res = apply_stencil(op, y)
        interior = slice(op.interior_lo, op.interior_hi + 1)
        # -D4 sin = -sin + O(dx^2)
        assert np.max(np.abs(res[interior] + np.sin(x[interior]))) < 5e-4

    def test_sixth_order_term_present(self):
        cfg = _config()
        op = assemble_operator(cfg)
        x = op.config.grid.nodes
        y = np.sin(x)
        res = apply_stencil(op, y)
        interior = slice(op.interior_lo, op.interior_hi + 1)
        # (ah D6 - D4) sin = -(ah + 1) sin + O(dx^2)
        expect = -(cfg.alpha_hat + 1.0) * np.sin(x[interior])
        assert np.max(np.abs(res[interior] - expect)) < 5e-3

    def test_bandwidth_bound(self):
        """The bandwidths are read off the rows: tight, and within 9."""
        for alpha_hat, kl, ku in ((0.0, 2, 3), (AH_FIG, 3, 5)):
            op = assemble_operator(_config(alpha_hat=alpha_hat))
            rows, cols = _operator_dense(op, 1.0 / 512).nonzero()
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
        row = _operator_dense(op, 1e-5)[0]
        assert float(row @ y) == pytest.approx(cfg.m / 2, rel=1e-9)

    def test_unpassivated_wall_slope(self):
        cfg = _config(alpha_hat=0.0, grid=Grid(L=8.0, nx=513))
        y = assemble_operator(cfg).advance(np.zeros(513), 1e-4)
        w1 = fd_weights(np.arange(4.0), 0.0, 1) / cfg.grid.dx
        assert float(w1 @ y[:4]) == pytest.approx(cfg.m / 2, rel=1e-6)

    def test_step_leaves_its_input_and_keeps_nothing_it_returns(self):
        """advance works in one fresh array: z stays bit-identical, and the
        result shares no memory with z, the kept factors or the previous
        step's result, which keeps its values."""
        op = assemble_operator(_config())
        z = np.cos(np.arange(op.n) * 0.01)
        before = z.copy()
        first = op.advance(z, 1.0 / 512)
        kept = first.copy()
        second = op.advance(first, 1.0 / 512, 1.0)
        solve_ii, *kept_system = op._last[1]
        kept_system += [cell.cell_contents for cell in solve_ii.__closure__]
        arrays = [a for a in kept_system if isinstance(a, np.ndarray)]
        # G, c0, H, the unit-diagonal factor and the squared pivots
        assert len(arrays) == 5
        np.testing.assert_array_equal(z, before)
        np.testing.assert_array_equal(first, kept)
        for out, other in [(first, z), (second, z), (second, first)]:
            assert not np.shares_memory(out, other)
        for out in (first, second):
            assert not any(np.shares_memory(out, a) for a in arrays)

    def test_replaced_factors_are_freed_by_reference_count(self):
        """A system replaced by the next step length's frees its factors at
        once: the solve closure holds no reference cycle, which would keep
        each discarded factor until the cycle collector ran (2 MB of peak
        memory over a 48-factorization march)."""
        op = assemble_operator(_config())
        z = np.cos(np.arange(op.n) * 0.01)
        op.advance(z, 1.0 / 512)
        old = weakref.ref(op._last[1][0])
        gc.disable()
        try:
            op.advance(z, 1.0 / 256)
            assert old() is None
        finally:
            gc.enable()

    def test_step_in_a_given_buffer(self):
        """advance(..., out=b) writes the fresh-array step's bits into b and
        returns b, whether b is z itself or another buffer, which leaves z
        unchanged."""
        op = assemble_operator(_config())
        z = np.cos(np.arange(op.n) * 0.01)
        before = z.copy()
        for w in (0.0, 1.0):
            fresh = op.advance(z, 1.0 / 512, w)
            other = np.full(op.n, np.nan)
            start = z.copy()
            assert op.advance(z, 1.0 / 512, w, out=other) is other
            assert op.advance(start, 1.0 / 512, w, out=start) is start
            np.testing.assert_array_equal(other, fresh)
            np.testing.assert_array_equal(start, fresh)
        np.testing.assert_array_equal(z, before)

    @pytest.mark.parametrize("order", ["1d", "F", "C"])
    def test_factor_solves_in_place(self, order):
        """_factor's solve of a random symmetric positive definite band
        matrix, given in lower band storage, matches a dense solve with an
        eps-sized backward error and writes the solution into its argument,
        also where f2py has to copy it (a C-ordered block)."""
        rng = np.random.default_rng(7)
        m, kd = 40, 3
        ab = rng.uniform(-1.0, 1.0, (kd + 1, m))
        for d in range(1, kd + 1):
            ab[d, m - d:] = 0.0
        A = np.zeros((m, m))
        for d in range(kd + 1):
            A[np.arange(d, m), np.arange(m - d)] = ab[d, :m - d]
            A[np.arange(m - d), np.arange(d, m)] = ab[d, :m - d]
        ab[0] = A[np.arange(m), np.arange(m)] = 2.0 * np.abs(A).sum(axis=1)
        b = rng.standard_normal((m,) if order == "1d" else (m, 3))
        if order != "1d":
            b = np.asarray(b, order=order)
        x = b.copy(order="K")
        assert oracle._factor(np.asfortranarray(ab))(x) is x
        np.testing.assert_allclose(x, np.linalg.solve(A, b), rtol=0, atol=1e-14 * np.abs(x).max())
        residual = np.abs(A @ x - b).max()
        assert residual <= 4 * np.finfo(float).eps * (np.abs(A).sum(axis=1).max()
                                                         * np.abs(x).max() + np.abs(b).max())

    @pytest.mark.parametrize("rhs", ["contiguous", "strided", "F block"])
    def test_factor_solves_the_interior_block(self, rhs):
        """_factor's solve of a step system's interior block A_II = I - h
        stencil has the eps-sized normwise backward error of a dense solve
        of A_II, and works in place: for a contiguous vector, for a strided
        view (which f2py copies, so the result is copied back) and for a
        Fortran m x 3 block, solved column by column.  A_II's condition
        number, 4e8 in the infinity norm here, bounds how far the solution
        may stray from the dense one."""
        op = assemble_operator(_config())
        lo, h = op.interior_lo, 1.0 / 4096
        m = op.interior_hi - lo + 1
        col = -h * op.stencil[lo:]
        col[0] += 1.0
        A = sum(np.diag(np.full(m - d, col[d]), -d) + (np.diag(np.full(m - d, col[d]), d)
                                                       if d else 0.0) for d in range(lo + 1))
        solve_ii = oracle._factor(np.asfortranarray(np.repeat(col[None, :], m, axis=0).T))
        rng = np.random.default_rng(11)
        if rhs == "F block":
            b = np.asfortranarray(rng.standard_normal((m, 3)))
            x = b.copy(order="F")
        elif rhs == "strided":
            b = rng.standard_normal(m)
            x = np.zeros(2 * m)[::2]
            x[...] = b
        else:
            b = rng.standard_normal(m)
            x = b.copy()
        assert solve_ii(x) is x
        dense = np.linalg.solve(A, b)
        kappa = np.linalg.cond(A, p=np.inf)
        np.testing.assert_allclose(x, dense, rtol=0,
                                   atol=kappa * np.finfo(float).eps * np.abs(dense).max())
        residual = np.abs(A @ x - b).max()
        assert residual <= 4 * np.finfo(float).eps * (np.abs(A).sum(axis=1).max()
                                                         * np.abs(x).max() + np.abs(b).max())

    def test_time_step_order(self):
        """Richardson order: p ~ 1 for a backward-Euler step on a smooth
        continuation, p ~ 2 for a whole solve (ramp plus BDF2 plateau).

        With errors C dt^p the ratio |y_dt - y_dt/4| / |y_dt/2 - y_dt/4|
        tends to (4^p - 1)/(2^p - 1): 3 at first order, 5 at second.  The
        whole solves start at dt = t_final / LATTICE_STEPS, the largest
        plateau step a solve takes.
        """
        def ratio(coarse, mid, fine):
            return np.max(np.abs(coarse - fine)) / np.max(np.abs(mid - fine))

        grid = Grid(L=8.0, nx=257)
        base = solve(_config(grid=grid, dt=1.0 / 128, t_final=0.5))[-1]
        op = assemble_operator(_config(grid=grid))
        backward = []
        for nsteps in (16, 32, 64):
            y = base.heights.copy()
            for _ in range(nsteps):
                y = op.advance(y, 0.5 / nsteps)
            backward.append(y)
        assert ratio(*backward) == pytest.approx(3.0, abs=0.7)

        marched = [solve(_config(grid=grid, dt=1.0 / nsteps))[-1].heights
                   for nsteps in (LATTICE_STEPS, 2 * LATTICE_STEPS, 4 * LATTICE_STEPS)]
        assert ratio(*marched) == pytest.approx(5.0, abs=1.5)


class TestSolve:
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

    @pytest.mark.parametrize("alpha_hat", [0.05, AH_FIG, 0.56])
    def test_matches_exact_reference_at_1025_nodes(self, alpha_hat):
        """On L = 16, 1025 nodes keep the CLI's dx = 1/64, and with it the
        1e-4 of depth to the Laplace-Talbot solution on the same box."""
        cfg = _config(grid=Grid(L=16.0, nx=1025), dt=1.0 / 64, alpha_hat=alpha_hat)
        ref = exact_profile(cfg.grid.nodes, 1.0, cfg.m, alpha_hat, L=cfg.grid.L)
        err = np.max(np.abs(solve(cfg)[-1].heights - ref))
        assert err <= 1e-4 * abs(ref[0])

    def test_refinement_contraction(self):
        """Doubling the grid shrinks the solution change by >= 3.5x.

        Grids stay modest: on L = 8, past nx ~ 769 (dx ~ 1/96) the
        roundoff, which follows alpha_hat / dx^6, makes the error grow with
        nx (see MAX_NODES).
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
    """Solves to 1/16, 1/4, 1/2 and 1: on the dt lattice, each is a prefix
    of the march to 1, bit for bit."""
    snaps = [solve(_config(t_final=t))[-1] for t in (0.0625, 0.25, 0.5, 1.0)]
    return _config(), snaps


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
        """The mass-balance residual shrinks as the pair of solve times
        tightens (midpoint-flux time error dominates at wide spacing)."""
        cfg = _config()
        snaps = {t: solve(_config(t_final=t))[-1] for t in (0.5, 0.875, 1.0)}
        interior = slice(8, -8)

        def level(t0):
            res = continuity_residual(snaps[t0], snaps[1.0], cfg.alpha_hat)
            return np.max(np.abs(res[interior]))

        assert level(0.875) < level(0.5)


# the schedule tests' grid of plateau dt and t_final
SCHEDULE_T_FINALS = pytest.mark.parametrize("t_final", [1.0, 0.5, 0.3, 1e-3, 2.0])
SCHEDULE_DTS = pytest.mark.parametrize(
    "dt", [2.0 ** -k for k in range(2, 13)] + [1 / 100, 1e-3, 1 / 3], ids=lambda dt: f"{dt:.6g}")


def _schedule_config(dt, t_final):
    return _config(grid=Grid(L=8.0 * max(t_final, 1.0) ** 0.25, nx=64),
                   alpha_hat=0.0, dt=dt, t_final=t_final)


class TestTimeGrid:
    def test_covers_interval(self):
        cfg = _config()
        steps = time_steps(cfg)
        assert min(steps) > 0.0
        assert math.fsum(steps) == pytest.approx(cfg.t_final, rel=1e-14)

    def test_ramp_resolves_early_times(self):
        """At t = 1e-2, 55 steps after the start (18 of them the ramp's
        backward-Euler steps), the solver sits within 5e-4 of depth of the
        Laplace-Talbot solution on the same box."""
        for alpha_hat in (0.05, AH_FIG, 0.56):
            cfg = _config(dt=1.0 / 4096, t_final=1e-2, alpha_hat=alpha_hat)
            ref = exact_profile(cfg.grid.nodes, cfg.t_final, cfg.m, alpha_hat, L=cfg.grid.L)
            err = np.max(np.abs(solve(cfg)[-1].heights - ref))
            assert err <= 5e-4 * abs(ref[0]), alpha_hat

    def test_short_solve_takes_full_plateau_steps(self):
        """A solve to t_final 1e-2 at dt 1/64 caps its plateau step at
        t_final / LATTICE_STEPS, so it ends on full BDF2 steps and sits within
        1e-3 of depth of the Laplace-Talbot solution on the same box (a cap
        of t_final/4 missed by 2e-2)."""
        for alpha_hat in (0.05, AH_FIG, 0.56):
            cfg = _config(dt=1.0 / 64, t_final=1e-2, alpha_hat=alpha_hat)
            ref = exact_profile(cfg.grid.nodes, cfg.t_final, cfg.m, alpha_hat, L=cfg.grid.L)
            err = np.max(np.abs(solve(cfg)[-1].heights - ref))
            assert err <= 1e-3 * abs(ref[0]), alpha_hat

    def test_plateau_on_the_dt_lattice(self):
        """The ramp's steps end at (4 - 2^(2 - RAMP_STAGES)) dt, just short of
        4 dt; the plateau is 5 dt .. 64 dt."""
        steps = time_steps(_config(dt=1.0 / 64))
        ramp = RAMP_STAGES * RAMP_STEPS
        assert len(steps) == ramp + 60 == 78
        assert steps[ramp] == pytest.approx(1.0 / 64 * (1 + 2.0 ** (2 - RAMP_STAGES)), rel=1e-12)
        assert steps[ramp + 1:] == [1.0 / 64] * 59

    @SCHEDULE_T_FINALS
    @SCHEDULE_DTS
    def test_schedule_shape(self, dt, t_final):
        """Exact dyadic ramp stages, exact plateau steps, t_final reached, and
        every BDF2 step ratio below 1 + sqrt(2), where variable-step BDF2 is
        zero-stable: solve takes every post-ramp step as BDF2."""
        steps = time_steps(_schedule_config(dt, t_final))
        plateau = min(dt, t_final / LATTICE_STEPS)
        ramp = RAMP_STAGES * RAMP_STEPS
        assert steps[:ramp] == [plateau / 2.0 ** (RAMP_STAGES - 1 - k // RAMP_STEPS)
                                for k in range(ramp)]
        # steps between the first plateau step and the last are full ones
        assert steps[ramp + 1:-1] == [plateau] * (len(steps) - ramp - 2)
        assert math.fsum(steps) == pytest.approx(t_final, rel=1e-13)
        ratios = [b / a for a, b in zip(steps[ramp - 1:], steps[ramp:])]
        assert max(ratios) < 1.0 + math.sqrt(2.0)

    @SCHEDULE_T_FINALS
    @SCHEDULE_DTS
    def test_no_step_returns_to_an_earlier_system(self, monkeypatch, dt, t_final):
        """Each effective step h = dt (1+w)/(1+2w), as advance forms it from
        solve's (dt, w), occurs in one contiguous run, and each run factors
        once: the one kept factorization serves every reuse.  The distinct
        (dt, w) pairs count the factorizations too, as the benchmark's
        tracer counts them."""
        pairs, hs, calls = [], [], []
        advance = oracle.GrooveOperator.advance
        system_for_dt = oracle.GrooveOperator._system_for_dt
        factor = oracle._factor
        monkeypatch.setattr(oracle.GrooveOperator, "advance", lambda op, z, dt, w=0.0, **kw:
                            pairs.append((dt, w)) or advance(op, z, dt, w, **kw))
        monkeypatch.setattr(oracle.GrooveOperator, "_system_for_dt",
                            lambda op, h: hs.append(h) or system_for_dt(op, h))
        monkeypatch.setattr(oracle, "_factor", lambda *args: calls.append(args) or factor(*args))
        solve(_schedule_config(dt, t_final))
        runs = [h for k, h in enumerate(hs) if k == 0 or h != hs[k - 1]]
        assert len(runs) == len(set(runs)) == len(calls) == len(set(pairs))


def _operator_dense(op, h):
    """The step system of length h that op holds, as a dense matrix: I - h
    stencil on the interior rows, and the edge block _edge_C + _edge_W / h
    on the rows _edge and the columns _gather."""
    lo = op.interior_lo
    A = np.zeros((op.n, op.n))
    for i in range(lo, op.interior_hi + 1):
        A[i, i - lo:i + lo + 1] = -h * op.stencil
        A[i, i] += 1.0
    A[np.ix_(op._edge, op._gather)] = op._edge_C + op._edge_W / h
    return A


def _row_scaled(M):
    """M with each row divided by its largest magnitude."""
    return M / np.abs(M).max(axis=1)[:, None]


def _dense_system(cfg, dt):
    """Time-step matrix, row by row in dense numpy, straight from the
    stencil definitions: interior rows I - dt (alpha_hat D6 - D4),
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
    return M


class TestSystemAssembly:
    @pytest.mark.parametrize("alpha_hat", [0.0, 0.307])
    def test_matches_dense_reference(self, alpha_hat):
        cfg = _config(grid=Grid(L=8.0, nx=64), alpha_hat=alpha_hat)
        op = assemble_operator(cfg)
        for dt in (1e-3, 1.0 / 512, 3e-9):
            got = _row_scaled(_operator_dense(op, dt))
            ref = _row_scaled(_dense_system(cfg, dt))
            np.testing.assert_array_equal(got != 0, ref != 0)
            np.testing.assert_allclose(got, ref, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("alpha_hat", [0.0, 0.307])
    def test_factors_solve_dense_system(self, alpha_hat):
        """A step solved with the interior's Cholesky factors and the edge
        Schur complement solves the dense reference system, row-scaled, with
        an eps-sized normwise backward error."""
        cfg = _config(alpha_hat=alpha_hat)
        op = assemble_operator(cfg)
        edge = np.r_[0:op.interior_lo, op.interior_hi + 1:op.n]
        z = np.cos(np.arange(op.n))
        for dt in (1e-3, 1.0 / 512, 3e-9):
            x = op.advance(z, dt)
            # the right-hand side advance solves for: z on the interior rows,
            # the conditions' values and the balance rows' W @ z / dt
            b = z.copy()
            b[edge] = op.bc + op._edge_W @ z[op._gather] / dt
            M = _dense_system(cfg, dt)
            scale = np.abs(M).max(axis=1)
            M, b = M / scale[:, None], b / scale
            bound = np.abs(M).sum(axis=1).max() * np.max(np.abs(x)) + np.max(np.abs(b))
            assert np.max(np.abs(M @ x - b)) <= 1e-14 * bound

    def test_singular_band_raises_divergence(self):
        """An interior block that is not positive definite is a
        DivergenceError (CLI exit 3), not a LAPACK error."""
        ab = np.zeros((4, 16), order="F")
        ab[0] = 1.0
        ab[1] = 0.5
        ab[0, 7] = -1.0
        with pytest.raises(DivergenceError, match="order 8"):
            oracle._factor(ab)

    def test_singular_edge_system_raises_divergence(self):
        """An exactly singular edge Schur complement is a DivergenceError,
        not numpy's LinAlgError, which the CLI would not turn into exit 3."""
        op = assemble_operator(_config())
        op._edge_C[0] = 0.0     # the wall slope row, all zero
        with pytest.raises(DivergenceError, match="Schur"):
            op.advance(np.zeros(op.n), 1e-3)

    @pytest.mark.parametrize("alpha_hat", [0.0, 0.307])
    def test_every_row_has_one_role(self, alpha_hat):
        """Interior, wall/far and balance rows partition the system: the
        balance rows are the edge rows with a nonzero W."""
        op = assemble_operator(_config(alpha_hat=alpha_hat))
        interior = set(range(op.interior_lo, op.interior_hi + 1))
        is_bal = op._edge_W.any(axis=1)
        bc, bal = set(op._edge[~is_bal].tolist()), set(op._edge[is_bal].tolist())
        assert len(bc) + len(bal) == len(op._edge)
        assert not bc & bal and not bc & interior and not bal & interior
        assert bc | bal | interior == set(range(op.n))
        assert bal == {op.interior_lo - 1, op.n - op.interior_lo}


def test_factorization_count(monkeypatch):
    """A default solve (nx 513, dt 1/64) factors 12 systems, one per distinct
    system: the RAMP_STAGES ramp stages, the first two plateau steps (step
    ratios just off 1) and the rest at ratio 1."""
    calls = []

    def counting(*args):
        calls.append(args)
        return factor(*args)

    factor = oracle._factor
    monkeypatch.setattr(oracle, "_factor", counting)
    solve(_config(dt=1.0 / 64))
    assert len(calls) == RAMP_STAGES + 3 == 12


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


def test_solve_advances_once_per_step_with_z_dt_w(monkeypatch):
    """solve calls advance once per entry of time_steps, each time with
    exactly (z, dt, w) as positional arguments, as the benchmark's tracer
    unpacks them: w is 0 on the ramp and the step ratio after it."""
    cfg = _config(dt=1.0 / 64)
    calls = []
    advance = oracle.GrooveOperator.advance

    def recording(op, *args, **kw):
        calls.append(args)
        return advance(op, *args, **kw)

    monkeypatch.setattr(oracle.GrooveOperator, "advance", recording)
    solve(cfg)
    steps = time_steps(cfg)
    ramp = RAMP_STAGES * RAMP_STEPS
    assert [len(args) for args in calls] == [3] * len(steps)
    assert all(isinstance(z, np.ndarray) and z.shape == (cfg.grid.nx,) for z, _, _ in calls)
    assert [dt for _, dt, _ in calls] == steps
    assert [w for _, _, w in calls] == [0.0] * ramp + [
        b / a for a, b in zip(steps[ramp - 1:], steps[ramp:])]


@pytest.mark.parametrize("k", [6, -3])
def test_march_raises_divergence_naming_the_step(monkeypatch, k):
    """A NaN injected into one step length's system mid-march (a ramp stage,
    then the plateau's BDF2 step) makes solve raise DivergenceError naming
    that step length, not Profile's error at the end."""
    cfg = _config(dt=1.0 / 64)
    steps = time_steps(cfg)
    k %= len(steps)
    dt = steps[k]
    w = dt / steps[k - 1] if k >= RAMP_STAGES * RAMP_STEPS else 0.0
    poisoned = dt * (1.0 + w) / (1.0 + 2.0 * w)
    system_for_dt = oracle.GrooveOperator._system_for_dt

    def poisoning(op, h):
        solve_ii, G, c0, H, dgemv = system_for_dt(op, h)
        if h == poisoned:
            c0 = np.full_like(c0, np.nan)
        return solve_ii, G, c0, H, dgemv

    monkeypatch.setattr(oracle.GrooveOperator, "_system_for_dt", poisoning)
    with pytest.raises(DivergenceError, match=f"run of dt = {dt:.3e} steps"):
        solve(cfg)


# the f2py signature lines of the four routines the solver calls; dtbsv and
# dgemv are called with positional arguments, so any change must fail here
_WRAPPER_SIGNATURES = {
    "dtbsv": "xout = dtbsv(k,a,x,[incx,offx,lower,trans,diag,overwrite_x])",
    "dgemv": "y = dgemv(alpha,a,x,[beta,y,offx,incx,offy,incy,trans,overwrite_y])",
    "dpbtrf": "c,info = dpbtrf(ab,[lower,ldab,overwrite_ab])",
    "dgesv": "lu,piv,x,info = dgesv(a,b,[overwrite_a,overwrite_b])",
}


def test_wrappers_carry_the_signatures_the_calls_are_written_for():
    """The four routines the solver takes from scipy.linalg.blas and
    scipy.linalg.lapack have the signature lines its calls are written for."""
    from scipy.linalg import blas, lapack
    lines = {n: getattr(blas if n in ("dtbsv", "dgemv") else lapack, n).__doc__.splitlines()[0]
             for n in _WRAPPER_SIGNATURES}
    assert lines == _WRAPPER_SIGNATURES


def test_solve_loads_no_scipy_sparse():
    """A solve, in a fresh interpreter, loads no scipy.sparse module, and a
    later ``import scipy.linalg`` finds SciPy's BLAS and LAPACK extension
    modules on the package."""
    code = ("import sys\n"
            "from gbgroove import oracle\n"
            "cfg = oracle.SolverConfig(grid=oracle.Grid(L=8.0, nx=129), dt=1 / 64, "
            "t_final=1.0, alpha_hat=0.3, m=0.209)\n"
            "oracle.solve(cfg)\n"
            "sparse = [m for m in sys.modules if m == 'scipy.sparse' "
            "or m.startswith('scipy.sparse.')]\n"
            "assert not sparse, sparse\n"
            "import scipy.linalg\n"
            "assert hasattr(scipy.linalg, '_fblas') and hasattr(scipy.linalg, '_flapack')\n")
    src = Path(__file__).resolve().parents[1] / "src"
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       env=dict(os.environ, PYTHONPATH=str(src)))
    assert r.returncode == 0, r.stderr


# ---- the half-line modes ---------------------------------------------------

# the CLI's default spacing at these alpha_hat: 513 nodes on [0, 8]
DX_CLI = 1.0 / 64
HALFLINE_ALPHA_HATS = [0.0, 0.05, AH_FIG, 0.56]


class TestHalfLine:
    @pytest.mark.parametrize("dx", [DX_CLI, 8.0 / (MAX_NODES - 1)])
    @pytest.mark.parametrize("alpha_hat", HALFLINE_ALPHA_HATS)
    def test_matches_exact_half_line(self, alpha_hat, dx):
        """At the CLI's default spacing, and at its finest (nx 2049, dx
        1/256), the modes sit within 1e-4 of depth of the exact half-line
        solution over compare's widest window, [0, 12], at points off the
        nodes too (the BDF2 march on L = 8 missed it by 2.2e-3 to 1.1e-2).
        At dx 1/256 this needs the wall rows on z^j - 1: on z^j they lost
        2e-3."""
        x = np.linspace(0.0, 12.0, 601)
        ref = exact_profile(x, 1.0, M_FIG, alpha_hat)
        y, _ = oracle.halfline_profile(12.0, 601, 1.0, M_FIG, alpha_hat, dx)
        assert np.max(np.abs(y - ref)) <= 1e-4 * abs(ref[0])

    @pytest.mark.parametrize("alpha_hat", HALFLINE_ALPHA_HATS)
    def test_conjugate_half_is_the_whole_contour(self, alpha_hat):
        """The upper half of the contour, twice its real part, is the sum
        over all 24 nodes."""
        x = np.linspace(0.0, 12.0, 97)
        s, ds = reference._contour(reference._NODES, 1.0)
        c, _, log_z = oracle._wall_modes(s, M_FIG, alpha_hat, DX_CLI)
        weight = np.exp(s) * ds / (1j * reference._NODES)
        whole = np.einsum("ink,nk->i", np.exp(np.multiply.outer(x / DX_CLI, log_z)),
                          weight[:, None] * c).real
        half, _ = oracle.halfline_profile(12.0, 97, 1.0, M_FIG, alpha_hat, DX_CLI)
        assert np.max(np.abs(half - whole)) <= 1e-7 * abs(whole[0])

    @pytest.mark.parametrize("alpha_hat", HALFLINE_ALPHA_HATS)
    def test_bdf2_converges_onto_the_modes(self, alpha_hat):
        """The modes are the solver's own semi-discrete equations: on L = 16
        at the same dx, BDF2 closes on them as dt shrinks, with no Laplace
        inversion in the march.  Compared on [0, 8]: near L = 16 the far
        rows pin a tail the half-line still has (3e-4 of depth at
        alpha_hat 0.56)."""
        grid = Grid(L=16.0, nx=1025)
        x = grid.nodes[grid.nodes <= 8.0]
        modes, _ = oracle.halfline_profile(x[-1], len(x), 1.0, M_FIG, alpha_hat, grid.dx)
        err = [np.max(np.abs(solve(SolverConfig(grid=grid, dt=dt, t_final=1.0,
                                                alpha_hat=alpha_hat, m=M_FIG))[-1]
                             .heights[:len(x)] - modes)) / abs(modes[0])
               for dt in (1.0 / 64, 1.0 / 1024)]
        assert err[1] <= err[0] / 5.0
        assert err[1] <= 1e-5

    @pytest.mark.parametrize("alpha_hat", HALFLINE_ALPHA_HATS)
    def test_mass_is_conserved(self, alpha_hat):
        """The balance rows conserve the trapezoidal mass, so the half-line
        mass from a flat start is zero, here to 1e-5 of depth; it is the
        nodal heights' trapezoid sum, truncated where they have decayed, and
        does not depend on the points the heights are asked at."""
        y0, total = oracle.halfline_profile(0.0, 1, 1.0, M_FIG, alpha_hat, DX_CLI)
        depth = abs(y0[0])
        assert abs(total) <= 1e-5 * depth
        # the nodes of [0, 40], 2560 intervals of DX_CLI
        y, nodes_total = oracle.halfline_profile(40.0, 2561, 1.0, M_FIG, alpha_hat, DX_CLI)
        assert nodes_total == total
        assert total == pytest.approx(DX_CLI * (y.sum() - y[0] / 2.0), abs=1e-9 * depth)

    @pytest.mark.parametrize("alpha_hat", [0.0, 2.5e-4, AH_FIG, 0.56, 3.0])
    def test_window_sum_matches_the_per_point_sum(self, alpha_hat):
        """The block product over the window np.linspace(0, xmax, n) is the
        per-point `reference._mode_sum` on the same points, to 1e-14 of
        depth, from one sample to 16384; the mass is the per-mode formula,
        bit for bit."""
        dx = oracle.halfline_dx(alpha_hat)
        for t in (0.01, 1.0, 7.0):
            s, weight = reference._upper_contour(t, M_FIG, alpha_hat)
            c, zm1, log_z = oracle._wall_modes(s, M_FIG, alpha_hat, dx)
            want_mass = float((dx * (weight[:, None] * c * (-1.0 / zm1 - 0.5)).sum()).real)
            for xmax in (0.0, 8.0, 12.0):
                for n in (1, 2, 3, 399, 400, 401, 16384):
                    y, total = oracle.halfline_profile(xmax, n, t, M_FIG, alpha_hat, dx)
                    ref = reference._mode_sum(np.linspace(0.0, xmax, n) / dx, log_z, weight, c)
                    assert y.shape == (n,)
                    assert np.max(np.abs(y - ref)) <= 1e-14 * abs(ref[0]), (t, xmax, n)
                    assert total == want_mass

    @pytest.mark.parametrize("bad", [
        {"xmax": -1e-3}, {"xmax": math.nan}, {"xmax": math.inf},
        {"samples": 0}, {"samples": -1}, {"samples": 2.5}, {"samples": True},
        {"t": 0.0}, {"t": -1.0}, {"t": math.inf}, {"t": math.nan},
        {"m": math.nan}, {"m": math.inf},
        {"alpha_hat": -0.1}, {"alpha_hat": math.inf}, {"alpha_hat": math.nan},
        {"dx": 0.0}, {"dx": -DX_CLI}, {"dx": math.inf}, {"dx": math.nan},
        {"t": 1e300}, {"t": 5e-324}, {"alpha_hat": 5e-324}, {"alpha_hat": 1e300},
        {"dx": 1e300}, {"dx": 1e-300}, {"dx": 1e4}, {"dx": 1e-14},
        {"m": 1e308}, {"m": -1e308}, {"xmax": 1e308},
    ], ids=lambda bad: "-".join(f"{k}={v}" for k, v in bad.items()))
    def test_rejects_bad_arguments(self, bad):
        """Past the range float64 carries the modes raised LinAlgError (t =
        1e300 or 5e-324, alpha_hat = 5e-324) or OverflowError (dx = 1e300),
        or returned NaN (alpha_hat = 1e300, dx = 1e-300).  A grid too coarse
        or too fine for its modes (|q| dx^2 past [1e-24, 1e4]: dx = 1e4 and
        1e-14 at t = 1) is refused too, and so is an m or xmax of 1e308, which
        overflowed to NaN with a RuntimeWarning, and a samples count that is
        not an integer >= 1."""
        args = {"xmax": 2.0, "samples": 3, "t": 1.0, "m": M_FIG, "alpha_hat": AH_FIG,
                "dx": DX_CLI, **bad}
        with pytest.raises(ValueError):
            oracle.halfline_profile(**args)

    @given(xmax=edge_or(0.0, 0.5, 3.0, 12.0), samples=st.integers(1, 401),
           t=edge_or(1.0, 0.01, 7.0), m=edge_or(M_FIG, -1.0),
           alpha_hat=edge_or(AH_FIG, 0.05, 1e-3), dx=edge_or(DX_CLI, 1.0 / 256, 0.1))
    @settings(derandomize=True, max_examples=500, deadline=None)
    def test_finite_or_value_error(self, xmax, samples, t, m, alpha_hat, dx):
        """Any arguments give finite heights and mass or a ValueError, with
        no warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                y, total = oracle.halfline_profile(xmax, samples, t, m, alpha_hat, dx)
            except ValueError:
                return
        assert np.isfinite(y).all() and math.isfinite(total)

    @pytest.mark.parametrize("alpha_hat, dx", [
        (0.0, 1.0 / 64), (0.003, 8.0 / 585), (AH_FIG, 1.0 / 64), (1.0 / 4096, 1.0 / 256),
    ])
    def test_spacing_rule(self, alpha_hat, dx):
        """The column's spacing: 512 intervals of [0, 8] until the wall
        layer needs more, then the fewest with dx <= sqrt(alpha_hat)/4
        (585 at 0.003), down to dx 1/256 at alpha_hat 1/4096."""
        assert oracle.halfline_dx(alpha_hat) == dx

    def test_spacing_rule_refuses_past_the_finest_dx(self):
        """Just below alpha_hat 1/4096 the wall layer needs 2049 intervals,
        a dx below 1/256, which the rule refuses."""
        with pytest.raises(ValueError, match=r"^need dx >= 1/256, got dx = 0\.003904 "):
            oracle.halfline_dx(np.nextafter(1.0 / 4096, 0.0))
