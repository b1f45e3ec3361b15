"""Composite profile assembly, wall residuals, depth effect and metrics."""

import math

import numpy as np
import pytest

from conftest import (FIG_ALPHA, FIG_BT, FIG_M, bc_residuals, curvature_cancellation_residuals,
                      default_window, figure_params, groove_metrics, mullins_profile,
                      mullins_profile_dim, outer_term)
from gbgroove.composite import (ExpansionSpec, composite_profile_nd, depth_difference,
                                mullins_and_composite)
from gbgroove.layers import beta2, boundary_layer_G
from gbgroove.material import nondimensionalize

# window-truncated base-profile mass, 40-digit quadrature references
MULLINS_MASS_U8 = -1.566819592564333e-3     # per m (Bt)^(1/2), window u <= 8
MULLINS_MASS_U12 = +2.927037192332112e-5    # per m (Bt)^(1/2), window u <= 12
MULLINS_UM = 2.2999153905391874             # primary-maximum similarity abscissa
MULLINS_ZMAX = 0.09700718018893365


class TestCompositeAssembly:
    def test_unpassivated_limit(self):
        spec = ExpansionSpec(N=2)
        params = nondimensionalize(0.0, 1e-29, FIG_M)
        for x in (0.0, 3e-8, 1e-7):
            assert mullins_and_composite(x, 1e-29, params, spec)[1] == pytest.approx(
                mullins_profile_dim(x, 1e-29, params), rel=1e-14, abs=1e-30)

    def test_layer_extinguished_away_from_wall(self):
        params = figure_params(FIG_BT["fig4"])
        spec = ExpansionSpec(N=2)
        # x >> sqrt(alpha): composite minus outer == 0 to machine precision
        x = 60.0 * math.sqrt(params.alpha)
        with_layer = composite_profile_nd(x / params.L0, 1.0, params.m,
                                          params.alpha_hat, spec)
        outer_only = (mullins_profile(x / params.L0, 1.0, params.m)
                      + sum(params.alpha_hat ** r *
                            outer_term(r, x / params.L0, 1.0, params.m)
                            for r in (1, 2)))
        assert with_layer == pytest.approx(outer_only, rel=1e-12)

    def test_shallower_at_root_deeper_maximum(self):
        params = figure_params(FIG_BT["fig4"])
        spec = ExpansionSpec(N=2)
        t = FIG_BT["fig4"]
        y_c0 = mullins_and_composite(0.0, t, params, spec)[1]
        y_m0 = mullins_profile_dim(0.0, t, params)
        assert abs(y_c0) < abs(y_m0)          # shallower root
        mc = groove_metrics(lambda x: mullins_and_composite(x, t, params, spec)[1],
                            params, bt=t)
        mm = groove_metrics(lambda x: mullins_profile_dim(x, t, params),
                            params, bt=t)
        assert mc.y_max > mm.y_max            # taller primary maximum
        assert mc.y_min2 < mm.y_min2          # deeper secondary minimum

    @pytest.mark.parametrize("alpha", [0.0, FIG_ALPHA])
    @pytest.mark.parametrize("N", [0, 2, 5])
    def test_mullins_and_composite_from_one_pass(self, alpha, N):
        """mullins_and_composite gives mullins_profile_dim and the
        dimensional composite_profile_nd bit for bit, on an array and at
        single points: composing the terms leaves their y_0 the unpassivated
        profile."""
        for bt in (3e-30, 2e-28, 1.7e-28):
            params = nondimensionalize(alpha, bt, FIG_M)
            spec = ExpansionSpec(N=N)
            xs = np.linspace(0.0, 8.0 * params.L0, 40)
            for x in (xs, 0.0, float(xs[3])):
                mullins, composite = mullins_and_composite(x, bt, params, spec)
                assert np.array_equal(mullins, mullins_profile_dim(x, bt, params))
                assert np.array_equal(composite, params.L0 * composite_profile_nd(
                    x / params.L0, bt / params.L0 ** 4, params.m, params.alpha_hat, spec))
                assert alpha == 0.0 or not np.array_equal(mullins, composite)

    @pytest.mark.parametrize("order", [0, 1, 2, 3, 5])
    def test_order_is_the_sum_of_term_derivatives(self, order):
        """One evaluator: on an array, order=k adds the terms' own k-th
        derivatives in the evaluator's order, bit for bit."""
        ah, m, t = 0.3, FIG_M, 1.0
        x = np.array([0.0, 0.05, 0.4, 1.0, 2.5, 6.0])
        want = mullins_profile(x, t, m, order=order)
        for r in (1, 2):
            want = want + ah ** r * outer_term(r, x, t, m, order=order)
        want = want + boundary_layer_G(x, t, ah, m, order=order)
        got = composite_profile_nd(x, t, m, ah, ExpansionSpec(N=2), order=order)
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("alpha_hat, m", [(-1.0, 0.2), (math.nan, 0.2), (math.inf, 0.2),
                                        (0.3, math.nan), (0.3, math.inf)])
def test_composite_rejects_bad_alpha_hat_or_m(alpha_hat, m):
    """A negative alpha_hat dropped the wall layer and flipped the odd terms'
    sign, and a non-finite alpha_hat or m gave NaN: each is refused."""
    with pytest.raises(ValueError):
        composite_profile_nd(0.5, 1.0, m, alpha_hat, ExpansionSpec())


class TestWallResiduals:
    def test_slope_and_flux_exact(self):
        """The slope-bending and zero-flux conditions hold exactly:
        the wall exponential is annihilated by (d/dx - a d3/dx3) and the
        corrections have no odd wall derivatives."""
        params = figure_params(FIG_BT["fig4"])
        for N in (0, 1, 2, 3):
            r1, r2, r3 = bc_residuals(FIG_BT["fig4"], params, ExpansionSpec(N=N))
            assert r1 <= 1e-15 * params.m
            assert r2 <= 1e-13 * params.m

    def test_curvature_zero_through_first_order(self):
        params = figure_params(FIG_BT["fig4"])
        _, _, r3 = bc_residuals(FIG_BT["fig4"], params, ExpansionSpec(N=1))
        assert r3 <= 1e-15 * params.m

    def test_curvature_residual_is_second_order(self):
        """With N = 2 the uncancelled alpha^2 curvature of the second
        correction is all that remains."""
        params = figure_params(FIG_BT["fig4"])
        _, _, r3 = bc_residuals(FIG_BT["fig4"], params, ExpansionSpec(N=2))
        expect = params.alpha_hat ** 2 * abs(
            outer_term(2, 0.0, 1.0, params.m, order=2))
        assert r3 == pytest.approx(expect, rel=1e-10)

    def test_order_resolved_cancellation(self):
        params = figure_params(FIG_BT["fig4"])
        res0, res1 = curvature_cancellation_residuals(FIG_BT["fig4"], params)
        assert res0 <= 1e-12
        assert res1 <= 1e-12

    def test_mullins_boundary_conditions(self):
        params = nondimensionalize(0.0, 1e-29, FIG_M)
        r1, r2, r3 = bc_residuals(1e-29, params, ExpansionSpec(N=0))
        assert r1 == 0.0 and r2 == 0.0
        assert r3 > 0.0       # the base profile does not bend-relax the wall


class TestDepthDifference:
    def test_alpha_zero(self):
        params = nondimensionalize(0.0, 1e-29, FIG_M)
        assert depth_difference(1e-29, params) == 0.0

    def test_consistency_with_composite(self):
        for key in ("fig3", "fig4", "fig5"):
            t = FIG_BT[key]
            params = figure_params(t)
            spec = ExpansionSpec(N=2)
            direct = (mullins_and_composite(0.0, t, params, spec)[1]
                      - mullins_profile_dim(0.0, t, params))
            formula = depth_difference(t, params)
            assert formula == pytest.approx(direct, rel=1e-12)

    def test_relative_effect_longest_time(self):
        t = FIG_BT["fig5"]
        params = figure_params(t)
        effect = depth_difference(t, params) / abs(mullins_profile_dim(0.0, t, params))
        assert effect == pytest.approx(0.125, abs=0.02)
        assert effect == pytest.approx(0.119222, abs=1e-4)

    def test_positive_for_figure_parameters(self):
        for key in ("fig3", "fig4", "fig5"):
            t = FIG_BT[key]
            assert depth_difference(t, figure_params(t)) > 0.0


class TestGrooveMetrics:
    def test_mullins_similarity_constant(self):
        for bt in (1e-30, 1e-29):
            params = nondimensionalize(0.0, bt, FIG_M)
            mm = groove_metrics(lambda x: mullins_profile_dim(x, bt, params),
                                params, bt=bt)
            assert mm.x_max / bt ** 0.25 == pytest.approx(MULLINS_UM, rel=1e-7)
            assert mm.y_max / (FIG_M * bt ** 0.25) == pytest.approx(
                MULLINS_ZMAX, rel=1e-7)

    def test_depth(self):
        t = FIG_BT["fig4"]
        params = figure_params(t)
        mm = groove_metrics(lambda x: mullins_profile_dim(x, t, params),
                            params, bt=t)
        assert mm.depth == pytest.approx(0.3900622510894068 * FIG_M * t ** 0.25,
                                         rel=1e-10)

    def test_sampled_input(self):
        t = FIG_BT["fig4"]
        params = figure_params(t)
        xs = np.linspace(0.0, default_window(t), 4000)
        ys = mullins_profile_dim(xs, t, params)
        mm = groove_metrics((xs, ys))
        assert mm.x_max / t ** 0.25 == pytest.approx(MULLINS_UM, rel=1e-3)

    def test_monotone_profile_has_no_maximum(self):
        xs = np.linspace(0.0, 1.0, 200)
        m = groove_metrics((xs, -np.exp(-xs)))
        assert not m.has_primary_maximum
        assert not m.has_secondary_minimum

    @pytest.mark.parametrize("scalar_only", [
        lambda x: -math.exp(-x) * math.cos(2.0 * x),
        lambda x: 0.0 if x > 50.0 else -math.exp(-x) * math.cos(2.0 * x),
    ], ids=["math", "branch"])
    def test_scalar_only_callable(self, scalar_only):
        """A callable that takes floats only is sampled point by point."""
        m = groove_metrics(scalar_only, x_cap=10.0, samples=400)
        ref = groove_metrics(lambda x: -np.exp(-x) * np.cos(2.0 * x),
                             x_cap=10.0, samples=400)
        assert m.depth == 1.0
        for got, want in [(m.x_max, ref.x_max), (m.y_max, ref.y_max),
                          (m.x_min2, ref.x_min2), (m.mass, ref.mass)]:
            assert got == pytest.approx(want, rel=1e-6, abs=1e-9)

    def test_callable_gets_arrays_only(self):
        """Sampling, extremum zooms and mass quadrature all call the profile
        with arrays; a float-only profile is called with floats only."""
        t = FIG_BT["fig4"]
        params = figure_params(t)
        spec = ExpansionSpec(N=2)
        args = []

        def profile(x):
            args.append(x)
            return mullins_and_composite(x, t, params, spec)[1]

        mc = groove_metrics(profile, params, bt=t)
        assert mc.has_secondary_minimum
        assert args and all(isinstance(a, np.ndarray) and a.ndim == 1 for a in args)

        args.clear()

        def scalar_only(x):
            args.append(x)
            return -math.exp(-x) * math.cos(2.0 * x)

        groove_metrics(scalar_only, x_cap=10.0, samples=400)
        floats = [a for a in args if not isinstance(a, np.ndarray)]
        assert floats and all(type(a) is float for a in floats)

    def test_mass_window_truth(self):
        """The base-profile window mass is truncation-dominated: the
        oscillating tail beyond the window carries the balance."""
        for bt in (FIG_BT["fig4"],):
            params = nondimensionalize(0.0, bt, FIG_M)
            m8 = groove_metrics(lambda x: mullins_profile_dim(x, bt, params),
                                params, bt=bt)
            scale = FIG_M * bt ** 0.5
            assert m8.mass == pytest.approx(MULLINS_MASS_U8 * scale, rel=1e-4)
            m12 = groove_metrics(lambda x: mullins_profile_dim(x, bt, params),
                                 params, x_cap=12.0 * bt ** 0.25)
            assert m12.mass == pytest.approx(MULLINS_MASS_U12 * scale, rel=1e-3)

    def test_composite_mass_is_wall_layer_mass(self):
        """The composite carries the wall-correction mass
        (alpha b2 + alpha^2 b4) sqrt(alpha): an O(alpha_hat^{3/2}) imprint
        that dominates its window integral."""
        t = FIG_BT["fig4"]
        params = figure_params(t)
        spec = ExpansionSpec(N=2)
        mc = groove_metrics(lambda x: mullins_and_composite(x, t, params, spec)[1],
                            params, bt=t)
        ah = params.alpha_hat
        from gbgroove.layers import beta4
        bl_mass = (ah * beta2(1.0, FIG_M) + ah ** 2 * beta4(1.0, FIG_M)) \
            * math.sqrt(ah) * params.L0 ** 2
        mull_mass = MULLINS_MASS_U8 * FIG_M * t ** 0.5
        assert mc.mass == pytest.approx(bl_mass + mull_mass, rel=0.02)


class TestTrends:
    def test_composite_converges_to_unpassivated(self):
        """Sup-norm distance to the base profile strictly decreases with
        annealing time at fixed coating stiffness."""
        sups = []
        for key in ("fig3", "fig4", "fig5"):
            t = FIG_BT[key]
            params = figure_params(t)
            spec = ExpansionSpec(N=2)
            xs = np.linspace(0.0, default_window(t), 300)
            depth = abs(mullins_profile_dim(0.0, t, params))
            sup = np.max(np.abs(mullins_and_composite(xs, t, params, spec)[1]
                                - mullins_profile_dim(xs, t, params)))
            sups.append(sup / depth)
        assert sups[0] > sups[1] > sups[2]

    def test_primary_maximum_position_stability(self):
        """x_m moves a few per cent while the depth changes by 12-30%:
        gate recalibrated to 6% after checking the finite-difference
        solution (true shifts run 5-12% at these stiffnesses, always well
        below the depth effect)."""
        for key in ("fig3", "fig4", "fig5"):
            t = FIG_BT[key]
            params = figure_params(t)
            spec = ExpansionSpec(N=2)
            mc = groove_metrics(lambda x: mullins_and_composite(x, t, params, spec)[1],
                                params, bt=t)
            mm = groove_metrics(lambda x: mullins_profile_dim(x, t, params),
                                params, bt=t)
            shift = abs(mc.x_max - mm.x_max) / mm.x_max
            depth_effect = depth_difference(t, params) / mm.depth
            assert shift < 0.06
            assert shift < 0.5 * depth_effect
