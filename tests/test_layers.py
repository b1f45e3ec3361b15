"""Boundary-layer amplitudes and corner-layer similarity solutions.

Frozen values come from a 60-digit mpmath session cross-checked against a
numerical inverse Laplace transform (Talbot contour); the two agreed to
all digits shown.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import (corner_combination_deriv0, corner_root_curvature,
                      corner_similarity_ode_residual, mullins_profile, outer_term, rational_pfq,
                      solve_c456)
from gbgroove.layers import (
    CORNER_MATRIX,
    CornerSpec,
    beta2,
    beta4,
    boundary_layer_G,
    corner_combination,
    corner_fundamental_v,
    corner_solutions_yc,
    corner_weights,
    theorem_coefficients,
)
from gbgroove.specfun import GammaPoleError, SeriesError

SPEC_R1 = CornerSpec(r=-1.0, gamma=1.0, alpha_hat=0.3)

# frozen oracle values (mpmath + Talbot inversion)
V4_AT_2_RM1 = 7.98730215110844244025766798
YC_REF = {
    (4, 1.0): 6.24371020e-02,
    (4, 10.0): 5.644152e-05,

    (5, 1.0): 9.41386488e-02,
    (5, 10.0): -8.88115571e-03,
    (5, 20.0): 9.97470327e-04,
    (6, 1.0): -2.91547330e-02,
    (6, 20.0): 7.98618865e-04,
}
C456_REF = (2.8124522060614434, 1.748979895518134, -3.5631518569128753)
COMBO_W1 = 0.4441307103693305
COMBO_W20 = -1.10104320e-03
CURV_TAU1 = -13.740644268643523       # d2/dx2 at the root, t = alpha_hat^5


class TestBoundaryLayer:
    def test_amplitudes(self):
        m, t = 0.209, 1.0
        assert beta2(t, m) == pytest.approx(
            m / (2 * math.sqrt(2) * 1.2254167024651776), rel=1e-13)
        assert beta4(t, m) == pytest.approx(
            -m * 0.9190625268488832 / (4 * math.pi), rel=1e-13)

    def test_far_field_extinction(self):
        assert boundary_layer_G(50.0, 1.0, 0.3, 0.209) < 1e-30
        assert boundary_layer_G(1e4, 1.0, 0.3, 0.209) == 0.0
        # x / sqrt(alpha) past the float range is 0 too, with no overflow warning
        assert boundary_layer_G(1e308, 1.0, 0.3, 0.209) == 0.0
        got = boundary_layer_G(np.array([0.0, 1e308, math.inf]), 1.0, 0.3, 0.209, order=1)
        assert got.tolist() == [boundary_layer_G(0.0, 1.0, 0.3, 0.209, order=1), 0.0, 0.0]

    def test_wall_value(self):
        m, ah, t = 0.209, 0.3, 1.0
        expect = ah * beta2(t, m) + ah ** 2 * beta4(t, m)
        assert boundary_layer_G(0.0, t, ah, m) == pytest.approx(expect, rel=1e-15)

    def test_exact_derivatives(self):
        m, ah, t, x = 0.209, 0.3, 1.0, 0.2
        g = boundary_layer_G(x, t, ah, m)
        for order in range(1, 6):
            d = boundary_layer_G(x, t, ah, m, order=order)
            assert d == pytest.approx((-1) ** order * g / ah ** (order / 2), rel=1e-13)

    def test_curvature_cancellation_order_zero(self):
        """beta2 exactly kills the wall curvature of the base profile."""
        m, t = 0.209, 1.0
        c = mullins_profile(0.0, t, m, order=2)
        assert abs(beta2(t, m) + c) <= 1e-12 * abs(c)

    def test_curvature_cancellation_order_one(self):
        """beta4 exactly kills the wall curvature of the first correction."""
        m, t = 0.209, 1.0
        c = outer_term(1, 0.0, t, m, order=2)
        assert abs(beta4(t, m) + c) <= 1e-12 * abs(c)

    def test_alpha_zero_is_inert(self):
        assert boundary_layer_G(0.5, 1.0, 0.0, 0.209) == 0.0

    def test_old_style_b_argument_raises(self):
        """t stands for B t: a call that still passes B has one positional
        argument too many, as `order` is keyword-only, and fails instead of
        reading m as the order."""
        with pytest.raises(TypeError):
            boundary_layer_G(0.5, 1.0, 0.3, 1.0, 0.209)
        with pytest.raises(TypeError):
            CornerSpec(r=-1.0, gamma=1.0, alpha_hat=0.3, B=1.0)


@pytest.mark.parametrize("call", [
    lambda: boundary_layer_G(math.nan, 1.0, 0.3, 0.209),
    lambda: boundary_layer_G(np.array([0.0, math.nan]), 1.0, 0.3, 0.209),
    lambda: boundary_layer_G(0.5, 1.0, 0.3, math.nan),
    lambda: boundary_layer_G(0.5, 1.0, 0.3, math.inf),
    lambda: boundary_layer_G(0.5, 1.0, math.inf, 0.209),
    lambda: boundary_layer_G(0.5, 1.0, 0.3, 0.209, order=-1),
    lambda: boundary_layer_G(0.5, 1.0, 0.3, 0.209, order=1.5),
    lambda: CornerSpec(gamma=math.nan, alpha_hat=0.3),
    lambda: CornerSpec(gamma=math.inf, alpha_hat=0.3),
    lambda: CornerSpec(gamma=0.3, alpha_hat=math.nan),
    lambda: CornerSpec(gamma=0.3, alpha_hat=math.inf),
], ids=["G-nan-x", "G-nan-x-array", "G-nan-m", "G-inf-m", "G-inf-alpha", "G-negative-order",
        "G-fractional-order", "corner-nan-gamma", "corner-inf-gamma", "corner-nan-alpha-hat",
        "corner-inf-alpha-hat"])
def test_rejects_non_finite_arguments(call):
    """Each returned NaN (boundary_layer_G) or was accepted until
    corner_combination reported a misleading overflow (CornerSpec).  An
    order that is negative or not an integer returned a number too: -0.0035
    at order -1 and -0.0158 at 1.5."""
    with pytest.raises(ValueError):
        call()


class TestCornerFundamentals:
    def test_values_at_origin(self):
        assert corner_fundamental_v(1, 0.0, -1.0) == 1.0
        for i in range(2, 7):
            assert corner_fundamental_v(i, 0.0, -1.0) == 0.0

    def test_unit_first_derivative_of_v2(self):
        assert corner_fundamental_v(2, 0.0, -1.0, order=1) == pytest.approx(
            1.0, rel=1e-15)

    def test_rational_oracle_v4(self):
        # 1F5 partial sums with the exact rational argument -64/46656
        nums = (Fraction(1, 2) + 1,)                     # 1/2 - r at r = -1
        dens = (Fraction(2, 3), Fraction(5, 6), Fraction(7, 6),
                Fraction(4, 3), Fraction(3, 2))
        ref = 8 * rational_pfq(nums, dens, Fraction(-64, 46656), 40)
        assert corner_fundamental_v(4, 2.0, -1.0) == pytest.approx(
            float(ref), rel=1e-13)
        assert corner_fundamental_v(4, 2.0, -1.0) == pytest.approx(
            V4_AT_2_RM1, rel=1e-13)

    @pytest.mark.parametrize("r", [-1.0, -5.0 / 6.0 - 0.1, -2.0])
    @pytest.mark.parametrize("i", [1, 2, 3, 4, 5, 6])
    def test_ode_residual(self, i, r):
        V = lambda w, order=0: corner_fundamental_v(i, w, r, order=order)
        for w in (0.0, 1.0, 3.0, 6.0):
            res = corner_similarity_ode_residual(w, r, V)
            scale = max(abs(V(w, 0)), 1.0)
            assert abs(res) <= 1e-8 * scale, f"v{i} residual at w={w}, r={r}"

    def test_zero_function_in_kernel(self):
        V = lambda w, order=0: 0.0
        assert corner_similarity_ode_residual(2.0, -1.0, V) == 0.0

    def test_wall_residual_of_v1(self):
        # V^(6)(0) = r v1(0) by the leading series coefficient
        V = lambda w, order=0: corner_fundamental_v(1, w, -1.0, order=order)
        assert corner_similarity_ode_residual(0.0, -1.0, V) == pytest.approx(
            0.0, abs=1e-12)


class TestMatrixSolutions:
    def test_weights_reciprocal_gamma(self):
        w = corner_weights(-1.0)
        assert w[0] == 0.0                    # 1/Gamma(0) for the j=1 slot
        assert w[3] == pytest.approx(
            1.0 / (math.factorial(3) * math.gamma(-0.5)), rel=1e-13)

    def test_wall_value_row1(self):
        # only v1 is nonzero at the wall; at r = -1 its weight vanishes
        assert corner_solutions_yc(1, 0.0, 1.0, SPEC_R1) == 0.0
        spec = CornerSpec(r=-1.5, gamma=1.0, alpha_hat=0.3)
        expect = 1.0 ** (-1.5) / math.gamma(-0.5)
        assert corner_solutions_yc(1, 0.0, 1.0, spec) == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("key, ref", sorted(YC_REF.items()))
    def test_reference_values(self, key, ref):
        i, w = key
        val = corner_solutions_yc(i, w, 1.0, SPEC_R1)
        assert val == pytest.approx(ref, rel=2e-4, abs=5e-9)

    def test_exponential_branch_under_noise_floor(self):
        # true y_c4(20) = 5.485e-10 sits below the float64 cancellation
        # noise (~1e-7 x weights); the evaluation must stay inside it
        assert abs(corner_solutions_yc(4, 20.0, 1.0, SPEC_R1)) < 1e-7

    def test_decaying_branch(self):
        # the pure-exponential branch falls by > 1e6 from w=1 to w=20
        a = corner_solutions_yc(4, 1.0, 1.0, SPEC_R1)
        b = corner_solutions_yc(4, 20.0, 1.0, SPEC_R1)
        assert abs(a / b) > 1e6

    def test_oscillatory_branches_decay_slowly(self):
        """y_c5, y_c6 do tend to zero, but only ~100x over w in [1, 20]."""
        for i in (5, 6):
            a = abs(corner_solutions_yc(i, 1.0, 1.0, SPEC_R1))
            b = abs(corner_solutions_yc(i, 20.0, 1.0, SPEC_R1))
            assert b < 0.05 * a
            assert b > 1e-6 * a       # nowhere near the exponential branch

    def test_growing_branch(self):
        a = abs(corner_solutions_yc(1, 10.0, 1.0, SPEC_R1))
        b = abs(corner_solutions_yc(1, 20.0, 1.0, SPEC_R1))
        assert b > 10 * a


class TestDecayingCombination:
    def test_solver_matches_brackets(self):
        cs = solve_c456(1.0, -1.0, 0.3, 1.0)
        ct = theorem_coefficients(1.0, -1.0, 0.3, 1.0)
        for a, b, ref in zip(cs, ct, C456_REF):
            assert a == pytest.approx(b, rel=1e-12)
            assert a == pytest.approx(ref, rel=1e-12)

    def test_zero_amplitude(self):
        assert solve_c456(0.0, -1.0, 0.3, 1.0) == (0.0, 0.0, 0.0)
        spec = CornerSpec(r=-1.0, gamma=0.0, alpha_hat=0.3)
        assert corner_combination(1.0, 1.0, spec) == 0.0

    def test_alpha_zero_brackets_collapse(self):
        g = math.gamma(-1.0 / 6.0)
        c4, c5, c6 = theorem_coefficients(1.0, -1.0, 0.0, 1.0)
        assert c4 == pytest.approx(-g / 3.0, rel=1e-13)
        assert c5 == pytest.approx(-g / 3.0, rel=1e-13)
        assert c6 == pytest.approx(g / math.sqrt(3.0), rel=1e-13)

    def test_combination_values(self):
        assert corner_combination(1.0, 1.0, SPEC_R1) == pytest.approx(
            COMBO_W1, rel=1e-10)
        assert corner_combination(20.0, 1.0, SPEC_R1) == pytest.approx(
            COMBO_W20, rel=5e-3)

    def test_overflowing_coefficients_raise(self):
        # gamma = alpha_hat = 9.7e134 is what the CLI's Bt = 1e-300 reduces to
        spec = CornerSpec(r=-1.0, gamma=9.7e134, alpha_hat=9.7e134)
        with pytest.raises(SeriesError, match="corner coefficients overflow"):
            corner_combination(np.linspace(0.0, 20.0, 5), 1.0, spec)

    def test_overflowing_fundamental_raises_series_error(self):
        """A corner fundamental at a zeta whose power overflows raises
        SeriesError, not Python's OverflowError."""
        with pytest.raises(SeriesError, match="power of x overflowed"):
            corner_fundamental_v(1, 1e60, -1.0)

    def test_wall_boundary_relations(self):
        """alpha y' - y''' = 0 and alpha y''' - y''''' = 0 at the wall."""
        spec = SPEC_R1
        d1 = corner_combination_deriv0(1, 1.0, spec)
        d3 = corner_combination_deriv0(3, 1.0, spec)
        d5 = corner_combination_deriv0(5, 1.0, spec)
        scale = max(abs(d1), abs(d3), abs(d5))
        assert abs(spec.alpha_hat * d1 - d3) <= 1e-10 * scale
        assert abs(spec.alpha_hat * d3 - d5) <= 1e-10 * scale

    def test_amplitude_recovery(self):
        # first wall derivative reproduces gamma = V'(0)
        assert corner_combination_deriv0(1, 1.0, SPEC_R1) == pytest.approx(
            SPEC_R1.gamma, rel=1e-12)

    def test_wall_derivatives_match_series(self):
        """Analytic wall extraction equals term-differentiated series sums."""
        spec = SPEC_R1
        for k in (0, 1, 2, 3):
            analytic = corner_combination_deriv0(k, 1.0, spec)
            cs = theorem_coefficients(spec.gamma, spec.r, spec.alpha_hat, 1.0)
            series = 0.0
            for c, i in zip(cs, (4, 5, 6)):
                weights = corner_weights(spec.r)
                for j in range(1, 7):
                    wj = weights[j - 1] * CORNER_MATRIX[i - 1, j - 1]
                    if wj:
                        series += c * wj * corner_fundamental_v(
                            j, 0.0, spec.r, order=k)
            scale = max(abs(analytic), 1e-30)
            assert abs(analytic - series) <= 1e-10 * scale

    def test_cancellation_flag_kicks_in(self):
        # the weighted fundamentals grow huge while the decaying branch
        # shrinks; past w ~ 25 the flag marks the value unreliable
        from gbgroove.layers import corner_solution_diagnostics
        r = corner_solution_diagnostics(4, 28.0, 1.0, SPEC_R1)
        assert r.cancellation_digits > 12.0
        assert not r.reliable
        good = corner_solution_diagnostics(4, 5.0, 1.0, SPEC_R1)
        assert good.reliable

    def test_trivial_exponent_forces_zero(self):
        """r = -1/6 would force a trivial corner solution; the similarity
        family only admits r < -2/3, so the CornerSpec constructor rejects it."""
        with pytest.raises(ValueError):
            CornerSpec(r=-1.0 / 6.0, gamma=1.0, alpha_hat=0.3)
        # with a vanishing amplitude the combination is identically zero
        spec = CornerSpec(r=-1.0, gamma=0.0, alpha_hat=0.3)
        for w in (0.0, 1.0, 5.0):
            assert corner_combination(w, 1.0, spec) == 0.0

    def test_amplitude_flag(self):
        with pytest.warns(UserWarning):
            CornerSpec(r=-1.0, gamma=5.0, alpha_hat=0.3)

    def test_bracket_gamma_poles_reported(self):
        with pytest.raises(GammaPoleError):
            theorem_coefficients(1.0, -5.0 / 6.0, 0.3, 1.0)


@pytest.mark.parametrize("tau", [-1.0, -5e-324, math.nan, 0.0])
@pytest.mark.parametrize("call", [
    lambda tau: theorem_coefficients(1.0, -1.0, 0.3, tau),
    lambda tau: corner_combination(1.0, tau, SPEC_R1),
    lambda tau: corner_combination(1.0, tau, CornerSpec(r=-1.0, gamma=0.0, alpha_hat=0.3)),
    lambda tau: corner_combination(np.array([-1.0, 1.0]), tau,
                                   CornerSpec(r=-1.0, gamma=0.0, alpha_hat=0.3)),
    lambda tau: corner_solutions_yc(4, 1.0, tau, SPEC_R1),
], ids=["theorem-coefficients", "combination", "combination-zero-amplitude",
        "combination-zero-amplitude-negative-zeta", "solutions-yc"])
def test_rejects_non_positive_tau(call, tau):
    """A tau that is not positive is refused alike by all of them.
    theorem_coefficients returned complex coefficients at a negative tau
    (tau^(1/3) goes complex), so corner_combination raised TypeError there,
    and a misleading coefficient-overflow SeriesError at NaN; at zero
    amplitude it returned zeros before it checked anything."""
    with pytest.raises(ValueError, match="^tau must be positive$"):
        call(tau)


@pytest.mark.parametrize("gamma", [0.0, 1.0])
def test_combination_rejects_negative_zeta(gamma):
    """A negative zeta is refused at any amplitude, as corner_solutions_yc
    refuses it; at zero amplitude corner_combination returned 0.0."""
    spec = CornerSpec(r=-1.0, gamma=gamma, alpha_hat=0.3)
    with pytest.raises(ValueError, match="^zeta must be non-negative$"):
        corner_combination(-1.0, 1.0, spec)


class TestRootCurvature:
    def test_zero_amplitude(self):
        spec = CornerSpec(r=-1.0, gamma=0.0, alpha_hat=0.3)
        assert corner_root_curvature(1.0, spec) == 0.0

    def test_matches_series_extraction(self):
        spec = SPEC_R1
        t = spec.alpha_hat ** 5      # tau = 1
        closed = corner_root_curvature(t, spec)
        extracted = corner_combination_deriv0(2, 1.0, spec) / spec.alpha_hat ** 2
        assert closed == pytest.approx(extracted, rel=1e-8)
        assert closed == pytest.approx(CURV_TAU1, rel=1e-10)

    def test_negligible_outside_corner_layer(self):
        """Magnitude falls steeply with t; ~668x between tau=1 and tau=100."""
        spec = SPEC_R1
        t0 = spec.alpha_hat ** 5
        ratio = abs(corner_root_curvature(t0, spec)
                    / corner_root_curvature(100.0 * t0, spec))
        assert ratio > 500.0
        assert ratio == pytest.approx(668.384, rel=1e-3)
