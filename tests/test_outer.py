"""Self-similar profile shapes, outer corrections and their oracles.

Reference values frozen from (a) 60-digit mpmath evaluation and (b) a
40-digit quadrature of the cosine-transform representation; both agree to
all shown digits.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rational_pfq
from gbgroove.outer import (
    U_CLAMP,
    basis_f1,
    basis_f2,
    mullins_ode_residual,
    mullins_profile,
    mullins_shape,
    outer_term,
    yr_quadrature_oracle,
)
from gbgroove.specfun import gamma

# profile scale for "relative to the profile" comparisons
DEPTH_COEFF = 0.3900622510894068          # 1/(2 sqrt(2) Gamma(5/4))
M_FIG = 0.209

# mpmath references, cross-checked against the integral representation
MULLINS_REF = {
    0.0: -0.3900622510894068,
    1.0: -0.030355927438837214,
    2.0: +0.09194287431003925,
    5.0: -0.0031884525026087
,
    8.0: +3.2491439945773754e-4,
    11.0: -1.1533843533356932e-4,
}
F1_AT_1 = 0.365328856199798837263223106
F2_AT_1 = 0.451188384764633156645560393


class TestMullinsProfile:
    @pytest.mark.parametrize("u, ref", sorted(MULLINS_REF.items()))
    def test_reference_values(self, u, ref):
        val = mullins_profile(u, 1.0, 1.0)
        assert val == pytest.approx(ref, rel=2e-6, abs=5e-11)

    def test_wall_depth(self):
        assert mullins_profile(0.0, 1.0, 1.0) == pytest.approx(
            -DEPTH_COEFF, rel=1e-13)

    def test_wall_slope_is_half_m(self):
        for m in (0.05, 0.209):
            assert mullins_profile(0.0, 1.0, m, order=1) == pytest.approx(
                m / 2.0, rel=1e-14)

    def test_wall_third_derivative_vanishes(self):
        assert mullins_profile(0.0, 1.0, 0.209, order=3) == 0.0

    def test_clamp(self):
        assert mullins_profile(12.5, 1.0, 1.0) == 0.0
        assert mullins_profile(13.0, 1.0, 1.0, order=2) == 0.0

    def test_self_similarity(self):
        # y0(cx, c^4 t) = c y0(x, t)
        c = 2.0
        for u in (0.5, 1.5, 3.0):
            a = mullins_profile(u, 1.0, 1.0)
            b = mullins_profile(c * u, c ** 4, 1.0)
            assert b == pytest.approx(c * a, rel=1e-11, abs=1e-14)

    def test_basis_identity(self):
        """y0 = (m / 2 sqrt(2)) (f1 - f2) to 1e-10 of the profile scale."""
        m = M_FIG
        coeff = m / (2.0 * math.sqrt(2.0))
        for i in range(201):
            u = 10.0 * i / 200
            lhs = mullins_profile(u, 1.0, m)
            rhs = coeff * (basis_f1(u, 1.0) - basis_f2(u, 1.0))
            assert abs(lhs - rhs) <= 1e-10 * m, f"basis identity off at u={u}"

    def test_basis_values(self):
        assert basis_f1(0.0, 1.0) == 0.0
        assert basis_f2(0.0, 1.0) == pytest.approx(1.0 / gamma(1.25), rel=1e-13)
        assert basis_f1(1.0, 1.0) == pytest.approx(F1_AT_1, rel=1e-12)
        assert basis_f2(1.0, 1.0) == pytest.approx(F2_AT_1, rel=1e-12)

    def test_basis_self_similarity(self):
        c = 10.0
        a = basis_f1(1.2, 1.0)
        b = basis_f1(c * 1.2, c ** 4)
        assert b == pytest.approx(c * a, rel=1e-10)

    def test_decay_window(self):
        """The tail beyond u ~ 8 sits at the 1e-4 level, oscillating.

        The steep super-exponential decay only wins much further out; the
        clamp at u = 12 truncates a genuinely small but nonzero tail.
        """
        assert abs(mullins_profile(11.0, 1.0, 1.0)) < 2e-4
        assert abs(mullins_profile(11.0, 1.0, 1.0)) == pytest.approx(
            1.1533843533e-4, rel=1e-4)


class TestOuterTerms:
    def test_wall_values(self):
        assert outer_term(1, 0.0, 1.0, 1.0) == pytest.approx(
            -gamma(1.25) / (4 * math.pi), rel=1e-13)
        assert outer_term(2, 0.0, 1.0, 1.0) == pytest.approx(
            gamma(2.75) / (8 * math.pi), rel=1e-13)

    def test_first_correction_closed_form(self):
        """Equivalent Gamma(1/4), Gamma(-1/4) coefficient arrangement."""
        m = M_FIG
        g14 = gamma(0.25)
        gm14 = gamma(-0.25)
        for i in range(20):
            u = 4.0 * i / 19
            z = u ** 4 / 256.0
            from gbgroove.specfun import HypArgs, hyp_pFq
            fa = hyp_pFq(HypArgs((1.25,), (0.25, 0.5, 0.75), z)).value
            fb = hyp_pFq(HypArgs((1.75,), (0.75, 1.25, 1.5), z)).value
            alt = (-m * g14 * fa / (16 * math.pi)
                   - 3 * m * u ** 2 * gm14 * fb / (128 * math.pi))
            lib = outer_term(1, u, 1.0, m)
            scale = max(abs(alt), abs(lib), 1e-3 * m)
            assert abs(lib - alt) <= 1e-10 * scale

    @pytest.mark.parametrize("r", [1, 2, 3])
    @pytest.mark.parametrize("u", [0.0, 0.5, 1.0, 2.0, 4.0])
    def test_quadrature_oracle(self, r, u):
        lib = outer_term(r, u, 1.0, 1.0)
        orc = yr_quadrature_oracle(r, u, 1.0, 1.0)
        scale = max(abs(orc), 1e-3)
        assert abs(lib - orc) <= 1e-6 * scale

    @pytest.mark.parametrize("r", [1, 2])
    def test_self_similarity(self, r):
        # y_r(cx, c^4 t) = c^(1-2r) y_r(x, t)
        for c in (2.0, 10.0):
            a = outer_term(r, 1.0, 1.0, 1.0)
            b = outer_term(r, c * 1.0, c ** 4, 1.0)
            assert b == pytest.approx(c ** (1 - 2 * r) * a, rel=1e-10)

    def test_decay_at_window_edge(self):
        # corrections at u = 11 sit at the 1e-3 level before the clamp
        assert abs(outer_term(1, 11.0, 1.0, 1.0)) < 1e-3
        assert abs(outer_term(2, 11.0, 1.0, 1.0)) < 2e-3

    def test_rejects_r_zero(self):
        with pytest.raises(ValueError):
            outer_term(0, 1.0, 1.0, 1.0)


def test_old_style_b_argument_raises():
    """t stands for B t: a call that still passes B has one positional
    argument too many, as `order` is keyword-only, and fails instead of
    reading m as the order."""
    with pytest.raises(TypeError):
        mullins_profile(0.5, 1.0, 1.0, M_FIG, 0)
    with pytest.raises(TypeError):
        outer_term(1, 0.5, 1.0, 1.0, M_FIG, 0)


class TestSimilarityODE:
    def test_mullins_profile_residual(self):
        for u in (0.2, 1.0, 2.5, 5.0):
            res = mullins_ode_residual(u)
            z = abs(mullins_shape(u))
            assert abs(res) <= 1e-9 * max(z, 1.0)

    def test_linear_profile_in_kernel(self):
        poly = lambda u, order=0: (u, 1.0, 0.0, 0.0, 0.0)[order]
        assert mullins_ode_residual(1.7, poly) == 0.0

    def test_residual_under_cancellation(self):
        # deep in the cancelling regime the residual stays bounded by noise
        res = mullins_ode_residual(8.0)
        assert abs(res) <= 1e-8

    @given(st.floats(0.0, 6.0))
    @settings(max_examples=25, deadline=None)
    def test_residual_property(self, u):
        assert abs(mullins_ode_residual(u)) <= 1e-9
