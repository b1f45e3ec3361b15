"""Gamma, Pochhammer and hypergeometric series against independent oracles.

Frozen reference values were produced before the implementation with a
60-digit mpmath session; rational partial sums are recomputed exactly in
the tests themselves.
"""

import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import edge_or, hyp_series_reference, pochhammer, rational_pfq
from gbgroove import specfun
from gbgroove.specfun import (
    GammaPoleError,
    SeriesError,
    _neumaier_add,
    gamma,
    hyp_series,
    libm_pow,
    ln_gamma,
    reciprocal_gamma,
)

# 60-digit precomputed references
GAMMA_REF = {
    0.5: 1.77245385090551602729816748334,
    1.25: 0.906402477055477077982671288967,
    0.75: 1.22541670246517764512909830336,
    0.25: 3.62560990822190831193068515587,
    1.75: 0.919062526848883233846823727522,
    2.75: 1.60835942198554565923194152316,
    -0.25: -4.90166680986071058051639321345,
    -0.5: -3.54490770181103205459633496668,
}


class TestLnGamma:
    def test_half_integer(self):
        val, sign = ln_gamma(0.5)
        assert sign == 1
        assert math.exp(val) == pytest.approx(math.sqrt(math.pi), rel=1e-14)

    @pytest.mark.parametrize("x, ref", sorted(GAMMA_REF.items()))
    def test_reference_values(self, x, ref):
        assert gamma(x) == pytest.approx(ref, rel=1e-13)

    def test_sign_alternates_between_poles(self):
        assert gamma(-0.25) < 0
        assert gamma(-1.25) > 0
        assert gamma(-2.25) < 0

    @pytest.mark.parametrize("x", [0.0, -1.0, -2.0, -7.0])
    def test_pole_raises(self, x):
        with pytest.raises(GammaPoleError):
            ln_gamma(x)

    def test_accuracy_window(self):
        # exp(ln_gamma) to 1e-13 relative across [-10, 30] off the poles
        for x in [-9.5, -4.25, -0.75, 0.1, 1.0, 5.5, 12.25, 29.5]:
            lv, sign = ln_gamma(x)
            ref = math.gamma(x)
            assert sign * math.exp(lv) == pytest.approx(ref, rel=1e-13)

    def test_reciprocal_gamma_entire(self):
        assert reciprocal_gamma(0.0) == 0.0
        assert reciprocal_gamma(-3.0) == 0.0
        assert reciprocal_gamma(2.5) == pytest.approx(1.0 / math.gamma(2.5), rel=1e-13)


class TestPochhammer:
    """The rising factorial behind the derivative oracles."""

    def test_empty_product(self):
        for lam in (-3.7, 0.0, 0.25, 12.0):
            assert pochhammer(lam, 0) == 1.0

    def test_factorial(self):
        for k in range(8):
            assert pochhammer(1.0, k) == math.factorial(k)

    def test_quarter(self):
        assert pochhammer(0.25, 2) == pytest.approx(5.0 / 16.0, rel=1e-15)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            pochhammer(1.0, -1)

    @given(st.floats(-5, 5), st.integers(0, 50))
    @settings(max_examples=60)
    def test_recurrence(self, lam, k):
        assert pochhammer(lam, k + 1) == pytest.approx(
            pochhammer(lam, k) * (lam + k), rel=1e-12, abs=1e-290)

    @pytest.mark.parametrize("lam", [0.25, 0.75, 1.25])
    @pytest.mark.parametrize("k", [1, 5, 12, 20])
    def test_gamma_identity(self, lam, k):
        ref = math.exp(ln_gamma(lam + k)[0] - ln_gamma(lam)[0])
        assert pochhammer(lam, k) == pytest.approx(ref, rel=1e-11)


class TestHypPFQ:
    """pFq(a; b; z) is the engine at x = 1 with scale z."""

    def test_unit_at_zero(self):
        r = hyp_series((0.25,), (0.75, 1.25, 1.5), 0.0, 0, 1, 1.0, 0)
        assert r.value == 1.0
        assert r.terms_used >= 1

    def test_rational_oracle_1f3(self):
        ref = rational_pfq((Fraction(1, 4),),
                           (Fraction(3, 4), Fraction(5, 4), Fraction(3, 2)),
                           Fraction(1), 35)
        r = hyp_series((0.25,), (0.75, 1.25, 1.5), 1.0, 0, 1, 1.0, 0)
        assert r.value == pytest.approx(float(ref), rel=1e-13)
        assert r.value == pytest.approx(1.18934, rel=1e-5)

    def test_terminating_series(self):
        dens = (1 / 6, 1 / 3, 1 / 2, 2 / 3, 5 / 6)
        z = 0.7
        r = hyp_series((-1.0,), dens, z, 0, 1, 1.0, 0)
        expect = 1.0 - z / (dens[0] * dens[1] * dens[2] * dens[3] * dens[4])
        assert r.value == pytest.approx(expect, rel=1e-14)
        assert r.terms_used <= 2

    def test_denominator_pole_rejected(self):
        with pytest.raises(GammaPoleError):
            hyp_series((0.25,), (0.0, 1.0), 1.0, 0, 1, 1.0, 0)
        with pytest.raises(GammaPoleError, match="-2.0 is zero or a negative integer"):
            hyp_series([(0.25,), (0.25,)], [(0.75,), (-2.0, 1.0)], 1.0, [0, 0], 1, 1.0, 0)

    def test_divergent_regime_rejected(self):
        """More numerators than denominators (p > q) is not an entire series,
        in any row: a p > q row is refused even where it would terminate."""
        with pytest.raises(ValueError, match=r"row 0 has 2 numerators and 1 denominators"):
            hyp_series((1.0, 2.0), (3.0,), 1.0, 0, 1, 1.0, 0)
        with pytest.raises(ValueError, match=r"row 1 has 2 numerators and 1 denominators"):
            hyp_series([(0.25,), (-1.0, 2.0)], [(0.75,), (3.0,)], 1.0, [0, 2], 4,
                       np.array([0.5, 1.0]), 1)

    def test_budget_exhaustion(self):
        # enormous argument cannot converge inside the budget
        with pytest.raises(SeriesError) as err:
            hyp_series((0.25,), (0.75,), 1e12, 0, 1, 1.0, 0)
        assert err.value.terms_used > 0

    def test_overflowing_power_of_x_raises_series_error(self):
        """x**step past the float range is the SeriesError the engine
        promises for an overflowing term, not Python's OverflowError."""
        with pytest.raises(SeriesError, match="power of x overflowed"):
            hyp_series((0.25,), (0.75, 1.25, 1.5), 1 / 256, 2, 4, 1e80, 0)

    def test_overflowing_partial_sum_raises_series_error(self):
        """Two terms of 1e308 each are finite but their sum is not: the
        value was NaN, returned after 174 terms."""
        with pytest.raises(SeriesError, match="partial sum overflowed") as err:
            hyp_series((), (1.0,), 1e-77, 4, 1, 1e77, 0)
        assert err.value.terms_used == 174

    def test_first_term_is_the_value_at_x_zero(self):
        """At x = 0 an overflowing coefficient ratio made the next term
        inf x 0 = NaN: this call raised "series term overflowed at k=1 (x=0)",
        though the value there is the first term alone."""
        r = hyp_series((0.25,), (1e-300,), 1e300, 0, 4, 0.0, 0)
        assert (r.value, r.terms_used, r.max_term_magnitude) == (1.0, 1, 1.0)
        # the derivative's first kept term, 2 x^0, at both zeros of an array
        r = hyp_series((0.25,), (1e-300,), 1e300, 2, 4, np.array([0.0, -0.0]), 2)
        assert r.value.tolist() == [2.0, 2.0] and r.terms_used.tolist() == [1, 1]
        # a point off zero still overflows, and says where
        with pytest.raises(SeriesError, match=r"k=1 \(x=0.5\)"):
            hyp_series((0.25,), (1e-300,), 1e300, 0, 4, np.array([0.0, 0.5]), 0)

    def test_float_and_non_integer_powers_past_the_order(self):
        """A float power made a float start index (TypeError), so 2.0 now
        gives what 2 gives; a non-integer power starts at k = 0 (0.5 started
        at k = 1, dropping a term), matching 40-digit mpmath, and its
        derivative past the order is infinite at x = 0 (ZeroDivisionError
        there)."""
        want = hyp_series((0.25,), (0.75,), 1.0, 2, 4, 1.0, 3)
        assert hyp_series((0.25,), (0.75,), 1.0, 2.0, 4, 1.0, 3) == want
        with mpmath.workdps(40):
            exact = mpmath.diff(lambda x: x ** mpmath.mpf(0.5) * mpmath.hyp1f1(0.25, 0.75, x ** 4),
                                1, 5)
        got = hyp_series((0.25,), (0.75,), 1.0, 0.5, 4, 1.0, 5)
        assert got.value == pytest.approx(float(exact), rel=1e-13)
        with pytest.raises(SeriesError, match="power of x overflowed"):
            hyp_series((0.25,), (0.75,), 1.0, 0.5, 4, 0.0, 1)

    def test_negative_power_rejected(self):
        """A negative power would start the series past its k = 0 term:
        this call summed 0.4934 where 1F1(1/4; 3/4; 1) is 1.4934."""
        with pytest.raises(ValueError, match="power must be non-negative"):
            hyp_series((0.25,), (0.75,), 1.0, -1, 4, 1.0, 0)

    def test_non_integer_power_of_negative_x_rejected(self):
        """x**0.5 at x < 0 is complex: a ValueError, not a ComplexWarning
        and a real part of about 1e-16."""
        with pytest.raises(ValueError, match="non-integer power of a negative x"):
            hyp_series((0.25,), (0.75,), 1.0, 0.5, 4, -1.0, 0)
        with pytest.raises(ValueError, match="non-integer power of a negative x"):
            hyp_series((0.25,), (0.75,), 1.0, 0.5, 4, np.array([1.0, -1.0]), 0)

    def test_nan_x_rejected(self):
        """A NaN x is a bad input, not a series term that overflowed."""
        with pytest.raises(ValueError, match="x is NaN"):
            hyp_series((0.25,), (0.75,), 1.0, 0, 4, math.nan, 0)
        with pytest.raises(ValueError, match="x is NaN"):
            hyp_series((0.25,), (0.75,), 1.0, 2, 4, np.array([0.5, math.nan]), 1)

    @pytest.mark.parametrize("bad, match", [
        (dict(step=0), "step must be"), (dict(step=-4), "step must be"),
        (dict(order=1.5), "order must be"), (dict(power=math.nan), "power must be"),
        (dict(scale=math.nan), "scale must be"), (dict(scale=math.inf), "scale must be"),
        (dict(numerators=(math.nan,)), "numerator parameters"),
        (dict(numerators=(-math.inf,)), "numerator parameters"),
        (dict(denominators=(0.75, math.nan)), "denominator parameters"),
        (dict(denominators=(math.inf,)), "denominator parameters"),
        (dict(power=10 ** 400), "power must be"), (dict(scale=10 ** 400), "scale must be"),
        (dict(numerators=(10 ** 400,)), "numerator parameters"),
        (dict(denominators=(0.75, 10 ** 400)), "denominator parameters"),
    ], ids=["step-0", "step-negative", "order-fractional", "power-nan", "scale-nan",
            "scale-inf", "numerator-nan", "numerator-inf", "denominator-nan",
            "denominator-inf", "power-int-past-float", "scale-int-past-float",
            "numerator-int-past-float", "denominator-int-past-float"])
    def test_rejects_bad_arguments(self, bad, match):
        """Each was let through: step 0 divided by zero, step -4 dropped the
        k = 0 term (6.9e-4 where step 4 gives 1.0007 at x = 1), order 1.5
        raised TypeError, a NaN power passed the sign check, a NaN or
        infinite scale or parameter was reported as a term that overflowed
        at k = 1, or gave 1.0 for an infinite denominator, and an int past
        the float range raised OverflowError."""
        args = dict(numerators=(0.25,), denominators=(0.75, 1.25, 1.5), scale=1 / 256,
                    power=0, step=4, x=1.0, order=0) | bad
        with pytest.raises(ValueError, match=match):
            hyp_series(**args)

    @given(st.floats(0.0, 50.0))
    @settings(max_examples=40, deadline=None)
    def test_tol_consistency(self, z):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(specfun, "TOL", 1e-9)
            loose = hyp_series((0.25,), (0.75, 1.25, 1.5), z, 0, 1, 1.0, 0)
            mp.setattr(specfun, "TOL", 1e-10)
            tight = hyp_series((0.25,), (0.75, 1.25, 1.5), z, 0, 1, 1.0, 0)
        assert loose.value == pytest.approx(tight.value, rel=1e-8)

    def test_cancellation_reporting(self):
        # alternating series with heavy cancellation: the 1F5 block at big w
        w = 18.0
        r = hyp_series((7 / 6,), (1 / 3, 1 / 2, 2 / 3, 5 / 6, 7 / 6), -w ** 6 / 6 ** 6,
                       0, 1, 1.0, 0)
        assert r.max_term_magnitude > abs(r.value)
        assert r.cancellation_digits >= math.log10(
            r.max_term_magnitude / abs(r.value)) - 0.5
        assert not r.reliable or r.cancellation_digits <= 12.0


class TestDerivative:
    """d^n/dz^n pFq(a; b; z) is the engine's term differentiation at x = z
    with scale 1."""

    def test_first_derivative_at_zero(self):
        r = hyp_series((0.25,), (0.75, 1.25, 1.5), 1.0, 0, 1, 0.0, 1)
        assert r.value == pytest.approx(0.25 / (0.75 * 1.25 * 1.5), rel=1e-14)

    def test_second_derivative_at_zero(self):
        r = hyp_series((0.25,), (0.75, 1.25, 1.5), 1.0, 0, 1, 0.0, 2)
        expect = (0.25 * 1.25) / ((0.75 * 1.75) * (1.25 * 2.25) * (1.5 * 2.5))
        assert r.value == pytest.approx(expect, rel=1e-14)

    def test_rational_derivative_oracle(self):
        # d/dz 1F3(1/4; 3/4,5/4,3/2; z) at z=1: differentiate partial sums
        nums = (Fraction(1, 4),)
        dens = (Fraction(3, 4), Fraction(5, 4), Fraction(3, 2))
        pref = nums[0] / (dens[0] * dens[1] * dens[2])
        ref = pref * rational_pfq([a + 1 for a in nums], [b + 1 for b in dens],
                                  Fraction(1), 35)
        r = hyp_series((0.25,), (0.75, 1.25, 1.5), 1.0, 0, 1, 1.0, 1)
        assert r.value == pytest.approx(float(ref), rel=1e-13)
        assert r.value == pytest.approx(0.201176979434318250, rel=1e-12)

    @pytest.mark.parametrize("z", [Fraction(0), Fraction(1), Fraction(-1, 2)])
    @pytest.mark.parametrize("order", range(1, 7))
    def test_every_order_against_rational_oracle(self, order, z):
        """d^n/dz^n pFq(a; b; z) = [prod (a)_n / prod (b)_n] pFq(a+n; b+n; z),
        in exact rationals, for the similarity 1F3 and a corner 1F5."""
        for nums, dens in [((Fraction(1, 4),), (Fraction(3, 4), Fraction(5, 4), Fraction(3, 2))),
                           ((Fraction(7, 6),), tuple(Fraction(k, 6) for k in (2, 3, 4, 5, 7)))]:
            pref = (math.prod(pochhammer(a, order) for a in nums)
                    / math.prod(pochhammer(b, order) for b in dens))
            ref = pref * rational_pfq([a + order for a in nums], [b + order for b in dens],
                                      z, 40)
            r = hyp_series(nums, dens, 1.0, 0, 1, float(z), order)
            assert r.value == pytest.approx(float(ref), rel=1e-13)

    def test_order_bounds(self):
        """Any integer order >= 0 is summed: order 0 is the value and order 7
        matches the rational oracle.  A negative or fractional order is
        refused."""
        nums, dens = (Fraction(1, 4),), (Fraction(3, 4), Fraction(5, 4), Fraction(3, 2))
        pref = pochhammer(nums[0], 7) / math.prod(pochhammer(b, 7) for b in dens)
        ref = pref * rational_pfq([a + 7 for a in nums], [b + 7 for b in dens], Fraction(1), 40)
        r = hyp_series(nums, dens, 1.0, 0, 1, 1.0, 7)
        assert r.value == pytest.approx(float(ref), rel=1e-13)
        r = hyp_series(nums, dens, 1.0, 0, 1, 0.5, 0)
        assert r.value == pytest.approx(hyp_series(nums, dens, 0.5, 0, 1, 1.0, 0).value,
                                        rel=1e-15)
        for order in (-1, 1.5):
            with pytest.raises(ValueError, match="order must be an integer >= 0"):
                hyp_series(nums, dens, 1.0, 0, 1, 1.0, order)


class TestSeriesDerivativeEngine:
    """The power-series building block used by all profile evaluators."""

    def test_plain_value(self):
        r = hyp_series((0.25,), (0.75, 1.25, 1.5), 1 / 256, 0, 4, 2.0, 0)
        direct = hyp_series((0.25,), (0.75, 1.25, 1.5), 2.0 ** 4 / 256, 0, 1, 1.0, 0)
        assert r.value == pytest.approx(direct.value, rel=1e-13)

    def test_prefactor_power(self):
        u = 1.7
        r = hyp_series((0.25,), (0.75, 1.25, 1.5), 1 / 256, 2, 4, u, 0)
        direct = u ** 2 * hyp_series((0.25,), (0.75, 1.25, 1.5), u ** 4 / 256, 0, 1, 1.0, 0).value
        assert r.value == pytest.approx(direct, rel=1e-13)

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_against_central_differences(self, order):
        u0 = 1.3
        # step large enough that eps/h^order roundoff stays below truncation
        h = {1: 0.003, 2: 0.005, 3: 0.012, 4: 0.025}[order]

        def f(u):
            return hyp_series((0.25,), (0.75, 1.25, 1.5), 1 / 256, 2, 4, u, 0).value

        # high-order central stencils
        stencils = {
            1: ([-2, -1, 1, 2], [1 / 12, -2 / 3, 2 / 3, -1 / 12]),
            2: ([-2, -1, 0, 1, 2], [-1 / 12, 4 / 3, -5 / 2, 4 / 3, -1 / 12]),
            3: ([-3, -2, -1, 1, 2, 3], [1 / 8, -1, 13 / 8, -13 / 8, 1, -1 / 8]),
            4: ([-3, -2, -1, 0, 1, 2, 3], [-1 / 6, 2, -13 / 2, 28 / 3, -13 / 2, 2, -1 / 6]),
        }
        offs, wts = stencils[order]
        fd = sum(w * f(u0 + o * h) for o, w in zip(offs, wts)) / h ** order
        exact = hyp_series((0.25,), (0.75, 1.25, 1.5), 1 / 256, 2, 4, u0, order).value
        assert exact == pytest.approx(fd, rel=1e-5)

    def test_wall_values(self):
        # at x = 0 only the matching monomial survives
        r = hyp_series((0.25,), (0.75, 1.25, 1.5), 1 / 256, 2, 4, 0.0, 2)
        assert r.value == pytest.approx(2.0, rel=1e-15)      # d^2/dx^2 x^2 = 2
        r = hyp_series((0.25,), (0.75, 1.25, 1.5), 1 / 256, 2, 4, 0.0, 3)
        assert r.value == 0.0

    def test_terms_used_counts_the_terms_summed(self):
        # 0F1(; 1; 1e-20) sums 1, 1e-20, 5e-41, ... : the first term, then
        # three below TOL * |sum|; 1F1(-1; 1; 0.5) = 1 - 0.5 ends at k = 1
        assert hyp_series((), (1.0,), 1.0, 0, 1, 1e-20, 0).terms_used == 4
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(specfun, "TOL", 1e-30)       # 1e-20 is no longer below it
            assert hyp_series((), (1.0,), 1.0, 0, 1, 1e-20, 0).terms_used == 5
        assert hyp_series((-1.0,), (1.0,), 1.0, 0, 1, 0.5, 0).terms_used == 2
        rows = hyp_series([(), (-1.0,)], [(1.0,), (1.0,)], 1.0, [0, 0], 1,
                          np.array([1e-20, 0.5]), 0)
        assert rows.terms_used[0, 0] == 4 and rows.terms_used[1, 1] == 2

    @given(st.floats(0.1, 6.0), st.integers(0, 3))
    @settings(max_examples=30, deadline=None)
    def test_tolerance_refinement(self, u, order):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(specfun, "TOL", 1e-9)
            a = hyp_series((0.25,), (0.75, 1.25, 1.5), 1 / 256, 2, 4, u, order)
            mp.setattr(specfun, "TOL", 1e-13)
            b = hyp_series((0.25,), (0.75, 1.25, 1.5), 1 / 256, 2, 4, u, order)
        assert a.value == pytest.approx(b.value, rel=1e-7, abs=1e-250)


# the 1F3 families (numerators, denominators, power) behind mullins_shape,
# basis_f1/f2 and outer_term_shape r = 1..3, all with argument u^4/256
_SHAPE_FAMILIES = [((0.25,), (0.75, 1.25, 1.5), 2), ((-0.25,), (0.25, 0.5, 0.75), 0),
                   ((0.5,), (1.25, 1.5, 1.75), 3)] + [
    fam for r in (1, 2, 3) for fam in (((1.5 * r - 0.25,), (0.25, 0.5, 0.75), 0),
                                       ((1.5 * r + 0.25,), (0.75, 1.25, 1.5), 2))]


@pytest.mark.parametrize("nums, dens, power", _SHAPE_FAMILIES,
                         ids=["even", "const", "cubic"] + [f"r{r}-{p}" for r in (1, 2, 3)
                                                           for p in ("p0", "p2")])
@pytest.mark.parametrize("order", [0, 1, 2, 4])
def test_cancellation_flag_bounds_the_error(nums, dens, power, order):
    """Against 40-digit mpmath.hyper on u in [0, 12], the error stays within
    16 eps times the largest term: the reported cancellation digits predict
    the digits lost (error <= 16 eps |value| 10^digits)."""
    us = np.linspace(0.0, 12.0, 25)
    got = hyp_series(nums, dens, 1 / 256, power, 4, us, order)
    with mpmath.workdps(40):
        def f(u):
            return u ** power * mpmath.hyper(nums, dens, u ** 4 / 256)

        # at u = 0 only the monomial of degree `order` survives
        k, rem = divmod(order - power, 4)
        wall = 0 if rem or k < 0 else (
            mpmath.factorial(order) * mpmath.rf(nums[0], k) / mpmath.factorial(k)
            / mpmath.fprod(mpmath.rf(b, k) for b in dens) / mpmath.mpf(256) ** k)
        exact = [mpmath.diff(f, mpmath.mpf(u), order) if u > 0 else wall for u in us]
        err = np.array([float(abs(v - e)) for v, e in zip(got.value.tolist(), exact)])
    bound = 16 * np.finfo(float).eps * got.max_term_magnitude
    assert np.all(err <= bound), float(np.max(err / np.where(bound > 0, bound, np.inf)))


def test_twosum_compensation_equals_the_branching_form():
    """TwoSum's error term and the |s| >= |x| branch of Neumaier's step are
    both the exact rounding error of s + x: bit for bit the same, on
    operands of either sign from 1e-300 to 1e300 and on near-cancelling
    pairs."""
    rng = np.random.default_rng(14)

    def operands(n):
        return rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-300, 300, n)

    s, c = operands(200_000), operands(200_000) * 1e-16
    x = np.concatenate([operands(100_000), -s[100_000:] * (1 + rng.uniform(-1e-9, 1e-9,
                                                                            100_000))])
    t = s + x
    branching = c + np.where(abs(s) >= abs(x), (s - t) + x, (x - t) + s)
    got_t, got_c = _neumaier_add(s, c, x)
    assert np.array_equal(got_t.view(np.int64), t.view(np.int64))
    assert np.array_equal(got_c.view(np.int64), branching.view(np.int64))


# parameters of the differential test: terminating numerators (-1, -3) and a
# denominator 1e-10 from the pole at -3 among sound values
_NUMERATORS = (0.25, -0.25, 1.5, 7 / 6, -1.0, -3.0)
_DENOMINATORS = (0.75, 1.25, 1.5, 1 / 3, 5 / 6, 2.5, -2.9999999999)
_POINT = st.one_of(st.floats(0.0, 16.0), st.sampled_from([0.0, 5e-324, 16.0, 40.0, 300.0, 1000.0]))


@st.composite
def _engine_call(draw):
    """hyp_series arguments: 1-6 parameter rows (0-2 numerators, 1-5
    denominators, power 0-3) and up to 15 unsorted points of either sign with
    duplicates, or one float."""
    rows = draw(st.integers(1, 6))
    dens = [tuple(draw(st.lists(st.sampled_from(_DENOMINATORS), min_size=1, max_size=5)))
            for _ in range(rows)]
    nums = [tuple(draw(st.lists(st.sampled_from(_NUMERATORS), max_size=min(2, len(d)))))
            for d in dens]
    powers = draw(st.lists(st.integers(0, 3), min_size=rows, max_size=rows))
    points = draw(st.lists(_POINT, min_size=1, max_size=12))
    # every power is an integer, so a negative x has real powers
    points = [-v if draw(st.booleans()) else v for v in points]
    points = draw(st.permutations(points + draw(st.lists(st.sampled_from(points), max_size=3))))
    x = points[0] if len(points) == 1 and draw(st.booleans()) else np.array(points)
    if rows == 1 and draw(st.booleans()):
        nums, dens, powers = nums[0], dens[0], powers[0]
    return (nums, dens, draw(st.sampled_from([1 / 256, -1 / 6 ** 6, 1.0, -1.0])), powers,
            draw(st.sampled_from([1, 4, 6])), x, draw(st.integers(0, 8)))


# libm's edges: zeros, the smallest subnormal, the largest magnitudes, and
# negative points under odd and even integer powers
_LIBM_POINTS = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 0.37, 1.0, 3.5, 1e154, 1e308,
                -0.37, -1.0, -3.5, -1e154, -1e308]


@pytest.mark.parametrize("e", [1, 2, 3, 4, 5, 6, 7, 8, 12, 0.25, 0.75, 1.5])
def test_libm_pow_is_float_pow_per_point(e):
    """The map of math.pow gives each point's float ** bit for bit, and the
    points where ** overflows raise the same OverflowError: numpy's power may
    differ from libm in the last bit."""
    rng = np.random.default_rng(17)
    xs = _LIBM_POINTS + rng.uniform(-40.0, 40.0, 300).tolist() + [
        math.copysign(10.0 ** p, p) for p in rng.uniform(-320.0, 308.0, 300).tolist()]
    if not float(e).is_integer():
        xs = [abs(v) for v in xs]
    fine, over = [], []
    for v in xs:
        try:
            fine.append((v, v ** e))
        except OverflowError:
            over.append(v)
    got = libm_pow(np.array([v for v, _ in fine]), e)
    assert got.tobytes() == np.array([w for _, w in fine]).tobytes()
    assert all(libm_pow(v, e) == w and type(libm_pow(v, e)) is float for v, w in fine[:20])
    for v in over:
        with pytest.raises(OverflowError):
            libm_pow(np.array([1.0, v]), e)
    assert over or e < 1.5      # 1e308 overflows every power from 1.5 up


@pytest.mark.parametrize("args", [
    ((0.25,), (0.75, 1.25, 1.5), 1 / 256, 2, 4, np.array([1.0, 1e80]), 0),
    ((0.25,), (0.75, 1.25, 1.5), 1 / 256, 3, 4, np.array([-1e103, 2.0]), 0),
    ((), (1.0,), 1.0, 7, 1, np.array([-1e45, 0.5]), 0),
], ids=["x-to-the-step", "cube-of-negative-x", "seventh-power-of-negative-x"])
def test_overflowing_powers_raise_the_reference_error(args):
    """A power of x past the float range, x ** step or x ** power, raises the
    SeriesError the per-point ** loop raised: message, term count and partial
    sum."""
    assert _outcome(hyp_series, args) == _outcome(hyp_series_reference, args)
    assert _outcome(hyp_series, args)[0] is SeriesError


def _outcome(engine, args) -> tuple:
    """Every bit a call gives back: the fields' bytes, or the error's type,
    message, term count and partial sum."""
    try:
        r = engine(*args)
    except SeriesError as exc:
        return (type(exc), str(exc), exc.terms_used, np.float64(exc.partial_sum).tobytes())
    return tuple((type(f), np.shape(f), np.asarray(f).tobytes())
                 for f in (r.value, r.terms_used, r.max_term_magnitude))


@given(_engine_call())
# x = 1 (or 0) finishes first and stays in the arrays, as one element in five,
# while the rest run out of terms, or while their term overflows and its
# own turns NaN (0 times an infinite coefficient ratio)
@example(([(0.25,)], [(0.75,)], 1.0, [0], 1, np.array([1.0, 400.0, 400.0, 400.0, 400.0]), 0))
@example(([(0.25,)], [(-0.9999999999999,)], 1e300, [0], 1, np.array([0.0] + [1e-3] * 4), 0))
# term 3 falls below tol and term 4 (over b + 3 = 1e-10) does not, so the
# count restarts
@example(((0.25,), (-2.9999999999,), 1.0, 0, 1, 1e-5, 0))
@settings(derandomize=True, max_examples=200, deadline=None)
def test_term_loop_matches_the_reference_loop(args):
    """The in-place term loop, which drops finished elements in batches,
    gives what the loop that drops them on every term gave, bit for bit: the
    values, term counts and largest terms, or the same SeriesError.  The
    engine raises no RuntimeWarning (warnings are errors in the tests); the
    reference may, where a term turns NaN."""
    with np.errstate(invalid="ignore"):
        want = _outcome(hyp_series_reference, args)
    assert _outcome(hyp_series, args) == want


@given(x=st.lists(edge_or(0.0, 0.5, 3.0, 12.0), min_size=1, max_size=3),
       scale=edge_or(1 / 256, -1 / 6 ** 6, 1.0), numerator=edge_or(0.25, -0.25, -2.0),
       denominators=st.lists(edge_or(0.75, 1.25, 1 / 3, -2.9999999999), min_size=1,
                             max_size=5),
       power=edge_or(0.0, 2.0, 3.0), step=st.sampled_from([1, 4, 6]),
       order=st.integers(0, 4))
@settings(derandomize=True, max_examples=300, deadline=None)
def test_finite_or_documented_error(x, scale, numerator, denominators, power, step, order):
    """Any floats give finite values and largest terms, or a ValueError
    (GammaPoleError is one) or SeriesError, with no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            r = hyp_series((numerator,), tuple(denominators), scale, power, step,
                           np.array(x), order)
        except (ValueError, SeriesError):
            return
    assert np.isfinite(r.value).all() and np.isfinite(r.max_term_magnitude).all()
