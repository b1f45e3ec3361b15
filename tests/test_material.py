"""Reduction of dimensional constants to the model parameters."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbgroove.material import (
    PhysicalParams,
    SmallSlopeWarning,
    model_from_physical,
    mullins_coefficient,
    nondimensionalize,
    stiffness_parameter,
)

# thin alumina on aluminium, the worked estimate
ALUMINA = dict(E=253e9, nu=0.24, h=5e-9, gamma_i=1.2, gamma_s=1.67)


def _phys(**over):
    base = dict(D_i=1e-18, n=1e19, Omega=1.66e-29, kT=1.2e-20,
                E=253e9, h=5e-9, nu=0.24,
                gamma_gb=0.5999, gamma_i=1.2, gamma_s=1.67)
    base.update(over)
    return PhysicalParams(**base)


class TestMullinsCoefficient:
    def test_unit_inputs(self):
        p = _phys(D_i=1.0, n=1.0, Omega=1.0, kT=1.0, gamma_i=0.5, gamma_s=0.5,
                  gamma_gb=0.1)
        assert mullins_coefficient(p) == pytest.approx(1.0, rel=1e-15)

    def test_linear_in_diffusivity(self):
        b1 = mullins_coefficient(_phys())
        b2 = mullins_coefficient(_phys(D_i=2e-18))
        assert b2 == pytest.approx(2 * b1, rel=1e-14)

    def test_quadratic_in_atomic_volume(self):
        b1 = mullins_coefficient(_phys())
        b2 = mullins_coefficient(_phys(Omega=2 * 1.66e-29))
        assert b2 == pytest.approx(4 * b1, rel=1e-14)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            _phys(D_i=0.0)
        with pytest.raises(ValueError):
            _phys(kT=-1.0)


class TestStiffnessParameter:
    def test_alumina_estimate(self):
        p = _phys()
        assert stiffness_parameter(p) == pytest.approx(9.7e-16, rel=5e-3)

    def test_cubic_in_thickness(self):
        a1 = stiffness_parameter(_phys())
        a2 = stiffness_parameter(_phys(h=1e-8))
        assert a2 == pytest.approx(8 * a1, rel=1e-14)

    def test_unit_cancelling_identity(self):
        p = _phys(E=12.0, nu=0.0, h=1.0, gamma_i=0.5, gamma_s=0.5, gamma_gb=0.1)
        assert stiffness_parameter(p) == pytest.approx(1.0, rel=1e-15)

    def test_poisson_bounds(self):
        with pytest.raises(ValueError):
            _phys(nu=0.5)
        with pytest.raises(ValueError):
            _phys(nu=-1.0)


class TestSlopeParameter:
    """m = gamma_gb / (gamma_i + gamma_s), as model_from_physical reduces it."""

    def test_no_groove(self):
        assert model_from_physical(_phys(gamma_gb=0.0), bt=1e-29).m == 0.0

    def test_figure_value(self):
        m = model_from_physical(_phys(), bt=1e-29).m
        assert m == pytest.approx(0.5999 / 2.87, rel=1e-15)
        assert m == pytest.approx(0.209, abs=5e-4)

    def test_warning_past_validity(self):
        with pytest.warns(SmallSlopeWarning):
            model_from_physical(_phys(gamma_gb=2.87), bt=1e-29)

    def test_rejects_zero_denominator(self):
        with pytest.raises(ValueError):
            _phys(gamma_gb=0.1, gamma_i=0.0, gamma_s=0.0)


class TestNondimensionalize:
    def test_figure_scales(self):
        p = nondimensionalize(alpha=9.7e-16, bt=1e-29, m=0.209)
        assert p.L0 == pytest.approx(5.623413251903491e-08, rel=1e-12)
        assert p.alpha_hat == pytest.approx(0.3067409330363328, rel=1e-12)

    def test_unpassivated_limit(self):
        p = nondimensionalize(alpha=0.0, bt=6.0)
        assert p.alpha_hat == 0.0

    def test_time_scaling(self):
        # L0^2 grows like t^(1/2), so 16x the reference time quarters alpha_hat
        p1 = nondimensionalize(alpha=1e-15, bt=1e-29)
        p2 = nondimensionalize(alpha=1e-15, bt=16e-29)
        assert p2.alpha_hat == pytest.approx(p1.alpha_hat / 4.0, rel=1e-13)

    def test_alpha_hat_vanishes_at_long_times(self):
        hats = [nondimensionalize(1e-15, t).alpha_hat
                for t in (1e-29, 1e-27, 1e-25)]
        assert hats[0] > hats[1] > hats[2]

    def test_rejects_bad_inputs(self):
        nan, inf = float("nan"), float("inf")
        # (alpha, Bt, m); the last gives alpha_hat = inf from finite inputs
        for alpha, bt, m in [(1.0, 0.0, 0.0), (-1.0, 1.0, 0.0), (nan, 1e-29, 0.2),
                             (inf, 1e-29, 0.2), (1e-15, inf, 0.2), (1e-15, 1e-29, inf),
                             (1e-15, 1e-29, nan), (1e300, 1e-300, 0.2)]:
            with pytest.raises(ValueError):
                nondimensionalize(alpha, bt, m)

    def test_slope_warning_comes_through(self):
        with pytest.warns(SmallSlopeWarning):
            nondimensionalize(alpha=0.0, bt=1.0, m=0.4)


class TestScaleCovariance:
    @given(st.floats(0.1, 10.0))
    @settings(max_examples=25)
    def test_energy_rescaling(self, c):
        """Scaling every interfacial energy by c: B -> cB, m fixed, alpha -> alpha/c."""
        p1 = _phys()
        p2 = _phys(gamma_gb=c * 0.5999, gamma_i=c * 1.2, gamma_s=c * 1.67)
        assert mullins_coefficient(p2) == pytest.approx(
            c * mullins_coefficient(p1), rel=1e-12)
        assert stiffness_parameter(p2) == pytest.approx(
            stiffness_parameter(p1) / c, rel=1e-12)
        m1 = model_from_physical(p1, bt=1e-29).m
        m2 = model_from_physical(p2, bt=1e-29).m
        assert m2 == pytest.approx(m1, rel=1e-12)

    def test_groove_angle_guard(self):
        with pytest.raises(ValueError):
            _phys(gamma_gb=6.0)


class TestModelFromPhysical:
    def test_full_chain(self):
        p = model_from_physical(_phys(), bt=1e-9 * mullins_coefficient(_phys()))
        assert p.alpha > 0 and 0 < p.m < 1 / 3
        assert p.alpha_hat == pytest.approx(p.alpha / p.L0 ** 2, rel=1e-14)

    def test_rescaled(self):
        B = mullins_coefficient(_phys())
        p = model_from_physical(_phys(), bt=1e-9 * B)
        q = nondimensionalize(p.alpha, 16e-9 * B, p.m)
        assert q.alpha_hat == pytest.approx(p.alpha_hat / 4, rel=1e-13)
        assert q.alpha == p.alpha and q.m == p.m

    def test_one_slope_warning_at_the_call(self):
        """A steep groove warns once per reduction, at the caller's line."""
        with pytest.warns(SmallSlopeWarning) as record:
            model_from_physical(_phys(gamma_gb=1.5), bt=1e-29)
        assert len(record) == 1
        assert record[0].filename == __file__
