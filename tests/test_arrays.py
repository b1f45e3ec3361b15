"""Array calls of the profile evaluators equal the list of scalar calls, bit for bit.

Every grid holds the wall point 0, the clamp point u = 12 and points past
it, so the x = 0 monomial path, the clamp mask and the summing points are
all exercised in one call.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbgroove.composite import ExpansionSpec, composite_profile_nd, mullins_profile_dim
from gbgroove.layers import (
    CornerSpec,
    boundary_layer_G,
    corner_combination,
    corner_fundamental_v,
    corner_solution_diagnostics,
    corner_solutions_yc,
)
from gbgroove.outer import mullins_shape, outer_term_shape
from gbgroove.specfun import SeriesError, hyp_series, hyp_series_derivative

U = np.array([0.0, 1e-3, 0.37, 1.0, 2.5, 4.0, 6.75, 9.1, 11.99, 12.0,
              12.0 + 1e-9, 12.5, 20.0])
ALPHA_HAT = 0.3
CORNER = CornerSpec(r=-1.0, gamma=ALPHA_HAT, alpha_hat=ALPHA_HAT)


def _same(array_result, scalar_results):
    scalars = np.array(scalar_results)
    return array_result.shape == scalars.shape and np.array_equal(array_result, scalars)


@pytest.mark.parametrize("order", range(7))
def test_mullins_shape(order):
    assert _same(mullins_shape(U, order), [mullins_shape(float(u), order) for u in U])


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("order", range(7))
def test_outer_term_shape(r, order):
    assert _same(outer_term_shape(r, U, order),
                 [outer_term_shape(r, float(u), order) for u in U])


@pytest.mark.parametrize("order", range(7))
def test_boundary_layer_G(order):
    # past x / sqrt(alpha) = 700 the correction is 0
    x = np.concatenate([U, [700.0 * math.sqrt(ALPHA_HAT), 400.0]])
    got = boundary_layer_G(x, 1.0, ALPHA_HAT, 0.209, order=order)
    assert _same(got, [boundary_layer_G(float(v), 1.0, ALPHA_HAT, 0.209, order=order)
                       for v in x])
    assert got[-1] == 0.0
    assert _same(boundary_layer_G(x, 1.0, 0.0, 0.209, order=order), [0.0] * len(x))


@pytest.mark.parametrize("i", range(1, 7))
@pytest.mark.parametrize("order", range(7))
def test_corner_fundamental_v(i, order):
    assert _same(corner_fundamental_v(i, U, -1.0, order),
                 [corner_fundamental_v(i, float(w), -1.0, order) for w in U])


@pytest.mark.parametrize("N", [0, 1, 2])
@pytest.mark.parametrize("corner", [False, True])
@pytest.mark.parametrize("t", [1.0, 0.01])
def test_composite_profile_nd(N, corner, t):
    spec = ExpansionSpec(N=N, corner=CORNER if corner else None)
    assert _same(composite_profile_nd(U, t, 0.209, ALPHA_HAT, spec),
                 [composite_profile_nd(float(x), t, 0.209, ALPHA_HAT, spec) for x in U])


def test_mullins_profile_dim(fig4_params):
    xs = U * 1e-7
    assert _same(mullins_profile_dim(xs, 1e-29, fig4_params),
                 [mullins_profile_dim(float(x), 1e-29, fig4_params) for x in xs])


@pytest.mark.parametrize("i", range(1, 7))
def test_corner_solutions_yc(i):
    assert _same(corner_solutions_yc(i, U, 1.0, CORNER),
                 [corner_solutions_yc(i, float(z), 1.0, CORNER) for z in U])


def test_corner_rows_share_fundamentals():
    rows = corner_solutions_yc((4, 5, 6), U, 1.0, CORNER)
    assert rows.shape == (3, len(U))
    for row, i in zip(rows, (4, 5, 6)):
        assert np.array_equal(row, corner_solutions_yc(i, U, 1.0, CORNER))
    combo = corner_combination(U, 1.0, CORNER)
    assert np.array_equal(corner_combination(U, 1.0, CORNER, yc456=rows), combo)
    assert _same(combo, [corner_combination(float(z), 1.0, CORNER) for z in U])


def test_per_point_diagnostics():
    diag = corner_solution_diagnostics(4, U, 1.0, CORNER)
    for j, z in enumerate(U):
        one = corner_solution_diagnostics(4, float(z), 1.0, CORNER)
        assert (diag.value[j], diag.max_term_magnitude[j], diag.cancellation_digits[j]) == (
            one.value, one.max_term_magnitude, one.cancellation_digits)
    res = hyp_series((0.25,), (0.75, 1.25, 1.5), 1 / 256, 2, 4, U, 1)
    for j, u in enumerate(U):
        one = hyp_series_derivative((0.25,), (0.75, 1.25, 1.5), 1 / 256, 2, 4, float(u), 1)
        fields = ("value", "terms_used", "max_term_magnitude", "cancellation_digits")
        assert [getattr(res, f)[j] for f in fields] == [getattr(one, f) for f in fields]


def test_scalar_in_float_out():
    for value in (mullins_shape(1.0), mullins_shape(13.0), outer_term_shape(2, 0.0),
                  boundary_layer_G(0.5, 1.0, ALPHA_HAT, 0.209),
                  composite_profile_nd(1.0, 1.0, 0.209, ALPHA_HAT, ExpansionSpec()),
                  corner_solutions_yc(4, 1.0, 1.0, CORNER)):
        assert type(value) is float


@given(st.lists(st.floats(0.0, 14.0), min_size=1, max_size=12), st.integers(0, 4))
@settings(max_examples=25, deadline=None)
def test_drawn_grids(us, order):
    u = np.array(us)
    assert _same(mullins_shape(u, order), [mullins_shape(v, order) for v in us])
    assert _same(outer_term_shape(1, u, order), [outer_term_shape(1, v, order) for v in us])


def test_any_overflowing_point_raises():
    # at u = 1000 the 1F3 terms pass the float64 range before they fall
    nums, dens = (0.25,), (0.75, 1.25, 1.5)
    with pytest.raises(SeriesError):
        hyp_series_derivative(nums, dens, 1 / 256, 2, 4, 1000.0, 0)
    with pytest.raises(SeriesError) as err:
        hyp_series(nums, dens, 1 / 256, 2, 4, np.array([0.0, 1.0, 1000.0, 2.0]), 0)
    assert err.value.terms_used > 0
    assert "x=1000" in str(err.value)
