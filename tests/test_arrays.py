"""Array calls of the profile evaluators equal the list of scalar calls, bit for bit.

Every grid holds the wall point 0, the clamp point u = 12 and points past
it, so the wall, the clamp mask and the summing points are all exercised
in one call.
"""

import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (mullins_profile, mullins_profile_dim, mullins_shape, outer_term,
                      outer_term_shape)
from gbgroove import layers, outer
from gbgroove.cli import PRESETS, CliConfigError, NonFiniteOutputError, RunConfig, main, run
from gbgroove.composite import ExpansionSpec, composite_profile_nd, depth_difference
from gbgroove.layers import (
    CornerSpec,
    beta2,
    beta4,
    boundary_layer_G,
    corner_combination,
    corner_fundamental_v,
    corner_solution_diagnostics,
    corner_solutions_yc,
)
from gbgroove.material import nondimensionalize
from gbgroove.outer import outer_expansion
from gbgroove.specfun import SeriesError, gamma, hyp_series

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
@pytest.mark.parametrize("t", [1.0, 0.01])
def test_composite_profile_nd(N, t):
    spec = ExpansionSpec(N=N)
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


def test_boundary_layer_G_is_libm_exp_per_point():
    """The map of math.exp gives each point's amplitude * math.exp(-x / sqrt(alpha))
    bit for bit, 0 past x / sqrt(alpha) = 700: numpy's exp may differ from
    libm in the last bit."""
    root = math.sqrt(ALPHA_HAT)
    x = np.concatenate([[0.0, 5e-324, 2.2e-308, 700.0 * root, 700.0 * root * (1 + 1e-15), 1e300],
                        np.random.default_rng(5).uniform(0.0, 700.0 * root, 1000)])
    amplitude = ALPHA_HAT * beta2(1.0, 0.209) + ALPHA_HAT ** 2 * beta4(1.0, 0.209)
    want = [amplitude * math.exp(-(v / root)) if v / root <= 700.0 else 0.0 for v in x.tolist()]
    assert boundary_layer_G(x, 1.0, ALPHA_HAT, 0.209).tobytes() == np.array(want).tobytes()


def test_per_point_diagnostics():
    diag = corner_solution_diagnostics(4, U, 1.0, CORNER)
    for j, z in enumerate(U):
        one = corner_solution_diagnostics(4, float(z), 1.0, CORNER)
        assert (diag.value[j], diag.max_term_magnitude[j], diag.cancellation_digits[j]) == (
            one.value, one.max_term_magnitude, one.cancellation_digits)
    res = hyp_series((0.25,), (0.75, 1.25, 1.5), 1 / 256, 2, 4, U, 1)
    for j, u in enumerate(U):
        one = hyp_series((0.25,), (0.75, 1.25, 1.5), 1 / 256, 2, 4, float(u), 1)
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
        hyp_series(nums, dens, 1 / 256, 2, 4, 1000.0, 0)
    with pytest.raises(SeriesError) as err:
        hyp_series(nums, dens, 1 / 256, 2, 4, np.array([0.0, 1.0, 1000.0, 2.0]), 0)
    assert err.value.terms_used > 0
    assert "x=1000" in str(err.value)


# parameter rows for both steps, powers 0, 2 and 3, so the rows start at
# different k, and last a terminating row (a polynomial of degree 8 or 5 in
# the argument) among them: 1F3 shape families with argument u^4/256 and
# 1F5 corner fundamentals v_1, v_3, v_4 (r = -1) with argument -w^6/6^6
_ROWS = {
    4: ([(0.25,), (-0.25,), (0.5,), (-8.0,)],
        [(0.75, 1.25, 1.5), (0.25, 0.5, 0.75), (1.25, 1.5, 1.75), (0.75, 1.25, 1.5)],
        [2, 0, 3, 2], 1 / 256),
    6: ([(1.0,), (4 / 3,), (1.5,), (-5.0,)],
        [tuple((i + j) / 6 for j in range(6) if i + j != 6) for i in (1, 3, 4, 4)],
        [0, 2, 3, 3], -1 / 6 ** 6),
}
_FIELDS = ("value", "terms_used", "max_term_magnitude", "cancellation_digits")


@pytest.mark.parametrize("step", [4, 6])
@pytest.mark.parametrize("order", range(9))
def test_parameter_rows_equal_one_row_calls(step, order):
    nums, dens, powers, scale = _ROWS[step]
    for x in (U, 0.0, 2.5):
        rows = hyp_series(nums, dens, scale, powers, step, x, order)
        for i in range(len(powers)):
            one = hyp_series(nums[i], dens[i], scale, powers[i], step, x, order)
            for f in _FIELDS:
                got = getattr(rows, f)
                assert got.shape == (len(powers),) + np.shape(x)
                assert np.array_equal(got[i], getattr(one, f)), (i, f)
    # the terminating row sums every term from its first, k0, to its last
    cut = int(-nums[-1][0]) + 1
    k0 = max(0, -((powers[-1] - order) // step))
    terms = hyp_series(nums, dens, scale, powers, step, U, order).terms_used[-1]
    assert np.all(terms[U > 0] == max(cut - k0, 1))


def test_overflowing_row_raises():
    # at u = 1000 the non-terminating 1F3 row overflows; the terminating
    # row next to it is a polynomial and would not
    nums, dens = [(-2.0,), (0.25,)], [(0.75, 1.25, 1.5)] * 2
    with pytest.raises(SeriesError) as err:
        hyp_series(nums, dens, 1 / 256, [2, 2], 4, np.array([0.0, 1.0, 1000.0]), 0)
    assert err.value.terms_used > 0
    assert "x=1000" in str(err.value)


@pytest.mark.parametrize("order", range(7))
def test_outer_expansion_terms_equal_their_evaluators(order):
    x, t = U * 1.3, 1.7
    terms = outer_expansion(3, x, t, 0.209, order=order)
    assert _same(terms[0], mullins_profile(x, t, 0.209, order=order))
    for r in (1, 2, 3):
        assert _same(terms[r], outer_term(r, x, t, 0.209, order=order))
    one = outer_expansion(2, 0.7, t, 0.209, order=order)
    assert one == [mullins_profile(0.7, t, 0.209, order=order),
                   *(outer_term(r, 0.7, t, 0.209, order=order) for r in (1, 2))]
    assert all(type(v) is float for v in one)


def _engine_calls(monkeypatch, module):
    """Arguments of every series-engine call made through `module`."""
    calls = []
    engine = module.hyp_series
    monkeypatch.setattr(module, "hyp_series",
                        lambda *args: calls.append(args) or engine(*args))
    return calls


def test_composite_is_one_engine_pass(monkeypatch):
    calls = _engine_calls(monkeypatch, outer)
    composite_profile_nd(U, 1.0, 0.209, ALPHA_HAT, ExpansionSpec(N=2))
    assert len(calls) == 1
    assert list(calls[0][3]) == [2, 0, 0, 2, 0, 2]      # y_0, y_1 and y_2: two rows each


def test_corner_solutions_are_one_engine_pass(monkeypatch):
    calls = _engine_calls(monkeypatch, layers)
    corner_solutions_yc((4, 5, 6), U, 1.0, CORNER)
    # the five fundamentals v_2..v_6 that y_c4..y_c6 weigh (v_1's weight is
    # 0 at r = -1)
    assert len(calls) == 1 and list(calls[0][3]) == [1, 2, 3, 4, 5]


def test_figure6_makes_no_engine_call(monkeypatch, capsys):
    # Z(0) and the depth difference are closed forms: no series for 4 alphas x 25 Bt
    calls = [_engine_calls(monkeypatch, module) for module in (outer, layers)]
    assert main(["--preset", "figure6"]) == 0
    assert calls == [[], []]
    assert len(PRESETS["figure6"]["times"]) == 25
    assert len(capsys.readouterr().out.splitlines()) == 3 + 4 * 25     # 4 alphas


def test_mullins_root_shape_is_the_closed_form():
    """Z(0) is the constant piece's coefficient -1/(2 sqrt2 Gamma(5/4)), bit
    for bit: the u^2 piece and the linear term vanish at the root."""
    assert mullins_shape(0.0) == -1.0 / (2.0 * math.sqrt(2.0) * gamma(1.25)) == outer.Z0


@given(bt=st.floats(1e-200, 1e200), m=st.floats(0.0, 0.33),
       alpha=st.sampled_from([0.0, 3e-16, 9.7e-16]))
@settings(derandomize=True, max_examples=100, deadline=None)
def test_depth_series_mullins_column_is_the_profile_at_the_root(bt, m, alpha):
    """The depth_mullins_m column, scaled from one Z(0), equals
    |mullins_profile_dim(0, Bt)| bit for bit."""
    cfg = RunConfig(mode="depth-series", model={"B": 1.0, "alpha": alpha, "m": m},
                    times=[bt])
    row = run(cfg).splitlines()[-1].split(",")
    assert float(row[2]) == abs(mullins_profile_dim(0.0, bt, nondimensionalize(alpha, bt, m)))


# alphas and Bt values: the figure6 sweep's, edge values, and pairs whose
# alpha_hat overflows its square (1e-6 at Bt 1e-300) or float64 (1e147 at
# 5e-324), whose L0^4 overflows (the largest float), or that ModelParams
# refuses (alpha -1, Bt inf)
_DEPTH_ALPHAS = st.sampled_from([0.0, 5e-324, 9.7e-17, 3e-16, 9.7e-16, 1.05e-15, 1e-6, 1e147,
                                 -1.0])
_DEPTH_BTS = st.one_of(st.floats(1e-300, 1e300),
                       st.sampled_from([5e-324, 2.2e-308, 1e-300, 1e-31, 1e-29, 1e-28, 1e300,
                                        1.7e308, sys.float_info.max, math.inf]))


def _row(alpha, bt, m):
    """One depth-series row by the row-by-row route, or the error it raises."""
    try:
        p = nondimensionalize(alpha, bt, m)
        ym = abs(mullins_profile_dim(0.0, bt, p))
        dd = depth_difference(bt, p)
    except (ValueError, OverflowError) as exc:
        return exc
    return [p.alpha, bt, ym, ym - dd, dd / ym if ym > 0 else 0.0]


@given(alphas=st.lists(_DEPTH_ALPHAS, min_size=1, max_size=4),
       bts=st.lists(_DEPTH_BTS, min_size=1, max_size=6), m=st.sampled_from([0.0, 0.209, 0.33]))
@settings(derandomize=True, max_examples=150, deadline=None)
def test_depth_series_rows_are_the_scalar_route(alphas, bts, m):
    """depth-series takes every row in one array call; each row equals the
    row-by-row route bit for bit: |mullins_profile_dim(0, Bt, p)| and
    depth_difference(Bt, p) at p = nondimensionalize(alpha, Bt, m).  Where
    that route fails, the run fails alike: the first row ModelParams refuses
    exits 2 with its message, else an overflowing power exits 3, else a
    non-finite value fails the output check."""
    cfg = RunConfig(mode="depth-series", model={"B": 1.0, "alpha": alphas[0], "m": m},
                    times=bts, alphas=alphas)
    want = [_row(alpha, bt, m) for alpha in alphas for bt in bts]
    refused = [r for r in want if isinstance(r, ValueError)]
    if refused:
        with pytest.raises(CliConfigError, match=re.escape(f"bad model block: {refused[0]}") + "$"):
            run(cfg)
        return
    if any(isinstance(r, OverflowError) for r in want):
        with pytest.raises(OverflowError):
            run(cfg)
        return
    if not np.isfinite(want).all():
        with pytest.raises(NonFiniteOutputError):
            run(cfg)
        return
    got = [[float(v) for v in line.split(",")] for line in run(cfg).splitlines()
           if not line.startswith("#")]
    assert np.array(got).tobytes() == np.array(want).tobytes()
