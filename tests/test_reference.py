"""Laplace-Talbot reference: inversion convergence and the closed form."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import edge_or, exact_profile_per_node, mullins_profile
from gbgroove.reference import exact_profile

M = 0.209
X = np.linspace(0.0, 8.0, 257)


@pytest.mark.parametrize("L", [math.inf, 8.0])
@pytest.mark.parametrize("alpha_hat", [0.0, 0.05, 0.307, 0.56])
def test_contour_nodes_converged(alpha_hat, L):
    """Doubling the Talbot nodes moves the profile by roundoff only."""
    a = exact_profile(X, 1.0, M, alpha_hat, L=L)
    b = exact_profile(X, 1.0, M, alpha_hat, L=L, nodes=48)
    assert np.max(np.abs(a - b)) <= 1e-12 * abs(b[0])


@pytest.mark.parametrize("L", [math.inf, 8.0])
@pytest.mark.parametrize("alpha_hat", [0.0, 0.05, 0.307, 0.56])
def test_batched_upper_half_is_the_per_node_sum(alpha_hat, L):
    """One batched solve over the 12 upper-half nodes, twice their real
    part, is the loop over all 24 nodes, one solve each, to roundoff."""
    ref = exact_profile_per_node(X, 1.0, M, alpha_hat, L=L)
    got = exact_profile(X, 1.0, M, alpha_hat, L=L)
    assert np.max(np.abs(got - ref)) <= 1e-14 * abs(ref[0])


@pytest.mark.parametrize("L, alpha_hat, gap", [
    (math.inf, 1e-2, 1e-12), (math.inf, 1e16, 1e-12), (8.0, 1e-2, 1e-12), (8.0, 1e3, 1e-12),
    # the losses exact_profile states past those edges: 2.4e-10, 1.5e-7, 5.6e-4
    (math.inf, 1e-12, 1e-9), (8.0, 1e-12, 1e-6), (8.0, 1e16, 2e-3),
], ids=["half-line-1e-2", "half-line-1e16", "box-1e-2", "box-1e3",
        "half-line-1e-12", "box-1e-12", "box-1e16"])
def test_node_doubling_gap_at_the_stated_edges(L, alpha_hat, gap):
    """24 and 48 nodes agree as `exact_profile` states: to 1e-12 of depth at
    the edges of the range it promises that for, and within its stated
    loss outside."""
    a = exact_profile(X, 1.0, M, alpha_hat, L=L)
    b = exact_profile(X, 1.0, M, alpha_hat, L=L, nodes=48)
    assert np.max(np.abs(a - b)) <= gap * abs(b[0])


def test_unpassivated_half_line_is_mullins():
    for t in (0.01, 1.0, 7.0):
        x = X * t ** 0.25
        ref = mullins_profile(x, t, M)
        got = exact_profile(x, t, M, 0.0)
        assert np.max(np.abs(got - ref)) <= 1e-12 * abs(ref[0])


def test_box_differs_from_half_line_by_the_truncated_tail():
    """At L = 8 (Bt)^(1/4), the solver's box, the far conditions move the
    unpassivated profile by 0.2% of depth."""
    half = exact_profile(X, 1.0, M, 0.0)
    box = exact_profile(X, 1.0, M, 0.0, L=8.0)
    assert np.max(np.abs(box - half)) / abs(half[0]) == pytest.approx(2.2e-3, rel=0.1)


def test_zero_slope_is_flat():
    assert np.all(exact_profile(X, 1.0, 0.0, 0.307, L=8.0) == 0.0)


@pytest.mark.parametrize("bad", [dict(t=0.0), dict(alpha_hat=-0.1), dict(L=0.0),
                                 dict(t=math.inf), dict(m=math.nan), dict(alpha_hat=math.inf),
                                 dict(nodes=0), dict(x=np.array([0.0, math.nan])),
                                 dict(x=np.array([-50.0]), L=math.inf), dict(x=np.array([20.0])),
                                 dict(x=np.array([0.0, math.inf]), L=math.inf), dict(nodes=2.5),
                                 dict(nodes=25), dict(t=1e300), dict(t=5e-324),
                                 dict(alpha_hat=5e-324), dict(alpha_hat=1e300),
                                 dict(t=1e300, L=math.inf), dict(alpha_hat=5e-324, L=math.inf),
                                 dict(m=1e308), dict(m=-1e308, L=math.inf), dict(L=1e308),
                                 dict(x=np.array([1e308]), L=math.inf)])
def test_rejects_bad_arguments(bad):
    """A non-finite t, m or alpha_hat is refused too, not turned into NaN
    heights with a RuntimeWarning; so are nodes < 1, which divided by
    zero, a fractional nodes (2.5 returned -0.069), an odd nodes, whose
    midpoints do not pair into conjugates, a NaN x, and an x outside
    [0, L]: x = -50 on the half-line returned -2.65e39, x = 20 on the box
    [0, 8] -2.2e7 and x = inf NaN.  So is a t or alpha_hat past the range
    float64 carries: t = 1e300 or 5e-324 and alpha_hat = 5e-324 raised
    LinAlgError, on the box and the half-line, and so did alpha_hat = 1e300
    on the box.  An m, L or x of 1e308 overflowed with a RuntimeWarning."""
    args = dict(x=X, t=1.0, m=M, alpha_hat=0.307, L=8.0) | bad
    with pytest.raises(ValueError):
        exact_profile(**args)


@given(x=st.lists(edge_or(0.0, 0.5, 3.0, 8.0), min_size=1, max_size=3),
       t=edge_or(1.0, 0.01, 7.0), m=edge_or(0.209, -1.0),
       alpha_hat=edge_or(0.307, 0.05, 1e-3), L=edge_or(8.0, math.inf, 16.0))
@settings(derandomize=True, max_examples=500, deadline=None)
def test_finite_or_value_error(x, t, m, alpha_hat, L):
    """Any arguments give finite heights or a ValueError, with no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            y = exact_profile(np.array(x), t, m, alpha_hat, L=L)
        except ValueError:
            return
    assert np.isfinite(y).all()
