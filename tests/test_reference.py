"""Laplace-Talbot reference: inversion convergence and the closed form."""

import math

import numpy as np
import pytest

from gbgroove.outer import mullins_profile
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


@pytest.mark.parametrize("bad", [dict(t=0.0), dict(alpha_hat=-0.1), dict(L=0.0)])
def test_rejects_bad_arguments(bad):
    args = dict(t=1.0, alpha_hat=0.307, L=8.0) | bad
    with pytest.raises(ValueError):
        exact_profile(X, m=M, **args)
