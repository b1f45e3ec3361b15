"""Shared fixtures and reference helpers for the test suite."""

from __future__ import annotations

from fractions import Fraction

import pytest

from gbgroove.material import ModelParams, nondimensionalize

# dimensional parameters of the canned figure runs (SI)
FIG_ALPHA = 9.7e-16     # m^2
FIG_M = 0.209
FIG_BT = {"fig3": 3e-30, "fig4": 1e-29, "fig5": 2e-29}   # m^4


def rational_pfq(nums, dens, z: Fraction, terms: int) -> Fraction:
    """Exact-rational partial sum of pFq(a; b; z): the series oracle.

    Completely independent of the float evaluation path: every quantity is
    a Fraction, so the only approximation is the truncation, and the terms
    fall off factorially.
    """
    nums = [Fraction(a) for a in nums]
    dens = [Fraction(b) for b in dens]
    z = Fraction(z)
    total = Fraction(1)
    term = Fraction(1)
    for k in range(terms):
        for a in nums:
            term *= a + k
        for b in dens:
            term /= b + k
        term *= z
        term /= k + 1
        total += term
    return total


def figure_params(bt: float) -> ModelParams:
    """ModelParams for the alumina-on-aluminium figure runs at time Bt."""
    return nondimensionalize(alpha=FIG_ALPHA, bt=bt, m=FIG_M)


@pytest.fixture(scope="session")
def fig4_params() -> ModelParams:
    return figure_params(FIG_BT["fig4"])
