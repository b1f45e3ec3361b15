#!/usr/bin/env python3
"""True error of each route across stiffnesses, against the exact solution.

The composite expansion is a half-line solution, so its error is measured
against the Laplace-Talbot solution on the half-line; the finite-difference
solver works on the box [0, 8], so its error is measured against the exact
solution on the same box.  The expansion's error follows about
0.38 alpha_hat^(3/2): the wall correction deposits an uncompensated
O(alpha_hat^{3/2}) mass, which is the accuracy floor of the expansion.
"""

import math
import sys

import numpy as np

from gbgroove.composite import ExpansionSpec, composite_profile_nd
from gbgroove.oracle import Grid, SolverConfig, solve
from gbgroove.reference import exact_profile

M = 0.209
L = 8.0


def errors_at(alpha_hat: float, nx: int = 513, dt: float = 1.0 / 64):
    """(expansion error, solver error) as sup/depth at t = 1."""
    cfg = SolverConfig(grid=Grid(L=L, nx=nx), dt=dt, t_final=1.0,
                       alpha_hat=alpha_hat, m=M)
    x = cfg.grid.nodes
    half = exact_profile(x, 1.0, M, alpha_hat)
    box = exact_profile(x, 1.0, M, alpha_hat, L=L)
    comp = composite_profile_nd(x, 1.0, M, alpha_hat, ExpansionSpec(N=2))
    fd = solve(cfg)[-1].heights
    return (float(np.max(np.abs(comp - half)) / abs(half[0])),
            float(np.max(np.abs(fd - box)) / abs(box[0])))


def run() -> int:
    hats = np.array([0.05, 0.1, 0.15, 0.2, 0.30674093303633276, 0.56])
    expansion = []
    print("alpha_hat   expansion (half-line)   solver (box, nx 513, dt 1/64)")
    for ah in hats:
        e_comp, e_fd = errors_at(float(ah))
        expansion.append(e_comp)
        print(f"  {ah:8.4f}   {e_comp:10.4%}              {e_fd:10.3e}")
    fit = hats <= 0.31
    slope, intercept = np.polyfit(np.log(hats[fit]), np.log(np.array(expansion)[fit]), 1)
    coeff = math.exp(np.mean(np.log(np.array(expansion)[fit]) - 1.5 * np.log(hats[fit])))
    crossover = math.exp((math.log(0.02) - intercept) / slope)
    print(f"expansion error exponent over alpha_hat <= 0.31: {slope:.3f} "
          f"(wall-mass defect ~ 3/2)")
    print(f"expansion error ~ {coeff:.3f} alpha_hat^(3/2)")
    print(f"2%-of-depth gate satisfied up to alpha_hat ~ {crossover:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
