"""Grain-boundary groove evolution beneath a thin elastic passivation layer.

Two independent routes to the same surface profile: a singular-perturbation
composite built from generalized hypergeometric series, and an implicit
finite-difference solver for the full sixth-order evolution equation used
to cross-validate it.
"""

from .composite import (
    ExpansionSpec,
    GrooveMetrics,
    bc_residuals,
    composite_profile,
    composite_profile_nd,
    curvature_cancellation_residuals,
    depth_difference,
    groove_metrics,
    mullins_profile_dim,
)
from .layers import (
    CornerSpec,
    beta2,
    beta4,
    boundary_layer_G,
    corner_combination,
    corner_fundamental_v,
    corner_root_curvature,
    corner_similarity_ode_residual,
    corner_solutions_yc,
    solve_c456,
)
from .material import (
    ModelParams,
    PhysicalParams,
    model_from_physical,
    mullins_coefficient,
    nondimensionalize,
    slope_parameter,
    stiffness_parameter,
)
from .oracle import (
    Grid,
    Profile,
    SolverConfig,
    assemble_operator,
    chemical_potential,
    energy,
    flux,
    mass,
    solve,
)
from .outer import (
    basis_f1,
    basis_f2,
    mullins_ode_residual,
    mullins_profile,
    outer_term,
    yr_quadrature_oracle,
)
from .specfun import (
    HypArgs,
    SeriesResult,
    gamma,
    hyp_pFq,
    hyp_pFq_derivative,
    ln_gamma,
    pochhammer,
)

__version__ = "0.1.0"
