"""Grain-boundary groove evolution beneath a thin elastic passivation layer.

Two independent routes to the same surface profile: a singular-perturbation
composite built from generalized hypergeometric series, and an implicit
finite-difference solver for the full sixth-order evolution equation used
to cross-validate it.
"""

__version__ = "0.1.0"
