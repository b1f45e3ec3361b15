"""Dimensional material constants and the reduced model parameters.

The evolution model needs only three numbers: the kinetic coefficient B
(m^4/s), the bending stiffness parameter alpha (m^2) and the groove-root
slope scale m.  Everything downstream runs in nondimensional variables
built from a reference length L0 = (Bt)^(1/4): B enters only through the
product Bt (m^4), so ModelParams does not hold it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

__all__ = [
    "PhysicalParams",
    "ModelParams",
    "SLOPE_VALIDITY_LIMIT",
    "mullins_coefficient",
    "stiffness_parameter",
    "nondimensionalize",
    "model_from_physical",
]

# above this the small-slope linearization is doubtful (half-angle > 1/6)
SLOPE_VALIDITY_LIMIT = 1.0 / 3.0


class SmallSlopeWarning(UserWarning):
    """Slope parameter large enough to strain the linearized model."""


@dataclass(frozen=True)
class PhysicalParams:
    """Dimensional constants of the metal / coating system (SI units)."""

    D_i: float        # interface diffusion coefficient, m^2/s
    n: float          # mobile atoms per interface area, 1/m^2
    Omega: float      # atomic volume, m^3
    kT: float         # thermal energy, J
    E: float          # Young's modulus of the coating, Pa
    h: float          # coating thickness, m
    nu: float         # Poisson ratio of the coating
    gamma_gb: float   # grain-boundary energy, J/m^2
    gamma_i: float    # metal/coating interface energy, J/m^2
    gamma_s: float    # coating surface stress, J/m^2

    def __post_init__(self):
        positive = {
            "D_i": self.D_i, "n": self.n, "Omega": self.Omega, "kT": self.kT,
            "E": self.E, "h": self.h, "gamma_i": self.gamma_i,
            "gamma_s": self.gamma_s,
        }
        for name, value in positive.items():
            if not value > 0:
                raise ValueError(f"{name} must be positive, got {value}")
        if self.gamma_gb < 0:
            raise ValueError(f"gamma_gb must be non-negative, got {self.gamma_gb}")
        if not -1.0 < self.nu < 0.5:
            raise ValueError(f"nu must lie in (-1, 0.5), got {self.nu}")
        if not self.gamma_gb < 2.0 * (self.gamma_i + self.gamma_s):
            raise ValueError(
                "gamma_gb >= 2 (gamma_i + gamma_s): groove angle undefined")

    @property
    def gamma_surface(self) -> float:
        return self.gamma_i + self.gamma_s


@dataclass(frozen=True)
class ModelParams:
    """Reduced parameters plus the nondimensionalization scale."""

    alpha: float      # m^2
    m: float          # dimensionless slope scale
    L0: float         # reference length, m
    alpha_hat: float  # alpha / L0^2

    def __post_init__(self):
        for name in ("alpha", "m", "alpha_hat"):
            v = getattr(self, name)
            if not 0 <= v < math.inf:
                raise ValueError(f"{name} must be non-negative and finite, got {v}")
        if not 0 < self.L0 < math.inf:
            raise ValueError(f"L0 must be positive and finite, got {self.L0}")


def _warn_if_steep(m: float) -> None:
    """SmallSlopeWarning when m >= 1/3, attributed to the line that called
    the caller: each reduction warns once, at the user's call."""
    if m >= SLOPE_VALIDITY_LIMIT:
        warnings.warn(f"slope parameter m = {m:.4g} >= 1/3: outside the validity "
                      "range of the small-slope model", SmallSlopeWarning, stacklevel=3)


def mullins_coefficient(p: PhysicalParams) -> float:
    """Kinetic prefactor B = D_i n Omega^2 (gamma_i + gamma_s) / kT  [m^4/s]."""
    return p.D_i * p.n * p.Omega ** 2 * p.gamma_surface / p.kT


def stiffness_parameter(p: PhysicalParams) -> float:
    """Bending stiffness alpha = E h^3 / [12 (1 - nu^2)(gamma_i + gamma_s)]  [m^2]."""
    return p.E * p.h ** 3 / (12.0 * (1.0 - p.nu ** 2) * p.gamma_surface)


def nondimensionalize(alpha: float, bt: float, m: float = 0.0) -> ModelParams:
    """Build ModelParams at the reference time Bt [m^4], with L0 = (Bt)^(1/4)
    and alpha_hat = alpha / L0^2.

    Internally all layer formulas work with alpha_hat, x_hat = x / L0 and
    t_hat = Bt / L0^4; this keeps the corner-layer stretchings dimensionless.
    """
    params = _reduce(alpha, bt, m)
    _warn_if_steep(m)
    return params


def _reduce(alpha: float, bt: float, m: float) -> ModelParams:
    """nondimensionalize without the slope warning."""
    if not bt > 0:
        raise ValueError("Bt must be positive")
    L0 = bt ** 0.25
    return ModelParams(alpha=alpha, m=m, L0=L0, alpha_hat=alpha / L0 ** 2)


def model_from_physical(p: PhysicalParams, bt: float) -> ModelParams:
    """Reduce a full set of dimensional constants at a reference time Bt [m^4]."""
    m = p.gamma_gb / p.gamma_surface   # PhysicalParams has checked both
    params = _reduce(stiffness_parameter(p), bt, m)
    _warn_if_steep(m)
    return params
