"""Isentropic equation of state and the extended-valued energy function.

Pressure follows the power law p(rho) = a * rho**gamma with a > 0 and
gamma > 1.  The associated pressure potential is P(rho) = a/(gamma-1) *
rho**gamma, so that P'(rho)*rho - P(rho) = p(rho).  The energy density

    E(rho, m) = |m|^2 / (2 rho) + P(rho)

is extended to the vacuum: E(0, 0) = 0 and E(0, m) = +inf for m != 0.
The infinity is represented by the ordinary float ``inf`` (never a large
sentinel, never NaN), so vacuum-with-momentum states propagate
unambiguously through every consumer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GasLaw",
    "pressure",
    "sound_speed",
    "energy_cellwise",
    "defect_constant",
]


@dataclass(frozen=True)
class GasLaw:
    """Isentropic pressure law p(rho) = a * rho**gamma."""

    a: float = 1.0
    gamma: float = 1.4

    def __post_init__(self):
        if not (0 < self.a < math.inf):
            raise ValueError(f"pressure coefficient a must be positive and finite, got {self.a}")
        if not (1 < self.gamma < math.inf):
            raise ValueError(f"adiabatic exponent gamma must exceed 1 and be finite, "
                             f"got {self.gamma}")


def _check_density(rho) -> None:
    if (np.asarray(rho) < 0).any():
        raise ValueError("density must be nonnegative")


def pressure(rho, law: GasLaw):
    """Pressure a * rho**gamma; accepts scalars or arrays, rejects rho < 0."""
    _check_density(rho)
    return law.a * np.asarray(rho, dtype=float) ** law.gamma


def sound_speed(rho, law: GasLaw):
    """Speed of sound c(rho) = sqrt(p'(rho)) = sqrt(a*gamma*rho**(gamma-1))."""
    _check_density(rho)
    return np.sqrt(law.a * law.gamma * np.asarray(rho, dtype=float) ** (law.gamma - 1.0))


def energy_cellwise(rho: np.ndarray, m: np.ndarray, law: GasLaw) -> np.ndarray:
    """Extended energy |m|^2/(2 rho) + P(rho) of scalars or arrays; ``m``
    has a trailing component axis.

    The true vacuum (rho = 0, m = 0) maps to 0, vacuum with nonzero
    momentum to +inf.
    """
    _check_density(rho)
    rho = np.asarray(rho, dtype=float)
    m2 = np.sum(np.asarray(m, dtype=float) ** 2, axis=-1)
    kinetic = np.divide(0.5 * m2, rho, out=np.where(m2 == 0.0, 0.0, np.inf),
                        where=rho > 0)
    return kinetic + law.a / (law.gamma - 1.0) * rho**law.gamma


def defect_constant(d: int, law: GasLaw) -> float:
    """Compatibility constant r in r * tr R <= D, coupling the energy
    defect D to the stress trace.

    Evaluates min{1/2, 1/(d*(gamma-1))}, the largest r that holds for
    every convexity gap: the energy gap of an average is
    1/2 tr(kinetic gap) + (pressure gap)/(gamma-1), while its stress
    trace is tr(kinetic gap) + d * (pressure gap), and both gaps are
    nonnegative.
    """
    if d not in (1, 2):
        raise ValueError(f"dimension must be 1 or 2, got {d}")
    return min(0.5, 1.0 / (d * (law.gamma - 1.0)))
