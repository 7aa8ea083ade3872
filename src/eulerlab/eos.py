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
    "pressure_potential",
    "sound_speed",
    "energy",
    "energy_cellwise",
    "defect_constant",
]


@dataclass(frozen=True)
class GasLaw:
    """Isentropic pressure law p(rho) = a * rho**gamma."""

    a: float = 1.0
    gamma: float = 1.4

    def __post_init__(self):
        if not (self.a > 0):
            raise ValueError(f"pressure coefficient a must be positive, got {self.a}")
        if not (self.gamma > 1):
            raise ValueError(f"adiabatic exponent gamma must exceed 1, got {self.gamma}")


def _check_density(rho) -> None:
    if (np.asarray(rho) < 0).any():
        raise ValueError("density must be nonnegative")


def pressure(rho, law: GasLaw):
    """Pressure a * rho**gamma; accepts scalars or arrays, rejects rho < 0."""
    _check_density(rho)
    return law.a * np.asarray(rho, dtype=float) ** law.gamma


def pressure_potential(rho, law: GasLaw):
    """Pressure potential P(rho) = a/(gamma-1) * rho**gamma."""
    _check_density(rho)
    return law.a / (law.gamma - 1.0) * np.asarray(rho, dtype=float) ** law.gamma


def sound_speed(rho, law: GasLaw):
    """Speed of sound c(rho) = sqrt(p'(rho)) = sqrt(a*gamma*rho**(gamma-1))."""
    _check_density(rho)
    return np.sqrt(law.a * law.gamma * np.asarray(rho, dtype=float) ** (law.gamma - 1.0))


def energy(rho: float, m, law: GasLaw) -> float:
    """Extended energy of a single state.

    Returns |m|^2/(2 rho) + P(rho) for rho > 0, exactly 0 for the true
    vacuum (rho = 0, m = 0), and +inf for vacuum carrying momentum.
    """
    if rho < 0:
        raise ValueError("density must be nonnegative")
    m = np.atleast_1d(np.asarray(m, dtype=float))
    m2 = float(np.dot(m, m))
    if rho == 0.0:
        return 0.0 if m2 == 0.0 else math.inf
    return 0.5 * m2 / rho + float(pressure_potential(rho, law))


def energy_cellwise(rho: np.ndarray, m: np.ndarray, law: GasLaw) -> np.ndarray:
    """Vectorized extended energy; ``m`` has a trailing component axis.

    Vacuum cells with nonzero momentum map to +inf.
    """
    _check_density(rho)
    rho = np.asarray(rho, dtype=float)
    m2 = np.sum(np.asarray(m, dtype=float) ** 2, axis=-1)
    kinetic = np.divide(0.5 * m2, rho, out=np.where(m2 == 0.0, 0.0, np.inf),
                        where=rho > 0)
    return kinetic + law.a / (law.gamma - 1.0) * rho**law.gamma


def defect_constant(d: int, law: GasLaw, override: float | None = None) -> float:
    """Compatibility constant coupling the energy defect to the stress trace.

    Evaluates min{1/2, d*gamma/(gamma-1)}.  For every gamma > 1 and
    d >= 1 the second branch exceeds 1/2, so the value is constant 1/2;
    ``override`` substitutes a user-supplied positive constant for
    experiments with alternative couplings.
    """
    if d not in (1, 2):
        raise ValueError(f"dimension must be 1 or 2, got {d}")
    if override is not None:
        if not (override > 0):
            raise ValueError("override constant must be positive")
        return float(override)
    return min(0.5, d * law.gamma / (law.gamma - 1.0))
