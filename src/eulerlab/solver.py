"""Finite-volume approximation of the barotropic Euler system.

Conservative update with a choice of two interface fluxes (local
Lax-Friedrichs and HLL) plus an artificial-viscosity dial: the term
nu * dx * Laplacian of the conserved variables enters through the
diffusive interface flux -nu * (U_R - U_L).  Varying nu produces the
vanishing-viscosity families the ensemble diagnostics consume.

Each axis sweep evaluates velocity, sound speed, pressure and physical
flux once per cell of the ghost-extended (rho, m); the left and right
states of every interface are views into it.  ``step`` re-checks the
CFL bound through ``stable_dt`` and rejects a NaN time step.

Negative densities and non-finite values abort with the offending cell
named; there is no positivity limiter, since a silent fix would corrupt
every defect measurement downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .eos import GasLaw, pressure, sound_speed
from .fields import DataTriple, FluidState, integrate_energy, validate_initial_data
from .trajectory import Trajectory

__all__ = ["SchemeSpec", "CFLViolation", "stable_dt", "step", "run"]

FLUX_KINDS = ("llf", "hll")
ENERGY_MODES = ("envelope", "budget")


class CFLViolation(ValueError):
    pass


@dataclass(frozen=True)
class SchemeSpec:
    """Numerical scheme: flux kind, viscosity coefficient, CFL number."""

    flux: str = "llf"
    nu: float = 0.0
    cfl: float = 0.9

    def __post_init__(self):
        if self.flux not in FLUX_KINDS:
            raise ValueError(f"flux must be one of {FLUX_KINDS}, got {self.flux!r}")
        if not (self.nu >= 0):
            raise ValueError("viscosity coefficient nu must be nonnegative")
        if not (0.0 < self.cfl <= 1.0):
            raise ValueError("CFL number must lie in (0, 1]")


def _velocity(rho: np.ndarray, m: np.ndarray) -> np.ndarray:
    return np.divide(m, rho[..., None], out=np.zeros_like(m), where=(rho > 0)[..., None])


def stable_dt(state: FluidState, spec: SchemeSpec, law: GasLaw) -> float:
    """CFL-stable time step, viscosity included in the speed budget."""
    c = sound_speed(state.rho, law)
    u = _velocity(state.rho, state.m)
    rate = 0.0
    for k, h in enumerate(state.grid.spacing):
        s_k = float(np.max(np.abs(u[..., k]) + c))
        rate += (s_k + 2.0 * spec.nu) / h
    if rate == 0.0:
        return math.inf
    return spec.cfl / rate


def _extend(rho: np.ndarray, m: np.ndarray, axis: int, boundary: str):
    """Ghost-extend rho and m by one cell per side along ``axis``: indices -1
    and n wrap round (periodic) or clip to the edge cell, the mirror cell of
    a reflective wall, whose normal momentum is negated."""
    index = np.arange(-1, rho.shape[axis] + 1)
    mode = "wrap" if boundary == "periodic" else "clip"
    rho_ext, m_ext = np.take(rho, index, axis, mode=mode), np.take(m, index, axis, mode=mode)
    if boundary == "reflective":
        m_ext[(slice(None),) * axis + ([0, -1], ..., axis)] *= -1.0
    return rho_ext, m_ext


def _interface_flux(rho, m, left, right, law, spec, axis):
    """Numerical flux between the ``left`` and ``right`` views of ghost-extended
    (rho, m); primitives and the physical flux are evaluated once per cell."""
    un = _velocity(rho, m[..., axis:axis + 1])[..., 0]
    c = sound_speed(rho, law)
    f_rho = m[..., axis]
    f_m = m * un[..., None]
    f_m[..., axis] += pressure(rho, law)
    rl, rr, ml, mr = rho[left], rho[right], m[left], m[right]
    fl_rho, fr_rho, fl_m, fr_m = f_rho[left], f_rho[right], f_m[left], f_m[right]
    if spec.flux == "llf":
        a = np.abs(un) + c
        s = np.maximum(a[left], a[right])
        f_rho = 0.5 * (fl_rho + fr_rho) - 0.5 * s * (rr - rl)
        f_m = 0.5 * (fl_m + fr_m) - 0.5 * s[..., None] * (mr - ml)
    else:  # hll
        lo, hi = un - c, un + c
        sl = np.minimum(np.minimum(lo[left], lo[right]), 0.0)
        sr = np.maximum(np.maximum(hi[left], hi[right]), 0.0)
        den = sr - sl
        den = np.where(den > 0, den, 1.0)
        f_rho = (sr * fl_rho - sl * fr_rho + sl * sr * (rr - rl)) / den
        f_m = ((sr[..., None] * fl_m - sl[..., None] * fr_m
                + (sl * sr)[..., None] * (mr - ml)) / den[..., None])
    if spec.nu > 0:
        f_rho = f_rho - spec.nu * (rr - rl)
        f_m = f_m - spec.nu * (mr - ml)
    return f_rho, f_m


def step(state: FluidState, spec: SchemeSpec, law: GasLaw, dt: float) -> FluidState:
    """One conservative update by dt; dt must satisfy the CFL bound."""
    dt_max = stable_dt(state, spec, law)
    if not (dt <= dt_max * (1.0 + 1e-12)):  # also rejects a NaN dt or bound
        raise CFLViolation(f"dt={dt} exceeds the stable bound {dt_max}")
    grid = state.grid
    rho_new = state.rho.copy()
    m_new = state.m.copy()
    for axis in range(grid.d):
        rho_ext, m_ext = _extend(state.rho, state.m, axis, grid.boundary[axis])
        left = (slice(None),) * axis + (slice(None, -1),)
        right = (slice(None),) * axis + (slice(1, None),)
        f_rho, f_m = _interface_flux(rho_ext, m_ext, left, right, law, spec, axis)
        h = grid.spacing[axis]
        rho_new -= dt / h * (f_rho[right] - f_rho[left])
        m_new -= dt / h * (f_m[right] - f_m[left])
    bad = ~(np.isfinite(rho_new) & np.all(np.isfinite(m_new), axis=-1))
    if np.any(bad):
        idx = tuple(int(i) for i in np.unravel_index(int(np.argmax(bad)), bad.shape))
        raise ValueError(f"non-finite state produced at cell {idx}")
    if np.any(rho_new < 0):
        idx = tuple(int(i) for i in np.unravel_index(int(np.argmin(rho_new)), rho_new.shape))
        raise ValueError(f"negative density {rho_new[idx]:.3e} produced at cell {idx}")
    m_new[rho_new == 0.0] = 0.0
    return FluidState(grid, rho_new, m_new, check=False)


def run(triple: DataTriple, spec: SchemeSpec, law: GasLaw,
        t_end: float, sample_dt: float, energy_mode: str = "envelope") -> Trajectory:
    """March to t_end with adaptive CFL steps, sampling every sample_dt.

    The trajectory's total-energy curve is derived from the discrete
    mean energy of the samples:

    * "envelope": running minimum of the mean energy, which irons out
      round-off-scale wiggles and is non-increasing by construction;
    * "budget": the per-step dissipation is tracked and added back, so
      the curve is the constant initial mean energy (the discrete
      analogue of an energy-conserving total for smooth flow).
    """
    if energy_mode not in ENERGY_MODES:
        raise ValueError(f"energy_mode must be one of {ENERGY_MODES}")
    if not (t_end > 0 and sample_dt > 0):
        raise ValueError("t_end and sample_dt must be positive")
    n = int(round(t_end / sample_dt))
    if n < 1 or abs(n * sample_dt - t_end) > 1e-9 * t_end:
        raise ValueError("sample_dt must divide t_end")
    report = validate_initial_data(triple, law)
    if not report.accepted:
        raise ValueError("initial data rejected: " + "; ".join(report.messages))

    times = sample_dt * np.arange(n + 1)
    states = [triple.state0]
    state = triple.state0
    t = 0.0
    for k in range(1, n + 1):
        target = times[k]
        while t < target - 1e-14 * t_end:
            dt = min(stable_dt(state, spec, law), target - t)
            state = step(state, spec, law, dt)
            t += dt
        t = target
        states.append(state)

    mean = np.array([integrate_energy(s, law) for s in states])
    if energy_mode == "envelope":
        energy = np.minimum.accumulate(mean)
    else:
        energy = np.full(n + 1, mean[0])
    return Trajectory(triple.state0.grid, law, times, states, energy, e0=triple.E0)
