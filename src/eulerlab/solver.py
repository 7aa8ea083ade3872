"""Finite-volume approximation of the barotropic Euler system.

Conservative update with a choice of two interface fluxes (local
Lax-Friedrichs and HLL) plus an artificial-viscosity dial: the term
nu * dx * Laplacian of the conserved variables enters through the
diffusive interface flux -nu * (U_R - U_L).  Varying nu produces the
vanishing-viscosity families the ensemble diagnostics consume.

Velocity, sound speed and the per-axis maximal wave speeds are computed
once per state (``_waves``) and kept on it until ``step`` has used them:
``run``'s ``stable_dt``, ``step``'s re-check of the CFL bound and the
flux pass all read the same arrays, and ``step`` drops them before it
returns, so no sampled state holds them.  Each axis sweep ghost-extends
(rho, m, u, c) and evaluates pressure and physical flux once per cell
of the extension; the left and right states of every interface are
views into it.  ``step`` rejects a dt above the bound and a NaN dt.

Negative densities and non-finite values abort with the offending cell
named; there is no positivity limiter, since a silent fix would corrupt
every defect measurement downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .eos import GasLaw, pressure, sound_speed
from .fields import DataTriple, FluidState, integrate_energies, validate_initial_data
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


def _waves(state: FluidState, law: GasLaw):
    """Velocity ``u``, sound speed ``c`` and the per-axis maximal wave speeds
    ``max|u_k| + c`` of ``state``, computed once per state and law."""
    memo = state._memo
    if memo is None or memo[0] is not law:
        u = np.divide(state.m, state.rho[..., None], out=np.zeros_like(state.m),
                      where=(state.rho > 0)[..., None])
        c = sound_speed(state.rho, law)
        speeds = tuple(float((np.abs(u[..., k]) + c).max()) for k in range(state.grid.d))
        memo = state._memo = (law, u, c, speeds)
    return memo[1:]


def stable_dt(state: FluidState, spec: SchemeSpec, law: GasLaw) -> float:
    """CFL-stable time step, viscosity included in the speed budget."""
    rate = 0.0
    for s_k, h in zip(_waves(state, law)[2], state.grid.spacing):
        rate += (s_k + 2.0 * spec.nu) / h
    if rate == 0.0:
        return math.inf
    return spec.cfl / rate


def _extend(state: FluidState, u, c, axis: int, boundary: str):
    """Ghost-extend rho, m, the normal velocity and the sound speed by one
    cell per side along ``axis``: indices -1 and n wrap round (periodic) or
    clip to the edge cell, the mirror cell of a reflective wall, whose
    normal momentum and velocity are negated."""
    index = np.arange(-1, state.rho.shape[axis] + 1)
    mode = "wrap" if boundary == "periodic" else "clip"
    rho, m, un, c = (a.take(index, axis, mode=mode)
                     for a in (state.rho, state.m, u[..., axis], c))
    if boundary == "reflective":
        wall = (slice(None),) * axis + ([0, -1],)
        m[wall + (..., axis)] *= -1.0
        # a vacuum ghost keeps velocity +0.0, not the -0.0 of a negation
        g = un[wall]
        un[wall] = np.negative(g, out=np.zeros_like(g), where=rho[wall] > 0)
    return rho, m, un, c


def _interface_flux(rho, m, un, c, left, right, law, spec, axis):
    """Numerical flux between the ``left`` and ``right`` views of ghost-extended
    (rho, m, un, c); the physical flux is evaluated once per cell."""
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
    u, c, _ = _waves(state, law)
    state._memo = None
    if not (dt <= dt_max * (1.0 + 1e-12)):  # also rejects a NaN dt or bound
        raise CFLViolation(f"dt={dt} exceeds the stable bound {dt_max}")
    grid = state.grid
    rho_new = state.rho.copy()
    m_new = state.m.copy()
    for axis in range(grid.d):
        rho_ext, m_ext, un, c_ext = _extend(state, u, c, axis, grid.boundary[axis])
        left = (slice(None),) * axis + (slice(None, -1),)
        right = (slice(None),) * axis + (slice(1, None),)
        f_rho, f_m = _interface_flux(rho_ext, m_ext, un, c_ext, left, right, law, spec, axis)
        h = grid.spacing[axis]
        rho_new -= dt / h * (f_rho[right] - f_rho[left])
        m_new -= dt / h * (f_m[right] - f_m[left])
    if not (np.isfinite(rho_new).all() and np.isfinite(m_new).all()):
        bad = ~(np.isfinite(rho_new) & np.isfinite(m_new).all(axis=-1))
        idx = tuple(int(i) for i in np.unravel_index(int(np.argmax(bad)), bad.shape))
        raise ValueError(f"non-finite state produced at cell {idx}")
    if (rho_new < 0).any():
        idx = tuple(int(i) for i in np.unravel_index(int(np.argmin(rho_new)), rho_new.shape))
        raise ValueError(f"negative density {rho_new[idx]:.3e} produced at cell {idx}")
    if not rho_new.all():
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
    state = triple.state0
    grid = state.grid
    rho = np.zeros((n + 1,) + grid.counts)  # not np.empty: lower peak RSS, measured
    m = np.zeros(rho.shape + (grid.d,))
    t = 0.0
    for k, target in enumerate(times):
        while t < target - 1e-14 * t_end:
            dt = min(stable_dt(state, spec, law), target - t)
            state = step(state, spec, law, dt)
            t += dt
        t = target
        rho[k], m[k] = state.rho, state.m

    mean = integrate_energies(grid, rho, m, law)
    if energy_mode == "envelope":
        energy = np.minimum.accumulate(mean)
    else:
        energy = np.full(n + 1, mean[0])
    return Trajectory(grid, law, times, (rho, m), energy, e0=triple.E0)
