"""Trajectories and their algebra.

A Trajectory holds its time samples as two stacked read-only arrays,
``rho`` (n, *counts) and ``m`` (n, *counts, d), and a total-energy curve
E; ``states`` gives the samples as FluidState views of the rows.  The
algebra works on the sample axis of these arrays, between trajectories
that share grid, gas law and sample times (:func:`require_shared`).
The curve is piecewise constant and left-continuous with right limits
(caglad): the stored value ``energy[k]`` is E(t_k+), constant on
the window (t_k, t_{k+1}]; ``e0`` is the initial value E(0), which may
sit above ``energy[0]`` (an instantaneous dissipation jump at t = 0).
Beyond the final sample every quantity extends as a constant, which
makes all exponentially weighted time integrals closed-form.

Invariants enforced at construction: sample times from 0, strictly
increasing (even with ``check=False``) and finite; E non-increasing across
knots; and E(t+) at least the mean (integrated) energy of the fields at
every sample time, up to a relative tolerance.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .eos import GasLaw, pressure
from .fields import (FluidState, Grid, energy_scale, integrate_energies, load_state_csv,
                     read_csv, rel_l1_distance, save_state_csv, write_csv, write_json)
from .stress import ReynoldsField, convexity_gap, kinetic_tensor

__all__ = [
    "Trajectory",
    "OrderResult",
    "require_shared",
    "shift",
    "concatenate",
    "convex_combine",
    "compare_local",
    "stopping_time",
    "defect_reset",
    "improve",
    "save_bundle",
    "load_bundle",
]

_TIME_RTOL = 1e-9
_ENERGY_COLUMNS = ("t", "E")


def sample_time_tol(horizon: float) -> float:
    """Two times within this of each other are one sample time on [0, horizon]."""
    return _TIME_RTOL * max(1.0, horizon)


class Trajectory:
    """Stacked sampled (rho, m) fields with a caglad total-energy curve.

    ``states`` is either a sequence of FluidState, stacked once, or a pair
    ``(rho, m)`` of stacked arrays, which are kept without a copy and made
    read-only.
    """

    __slots__ = ("grid", "law", "times", "rho", "m", "energy", "e0", "mean_energies")

    def __init__(self, grid: Grid, law: GasLaw, times, states, energy,
                 e0: float | None = None, check: bool = True):
        if not (isinstance(states, tuple) and isinstance(states[0], np.ndarray)):
            states = list(states)
            states = [s.rho for s in states], [s.m for s in states]
        rho, m = (np.asarray(a, dtype=float) for a in states)
        if rho.shape[1:] != grid.counts or m.shape != rho.shape + (grid.d,):
            raise ValueError(f"fields {rho.shape}, {m.shape} are not samples of {grid}")
        times = np.array(times, dtype=float)
        energy = np.array(energy, dtype=float)
        # the sample structure, which even an unchecked trajectory needs
        if times.ndim != 1 or not 0 < len(times) == len(rho) == len(energy):
            raise ValueError("times, states and energy must have equal positive length")
        if check and not np.all(np.isfinite(times)):
            raise ValueError(f"sample times must be finite, got {times[~np.isfinite(times)][0]}")
        if abs(times[0]) > sample_time_tol(times[-1]):
            raise ValueError("sample times must start at 0")
        if np.any(np.diff(times) <= 0):
            raise ValueError("sample times must be strictly increasing")
        for a in (times, energy, rho, m):
            a.setflags(write=False)
        if e0 is None:
            e0 = float(energy[0])
        self.grid = grid
        self.law = law
        self.times = times
        self.rho = rho
        self.m = m
        self.energy = energy
        self.e0 = float(e0)
        self.mean_energies = integrate_energies(grid, rho, m, law)
        self.mean_energies.setflags(write=False)
        if check:
            self._validate()

    def _validate(self) -> None:
        t, E = self.times, self.energy
        if not np.all(np.isfinite(E)) or not math.isfinite(self.e0):
            raise ValueError("energy curve must be finite")
        tol = 1e-9 * energy_scale(self.e0)
        if E[0] > self.e0 + tol:
            raise ValueError(f"energy curve jumps up at t=0: E(0+)={E[0]} > E(0)={self.e0}")
        if len(E) > 1 and np.any(np.diff(E) > tol):
            k = int(np.argmax(np.diff(E)))
            raise ValueError(f"energy curve increases across knot t={t[k + 1]}")
        if not np.all(np.isfinite(self.mean_energies)):
            k = int(np.argmin(np.isfinite(self.mean_energies)))
            raise ValueError(f"the state at t={t[k]} has non-finite mean energy "
                             f"{self.mean_energies[k]}")
        short = E - self.mean_energies
        if np.any(short < -tol):
            k = int(np.argmin(short))
            raise ValueError(
                f"total energy falls below the mean energy at t={t[k]} "
                f"(gap {short[k]:.3e})")

    # -- basic queries ------------------------------------------------

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    @property
    def n_samples(self) -> int:
        return len(self.times)

    @property
    def states(self) -> list:
        """The samples as FluidState views of the stacked rows, in time order."""
        return [FluidState._view(self.grid, r, m) for r, m in zip(self.rho, self.m)]

    def index_of(self, t: float) -> int:
        """Index of the sample time t; raises if t is not a sample time."""
        k = int(np.argmin(np.abs(self.times - t)))
        if not abs(self.times[k] - t) <= sample_time_tol(self.t_end):  # NaN fails
            raise ValueError(f"{t} is not a sample time of this trajectory")
        return k

    def energy_left_at(self, k: int) -> float:
        """E(t_k), the left-continuous value at the k-th sample time."""
        return self.e0 if k == 0 else float(self.energy[k - 1])

    def defects(self) -> np.ndarray:
        """Raw energy defect E(t_k+) - mean energy at every sample time."""
        return self.energy - self.mean_energies


def require_shared(u, v, times: bool = True) -> None:
    """Raise ValueError unless u and v share grid, gas law and, with
    ``times``, sample times; ``v`` may be a ReynoldsField (no gas law)."""
    if u.grid != v.grid:
        raise ValueError(f"grids do not match: {u.grid} and {v.grid}")
    if getattr(v, "law", u.law) != u.law:
        raise ValueError(f"gas laws do not match: {u.law} and {v.law}")
    if times and (len(u.times) != len(v.times) or not np.all(  # NaN fails
            np.abs(u.times - v.times) <= sample_time_tol(u.times[-1]))):
        raise ValueError(f"sample times do not match: {u.times} and {v.times}")


@dataclass
class OrderResult:
    """Outcome of an energy-curve comparison.

    relation is one of "less", "greater", "equal", "incomparable"; for
    the local order the witness window (T, T + delta) is reported.
    """

    relation: str
    T: float | None = None
    delta: float | None = None


# -- shift and concatenation -----------------------------------------

def shift(traj: Trajectory, T: float) -> Trajectory:
    """Restriction to [T, t_end] shifted back to start at time 0.

    T must be a sample time; states are never interpolated.  The new
    initial energy E(0) is the left-continuous value E(T) of the input.
    """
    k = traj.index_of(T)
    return Trajectory(
        traj.grid, traj.law,
        traj.times[k:] - traj.times[k],
        (traj.rho[k:], traj.m[k:]),
        traj.energy[k:],
        e0=traj.energy_left_at(k),
        check=False,
    )


def concatenate(u: Trajectory, v: Trajectory, T: float) -> Trajectory:
    """u on [0, T] followed by v started at T.

    Requires v to share u's gas law and to start from u's state at T,
    with initial energy inside the admissible window
    [mean energy of u at T, E_u(T)].
    """
    require_shared(u, v, times=False)
    k = u.index_of(T)
    tol_energy = 1e-9 * energy_scale(u.e0)
    d = rel_l1_distance(u.rho[k:k + 1], u.m[k:k + 1], v.rho[:1], v.m[:1])[0]
    if d > 1e-10:
        raise ValueError(f"fields mismatch at the junction (relative L1 {d:.3e})")
    lo = u.mean_energies[k] - tol_energy
    hi = u.energy_left_at(k) + tol_energy
    if not (lo <= v.e0 <= hi):
        raise ValueError(
            f"continuation energy {v.e0} outside the admissible window [{lo}, {hi}]")
    times = np.concatenate([u.times[:k], T + v.times])
    fields = (np.concatenate([u.rho[:k], v.rho]), np.concatenate([u.m[:k], v.m]))
    energy = np.concatenate([u.energy[:k], v.energy])
    return Trajectory(u.grid, u.law, times, fields, energy, e0=u.e0)


# -- convex combination ----------------------------------------------

def convex_combine(u: Trajectory, v: Trajectory, lam: float) -> tuple:
    """Affine combination of two trajectories with shared discretization.

    Returns the combined trajectory together with the extra Reynolds
    stress generated by the combination: the convexity gap of the
    kinetic tensor m (x) m / rho plus the pressure convexity gap times
    the identity.  The gap tensor is positive semi-definite.
    """
    if not (0.0 <= lam <= 1.0):
        raise ValueError("lambda must lie in [0, 1]")
    require_shared(u, v)
    rho = lam * u.rho + (1.0 - lam) * v.rho
    m = lam * u.m + (1.0 - lam) * v.m
    kin = lam * kinetic_tensor(u.rho, u.m) + (1.0 - lam) * kinetic_tensor(v.rho, v.m)
    p = lam * pressure(u.rho, u.law) + (1.0 - lam) * pressure(v.rho, u.law)
    tensor = convexity_gap(kin, p, rho, m, u.law)
    energy = lam * u.energy + (1.0 - lam) * v.energy
    e0 = lam * u.e0 + (1.0 - lam) * v.e0
    traj = Trajectory(u.grid, u.law, u.times, (rho, m), energy, e0=e0)
    return traj, ReynoldsField(u.grid, u.times.copy(), tensor)


# -- order relations --------------------------------------------------

def _local_order(u: Trajectory, v: Trajectory) -> tuple:
    """The local order as (relation, k, j): for "less" and "greater" the
    trajectories agree up to sample k and separate strictly in energy on
    the windows k..j (j = n - 1 runs on past the horizon); k and j are None
    for "equal" and "incomparable"."""
    scale = energy_scale(u.e0, v.e0)
    tol_eq = 1e-9
    tol_strict = 1e-6 * scale
    tol_eq_energy = tol_eq * scale
    require_shared(u, v)
    n = u.n_samples
    fields_eq = rel_l1_distance(u.rho, u.m, v.rho, v.m) <= tol_eq
    if not fields_eq[0] or abs(u.e0 - v.e0) > tol_eq_energy:
        return "incomparable", None, None
    k = 0
    while (k < n - 1 and abs(u.energy[k] - v.energy[k]) <= tol_eq_energy
           and fields_eq[k + 1]):
        k += 1
    # prefix [0, t_k] agrees; inspect the energy window (t_k, t_{k+1}]
    gap = u.energy[k] - v.energy[k]
    if abs(gap) <= tol_eq_energy and k == n - 1:
        return "equal", None, None
    if gap < -tol_strict:
        lead, lag = u, v
        relation = "less"
    elif gap > tol_strict:
        lead, lag = v, u
        relation = "greater"
    else:
        return "incomparable", None, None
    j = k
    while j < n - 1 and lead.energy[j + 1] < lag.energy[j + 1] - tol_strict:
        j += 1
    return relation, k, j


def compare_local(u: Trajectory, v: Trajectory) -> OrderResult:
    """Local (prefix) order: trajectories must agree in fields and energy
    up to some sample time T and then separate strictly in energy on at
    least one full sample window (T, T + delta]."""
    relation, k, j = _local_order(u, v)
    if k is None:
        return OrderResult(relation)
    T = float(u.times[k])
    delta = math.inf if j == u.n_samples - 1 else float(u.times[j + 1] - u.times[k])
    return OrderResult(relation, T=T, delta=delta)


# -- stopping, reset, improvement ------------------------------------

def stopping_time(traj: Trajectory, delta: float) -> float:
    """First sample time whose energy defect exceeds delta; inf if none."""
    if not (delta > 0):
        raise ValueError("delta must be positive")
    over = traj.defects() > delta
    if not np.any(over):
        return math.inf
    return float(traj.times[int(np.argmax(over))])


def defect_reset(traj: Trajectory, T: float, continuation: Trajectory) -> Trajectory:
    """Concatenation that resets the energy defect to zero at time T.

    The continuation must start from traj's state at T with total energy
    equal to the mean energy there, so E(T+) of the result matches the
    mean energy and the defect vanishes at T+.
    """
    k = traj.index_of(T)
    target = traj.mean_energies[k]
    if abs(continuation.e0 - target) > 1e-9 * energy_scale(traj.e0):
        raise ValueError(
            f"continuation must start at the mean energy {target}, got {continuation.e0}")
    return concatenate(traj, continuation, T)


def improve(traj: Trajectory, T: float, continuation: Trajectory) -> tuple:
    """Competitor strictly below traj in the local order, built by resetting
    the defect at T; returns it with the order, or raises if not "less"."""
    competitor = defect_reset(traj, T, continuation)
    order = compare_local(competitor, traj)
    if order.relation != "less":
        raise ValueError(f"nothing to improve: the reset at t={T} is {order.relation}")
    return competitor, order


# -- disk bundles -----------------------------------------------------

def save_bundle(traj: Trajectory, dirpath: str) -> None:
    """Write a trajectory directory: meta.json, per-sample state CSVs and
    the energy curve CSV ``t,E``."""
    os.makedirs(dirpath, exist_ok=True)
    meta = {
        "grid": traj.grid.to_dict(),
        "law": {"a": traj.law.a, "gamma": traj.law.gamma},
        "times": [float(t) for t in traj.times],
        "e0": traj.e0,
    }
    write_json(os.path.join(dirpath, "meta.json"), meta)
    for k, s in enumerate(traj.states):
        save_state_csv(s, os.path.join(dirpath, f"state_{k:06d}.csv"))
    write_csv(os.path.join(dirpath, "energy.csv"), _ENERGY_COLUMNS, [(traj.times, traj.energy)])


def load_bundle(dirpath: str, check: bool = True) -> Trajectory:
    """Load a trajectory bundle written by :func:`save_bundle`.

    The ``t`` column of energy.csv must equal the sample times of
    meta.json bit for bit, as :func:`save_bundle` writes it.
    With check=False invariant violations (for instance a hand-edited
    increasing energy curve) are tolerated so diagnostics can report
    them instead of refusing to look; the times must still increase from 0.
    """
    with open(os.path.join(dirpath, "meta.json")) as f:
        meta = json.load(f)
    grid = Grid.from_dict(meta["grid"])
    law = GasLaw(a=meta["law"]["a"], gamma=meta["law"]["gamma"])
    times = np.array(meta["times"], dtype=float)
    _, raw = read_csv(os.path.join(dirpath, "energy.csv"), _ENERGY_COLUMNS)
    if len(raw) != len(times):
        raise ValueError("energy.csv rows do not match the sample times")
    differs = raw[:, 0].view(np.int64) != times.view(np.int64)
    if differs.any():
        k = int(np.argmax(differs))
        raise ValueError(f"energy.csv time {raw[k, 0]} in data row {k + 1} is not the "
                         f"sample time {times[k]} of meta.json")
    energy = raw[:, 1]
    rho = np.zeros((len(times),) + grid.counts)  # not np.empty: see solver.March
    m = np.zeros(rho.shape + (grid.d,))
    for k in range(len(times)):
        state = load_state_csv(grid, os.path.join(dirpath, f"state_{k:06d}.csv"), check=check)
        rho[k], m[k] = state.rho, state.m
    return Trajectory(grid, law, times, (rho, m), energy,
                      e0=float(meta["e0"]), check=check)
