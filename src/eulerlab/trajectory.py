"""Trajectories and their algebra.

A Trajectory bundles time-sampled fluid states with a total-energy curve
E.  The curve is piecewise constant and left-continuous with right
limits (caglad): the stored value ``energy[k]`` is E(t_k+), constant on
the window (t_k, t_{k+1}]; ``e0`` is the initial value E(0), which may
sit above ``energy[0]`` (an instantaneous dissipation jump at t = 0).
Beyond the final sample every quantity extends as a constant, which
makes all exponentially weighted time integrals closed-form.

Invariants enforced at construction: E non-increasing across knots, and
E(t+) at least the mean (integrated) energy of the fields at every
sample time, up to a relative tolerance.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .eos import GasLaw, pressure
from .fields import (FluidState, Grid, integrate_energy, load_state_csv, read_csv,
                     rel_l1_distance, save_state_csv, write_csv)
from .stress import ReynoldsField, kinetic_tensor

__all__ = [
    "Trajectory",
    "OrderResult",
    "weighted_norm",
    "q_max",
    "shift",
    "concatenate",
    "convex_combine",
    "compare_admissible",
    "compare_local",
    "stopping_time",
    "defect_reset",
    "improve",
    "min_energy_merge",
    "save_bundle",
    "load_bundle",
]

_TIME_RTOL = 1e-9
_ENERGY_COLUMNS = ("t", "E")


class Trajectory:
    """Sampled (rho, m) fields with a caglad total-energy curve."""

    __slots__ = ("grid", "law", "times", "states", "energy", "e0", "mean_energies")

    def __init__(self, grid: Grid, law: GasLaw, times, states, energy,
                 e0: float | None = None, check: bool = True, rtol: float = 1e-9):
        times = np.array(times, dtype=float)
        energy = np.array(energy, dtype=float)
        times.setflags(write=False)
        energy.setflags(write=False)
        states = list(states)
        if e0 is None:
            e0 = float(energy[0])
        self.grid = grid
        self.law = law
        self.times = times
        self.states = states
        self.energy = energy
        self.e0 = float(e0)
        self.mean_energies = np.array([integrate_energy(s, law) for s in states])
        self.mean_energies.setflags(write=False)
        if check:
            self._validate(rtol)

    def _validate(self, rtol: float) -> None:
        t, E = self.times, self.energy
        if t.ndim != 1 or len(t) < 1 or len(t) != len(self.states) or len(t) != len(E):
            raise ValueError("times, states and energy must have equal positive length")
        if abs(t[0]) > _TIME_RTOL:
            raise ValueError("sample times must start at 0")
        if len(t) > 1 and np.any(np.diff(t) <= 0):
            raise ValueError("sample times must be strictly increasing")
        for s in self.states:
            if s.grid.counts != self.grid.counts:
                raise ValueError("all states must live on the trajectory grid")
        if not np.all(np.isfinite(E)) or not math.isfinite(self.e0):
            raise ValueError("energy curve must be finite")
        tol = rtol * max(1.0, abs(self.e0))
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

    def index_of(self, t: float) -> int:
        """Index of the sample time t; raises if t is not a sample time."""
        k = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[k] - t) > _TIME_RTOL * max(1.0, self.t_end):
            raise ValueError(f"{t} is not a sample time of this trajectory")
        return k

    def energy_left_at(self, k: int) -> float:
        """E(t_k), the left-continuous value at the k-th sample time."""
        return self.e0 if k == 0 else float(self.energy[k - 1])

    def defects(self) -> np.ndarray:
        """Raw energy defect E(t_k+) - mean energy at every sample time."""
        return self.energy - self.mean_energies

    def same_content(self, other: "Trajectory", tol: float = 1e-12) -> bool:
        if self.n_samples != other.n_samples:
            return False
        if np.max(np.abs(self.times - other.times)) > tol:
            return False
        scale = max(1.0, abs(self.e0))
        if abs(self.e0 - other.e0) > tol * scale:
            return False
        if np.max(np.abs(self.energy - other.energy)) > tol * scale:
            return False
        return all(rel_l1_distance(a, b) <= tol
                   for a, b in zip(self.states, other.states))


@dataclass
class OrderResult:
    """Outcome of an energy-curve comparison.

    relation is one of "less", "greater", "equal", "incomparable"; for
    the local order the witness window (T, T + delta) is reported.
    """

    relation: str
    T: float | None = None
    delta: float | None = None

    def mirrored(self) -> "OrderResult":
        flip = {"less": "greater", "greater": "less"}
        return OrderResult(flip.get(self.relation, self.relation), self.T, self.delta)


# -- weighted norms ---------------------------------------------------

def q_max(law: GasLaw) -> float:
    """Upper admissible exponent 2*gamma/(gamma+1) for the weighted norms."""
    return 2.0 * law.gamma / (law.gamma + 1.0)


def _check_q(q: float, law: GasLaw) -> None:
    hi = q_max(law)
    if not (1.0 < q <= hi + 1e-12):
        raise ValueError(f"exponent q={q} outside the admissible range (1, {hi}]")


def exp_weights(times: np.ndarray, lam: float = 1.0) -> np.ndarray:
    """Integrals of exp(-lam*t) over the sample windows, last one to infinity."""
    w = np.empty(len(times))
    et = np.exp(-lam * times)
    w[:-1] = (et[:-1] - et[1:]) / lam
    w[-1] = et[-1] / lam
    return w


def field_q_integrals(state: FluidState, q: float) -> tuple:
    """(||rho||_q^q, ||m||_q^q) by the cell-sum quadrature."""
    vol = state.grid.cell_volume
    rq = float(np.sum(state.rho**q) * vol)
    mq = float(np.sum(np.sqrt(np.sum(state.m**2, axis=-1)) ** q) * vol)
    return rq, mq


def weighted_norm(traj: Trajectory, q: float) -> float:
    """Exponentially weighted space-time q-norm of (rho, m, E)."""
    _check_q(q, traj.law)
    w = exp_weights(traj.times)
    total = 0.0
    for k, s in enumerate(traj.states):
        rq, mq = field_q_integrals(s, q)
        total += w[k] * (rq + mq + abs(traj.energy[k]) ** q)
    return total ** (1.0 / q)


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
        traj.states[k:],
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
    if u.grid.counts != v.grid.counts:
        raise ValueError("trajectories live on different grids")
    if u.law != v.law:
        raise ValueError("trajectories have different gas laws")
    k = u.index_of(T)
    tol_energy = 1e-9 * max(1.0, abs(u.e0))
    d = rel_l1_distance(u.states[k], v.states[0])
    if d > 1e-10:
        raise ValueError(f"fields mismatch at the junction (relative L1 {d:.3e})")
    lo = u.mean_energies[k] - tol_energy
    hi = u.energy_left_at(k) + tol_energy
    if not (lo <= v.e0 <= hi):
        raise ValueError(
            f"continuation energy {v.e0} outside the admissible window [{lo}, {hi}]")
    times = np.concatenate([u.times[:k], T + v.times])
    states = u.states[:k] + v.states
    energy = np.concatenate([u.energy[:k], v.energy])
    return Trajectory(u.grid, u.law, times, states, energy, e0=u.e0)


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
    if u.grid.counts != v.grid.counts or u.grid.d != v.grid.d:
        raise ValueError("mismatched grids")
    if u.n_samples != v.n_samples or np.max(np.abs(u.times - v.times)) > _TIME_RTOL:
        raise ValueError("mismatched sample times")
    if u.law != v.law:
        raise ValueError("mismatched gas laws")
    d = u.grid.d
    shape = (u.n_samples,) + u.grid.counts + (d, d)
    tensor = np.zeros(shape)
    states = []
    eye = np.eye(d)
    for k in range(u.n_samples):
        su, sv = u.states[k], v.states[k]
        rho = lam * su.rho + (1.0 - lam) * sv.rho
        m = lam * su.m + (1.0 - lam) * sv.m
        states.append(FluidState(u.grid, rho, m, check=False))
        kin = (lam * kinetic_tensor(su.rho, su.m)
               + (1.0 - lam) * kinetic_tensor(sv.rho, sv.m)
               - kinetic_tensor(rho, m))
        pgap = (lam * pressure(su.rho, u.law) + (1.0 - lam) * pressure(sv.rho, u.law)
                - pressure(rho, u.law))
        tensor[k] = kin + pgap[..., None, None] * eye
    energy = lam * u.energy + (1.0 - lam) * v.energy
    e0 = lam * u.e0 + (1.0 - lam) * v.e0
    traj = Trajectory(u.grid, u.law, u.times, states, energy, e0=e0)
    return traj, ReynoldsField(u.grid, u.times.copy(), tensor)


# -- order relations --------------------------------------------------

def _full_energy_curves(u: Trajectory, v: Trajectory) -> tuple:
    if u.n_samples != v.n_samples or np.max(np.abs(u.times - v.times)) > _TIME_RTOL:
        raise ValueError("order comparisons need common sample times")
    eu = np.concatenate([[u.e0], u.energy])
    ev = np.concatenate([[v.e0], v.energy])
    return eu, ev


def compare_admissible(u: Trajectory, v: Trajectory) -> OrderResult:
    """Global energy-curve order: less means E_u <= E_v everywhere with a
    strict gap somewhere; crossing curves are incomparable."""
    scale = max(1.0, abs(u.e0), abs(v.e0))
    tol_eq = 1e-9 * scale
    tol_strict = 1e-6 * scale
    eu, ev = _full_energy_curves(u, v)
    diff = eu - ev
    if np.max(np.abs(diff)) <= tol_eq:
        return OrderResult("equal")
    if np.all(diff <= tol_eq) and np.min(diff) < -tol_strict:
        return OrderResult("less")
    if np.all(diff >= -tol_eq) and np.max(diff) > tol_strict:
        return OrderResult("greater")
    return OrderResult("incomparable")


def compare_local(u: Trajectory, v: Trajectory) -> OrderResult:
    """Local (prefix) order: trajectories must agree in fields and energy
    up to some sample time T and then separate strictly in energy on at
    least one full sample window (T, T + delta]."""
    scale = max(1.0, abs(u.e0), abs(v.e0))
    tol_eq = 1e-9
    tol_strict = 1e-6 * scale
    tol_eq_energy = tol_eq * scale
    if u.n_samples != v.n_samples or np.max(np.abs(u.times - v.times)) > _TIME_RTOL:
        raise ValueError("order comparisons need common sample times")
    n = u.n_samples

    def fields_eq(k):
        return rel_l1_distance(u.states[k], v.states[k]) <= tol_eq

    if not fields_eq(0) or abs(u.e0 - v.e0) > tol_eq_energy:
        return OrderResult("incomparable")
    k = 0
    while (k < n - 1 and abs(u.energy[k] - v.energy[k]) <= tol_eq_energy
           and fields_eq(k + 1)):
        k += 1
    # prefix [0, t_k] agrees; inspect the energy window (t_k, t_{k+1}]
    gap = u.energy[k] - v.energy[k]
    if abs(gap) <= tol_eq_energy and k == n - 1:
        return OrderResult("equal")
    if gap < -tol_strict:
        lead, lag = u, v
        relation = "less"
    elif gap > tol_strict:
        lead, lag = v, u
        relation = "greater"
    else:
        return OrderResult("incomparable")
    j = k
    while j < n - 1 and lead.energy[j + 1] < lag.energy[j + 1] - tol_strict:
        j += 1
    T = float(u.times[k])
    delta = math.inf if j == n - 1 else float(u.times[j + 1] - u.times[k])
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
    if abs(continuation.e0 - target) > 1e-9 * max(1.0, abs(traj.e0)):
        raise ValueError(
            f"continuation must start at the mean energy {target}, got {continuation.e0}")
    return concatenate(traj, continuation, T)


def improve(traj: Trajectory, T: float, continuation: Trajectory) -> tuple:
    """Competitor strictly below traj in the local order, built by
    resetting the positive defect at T; returns it with the comparison."""
    k = traj.index_of(T)
    eps = float(traj.defects()[k])
    if eps <= 1e-12 * max(1.0, abs(traj.e0)):
        raise ValueError(f"nothing to improve: defect at t={T} is {eps:.3e}")
    competitor = defect_reset(traj, T, continuation)
    order = compare_local(competitor, traj)
    return competitor, order


def min_energy_merge(u: Trajectory, v: Trajectory, T: float) -> tuple:
    """Replace both energy curves by their pointwise minimum from T on.

    Requires the fields of u and v to agree (relative L1 within 1e-9)
    at every sample time >= T.  Both outputs keep their own states and
    their original energy before T.
    """
    if u.n_samples != v.n_samples or np.max(np.abs(u.times - v.times)) > _TIME_RTOL:
        raise ValueError("merge needs common sample times")
    k = u.index_of(T)
    for j in range(k, u.n_samples):
        d = rel_l1_distance(u.states[j], v.states[j])
        if d > 1e-9:
            raise ValueError(f"fields differ at t={u.times[j]} (relative L1 {d:.3e})")
    tail = np.minimum(u.energy[k:], v.energy[k:])
    eu = np.concatenate([u.energy[:k], tail])
    ev = np.concatenate([v.energy[:k], tail])
    mu = Trajectory(u.grid, u.law, u.times, u.states, eu, e0=u.e0)
    mv = Trajectory(v.grid, v.law, v.times, v.states, ev, e0=v.e0)
    return mu, mv


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
    with open(os.path.join(dirpath, "meta.json"), "w") as f:
        json.dump(meta, f, indent=1, sort_keys=True)
        f.write("\n")
    for k, s in enumerate(traj.states):
        save_state_csv(s, os.path.join(dirpath, f"state_{k:06d}.csv"))
    write_csv(os.path.join(dirpath, "energy.csv"), _ENERGY_COLUMNS, (traj.times, traj.energy))


def load_bundle(dirpath: str, check: bool = True) -> Trajectory:
    """Load a trajectory bundle written by :func:`save_bundle`.

    With check=False invariant violations (for instance a hand-edited
    increasing energy curve) are tolerated so diagnostics can report
    them instead of refusing to look.
    """
    with open(os.path.join(dirpath, "meta.json")) as f:
        meta = json.load(f)
    grid = Grid.from_dict(meta["grid"])
    law = GasLaw(a=meta["law"]["a"], gamma=meta["law"]["gamma"])
    times = np.array(meta["times"], dtype=float)
    _, raw = read_csv(os.path.join(dirpath, "energy.csv"), _ENERGY_COLUMNS)
    if len(raw) != len(times):
        raise ValueError("energy.csv rows do not match the sample times")
    energy = raw[:, 1]
    states = [load_state_csv(grid, os.path.join(dirpath, f"state_{k:06d}.csv"), check=check)
              for k in range(len(times))]
    return Trajectory(grid, law, times, states, energy,
                      e0=float(meta.get("e0", energy[0])), check=check)
