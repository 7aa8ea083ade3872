"""The paper's identities and the comparisons that only tests use.

Each is written over eulerlab's public functionals (F1, F2,
laplace_energy, exp_weights) and trajectory algebra.  A ``variant`` of
None names F1; "full" or "momentum-only" names that variant of F2.
"""

from __future__ import annotations

import math

import numpy as np

from eulerlab.fields import energy_scale, rel_l1_distance
from eulerlab.selection import (F1, F2, _f2_integrand, _RATES, exp_weights,
                                laplace_energy)
from eulerlab.trajectory import (OrderResult, Trajectory, concatenate, require_shared,
                                 shift)


def weighted_norm(traj: Trajectory, q: float) -> float:
    """Exponentially weighted space-time q-norm of (rho, m, E): the q-th
    root of the full F2."""
    return F2(traj, "full", q) ** (1.0 / q)


def _functional(traj: Trajectory, variant: str | None, q: float | None) -> float:
    return F1(traj) if variant is None else F2(traj, variant, q)


# -- order relations --------------------------------------------------

def same_content(a: Trajectory, b: Trajectory) -> bool:
    """a and b agree within 1e-12: in sample count, grid, sample times,
    initial energy and energy curve (relative to a's energy scale) and in
    the fields (relative L1)."""
    tol = 1e-12
    if a.n_samples != b.n_samples or a.grid.counts != b.grid.counts:
        return False
    if np.max(np.abs(a.times - b.times)) > tol:
        return False
    if abs(a.e0 - b.e0) > tol * energy_scale(a.e0):
        return False
    if np.max(np.abs(a.energy - b.energy)) > tol * energy_scale(a.e0):
        return False
    return bool(np.all(rel_l1_distance(a.rho, a.m, b.rho, b.m) <= tol))


def _full_energy_curves(u: Trajectory, v: Trajectory) -> tuple:
    require_shared(u, v)
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


def min_energy_merge(u: Trajectory, v: Trajectory, T: float) -> tuple:
    """Replace both energy curves by their pointwise minimum from T on.

    Requires the fields of u and v to agree (relative L1 within 1e-9)
    at every sample time >= T.  Both outputs keep their own states and
    their original energy before T.
    """
    require_shared(u, v)
    k = u.index_of(T)
    d = rel_l1_distance(u.rho[k:], u.m[k:], v.rho[k:], v.m[k:])
    if np.any(d > 1e-9):
        j = int(np.argmax(d > 1e-9))
        raise ValueError(f"fields differ at t={u.times[k + j]} (relative L1 {d[j]:.3e})")
    tail = np.minimum(u.energy[k:], v.energy[k:])
    eu = np.concatenate([u.energy[:k], tail])
    ev = np.concatenate([v.energy[:k], tail])
    mu = Trajectory(u.grid, u.law, u.times, (u.rho, u.m), eu, e0=u.e0)
    mv = Trajectory(v.grid, v.law, v.times, (v.rho, v.m), ev, e0=v.e0)
    return mu, mv


# -- Laplace transforms -----------------------------------------------

def lerch_equal(u: Trajectory, v: Trajectory) -> bool:
    """Transform-based equality certificate for two energy curves.

    True iff the transforms agree within 1e-9/lam * max(E0) at every
    rate of the selection screens' grid ``_RATES``; by density of the
    exponentials, disagreement certifies genuinely different curves.
    """
    scale = max(abs(u.e0), abs(v.e0), 1e-30)
    for lam in _RATES:
        gap = abs(laplace_energy(u, lam) - laplace_energy(v, lam))
        if gap > 1e-9 * scale / lam:
            return False
    return True


# -- shift and concatenation identities -------------------------------

def check_shift_identity(traj: Trajectory, T: float, variant: str | None = None,
                         q: float | None = None) -> float:
    """Residual of F(shift(u, T)) = e^T (F(u) - int_0^T e^-t f(u(t)) dt).

    Both sides are closed form on the constant-extension semantics, so
    the residual is a pure quadrature/shift regression check.
    """
    k = traj.index_of(T)
    lhs = _functional(shift(traj, T), variant, q)
    g = traj.energy if variant is None else _f2_integrand(traj, variant, q)
    w = exp_weights(traj.times)
    head = float(np.dot(w[:k], g[:k]))
    full = float(np.dot(w, g))
    rhs = math.exp(T) * (full - head)
    return abs(lhs - rhs)


def check_concatenation_inequality(u: Trajectory, v: Trajectory, T: float,
                                   variant: str | None = None,
                                   q: float | None = None) -> float:
    """Signed slack F(u) - F(u joined with v at T).

    Nonnegative whenever the continuation does not exceed the shifted
    tail of u in the functional; zero for self-concatenation.
    """
    joined = concatenate(u, v, T)
    return _functional(u, variant, q) - _functional(joined, variant, q)
