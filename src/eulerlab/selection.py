"""Two-step selection and Laplace-transform comparison of trajectories.

Step 1 keeps the candidates minimizing the exponentially weighted total
energy F1; step 2 picks the survivor minimizing a strictly convex
weighted norm F2 (full variant over density, momentum and energy, or a
momentum-only variant).  All time integrals are closed form on the
piecewise-constant curves, with constant extension beyond the horizon.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .fields import rel_l1_distance
from .trajectory import (OrderResult, Trajectory, _check_q, concatenate, exp_weights,
                         field_q_integrals, q_max, shift)

__all__ = [
    "CandidateSet",
    "SelectionReport",
    "default_q",
    "F1",
    "F2",
    "select",
    "laplace_energy",
    "laplace_gap",
    "default_lambda_grid",
    "MinimizerVerdict",
    "is_absolute_minimizer",
    "lerch_equal",
    "check_shift_identity",
    "check_concatenation_inequality",
    "check_order_coherence",
]

F2_VARIANTS = ("full", "momentum-only")


@dataclass
class CandidateSet:
    """Finite set of trajectories sharing grid, law, times and data."""

    members: list

    def __post_init__(self):
        if not self.members:
            raise ValueError("candidate set must be non-empty")
        base = self.members[0]
        scale = max(1.0, abs(base.e0))
        for i, tr in enumerate(self.members[1:], start=1):
            if tr.grid.counts != base.grid.counts:
                raise ValueError(f"member {i} lives on a different grid")
            if tr.law != base.law:
                raise ValueError(f"member {i} has a different gas law")
            if (tr.n_samples != base.n_samples
                    or np.max(np.abs(tr.times - base.times)) > 1e-9):
                raise ValueError(f"member {i} has different sample times")
            if rel_l1_distance(tr.states[0], base.states[0]) > 1e-9:
                raise ValueError(f"member {i} starts from different fields")
            if abs(tr.e0 - base.e0) > 1e-12 * scale:
                raise ValueError(f"member {i} starts from a different total energy")

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)


def default_q(law) -> float:
    return min(4.0 / 3.0, q_max(law))


def _density_series(traj: Trajectory, functional: str, q: float | None) -> np.ndarray:
    """Per-sample integrand values of a selection functional."""
    if functional == "F1":
        return traj.energy.astype(float)
    if q is None:
        q = default_q(traj.law)
    _check_q(q, traj.law)
    out = np.empty(traj.n_samples)
    for k, s in enumerate(traj.states):
        rq, mq = field_q_integrals(s, q)
        if functional == "F2-full":
            out[k] = rq + mq + abs(traj.energy[k]) ** q
        elif functional == "F2-momentum":
            out[k] = mq
        else:
            raise ValueError(f"unknown functional {functional!r}")
    return out


def _weighted_integral(traj: Trajectory, functional: str, q: float | None) -> float:
    """Exponentially weighted time integral of :func:`_density_series`."""
    return float(np.dot(exp_weights(traj.times), _density_series(traj, functional, q)))


def F1(traj: Trajectory) -> float:
    """Exponentially weighted time integral of the total energy."""
    return _weighted_integral(traj, "F1", None)


def F2(traj: Trajectory, variant: str = "full", q: float | None = None) -> float:
    """Strictly convex second-step functional.

    "full" integrates the q-th powers of the density and momentum norms
    plus |E|^q (the q-th power of the weighted trajectory norm);
    "momentum-only" keeps just the momentum term.
    """
    if variant not in F2_VARIANTS:
        raise ValueError(f"variant must be one of {F2_VARIANTS}")
    return _weighted_integral(traj, "F2-full" if variant == "full" else "F2-momentum", q)


@dataclass
class SelectionReport:
    f1_values: list
    survivors: list
    f2_values: list          # None for members eliminated at step 1
    selected: int
    tied: list = field(default_factory=list)
    tie_flagged: bool = False
    variant: str = "full"
    q: float | None = None

    def to_json(self) -> str:
        return json.dumps({
            "f1_values": self.f1_values,
            "survivors": self.survivors,
            "f2_values": self.f2_values,
            "selected": self.selected,
            "tied": self.tied,
            "tie_flagged": self.tie_flagged,
            "variant": self.variant,
            "q": self.q,
        }, indent=1, sort_keys=True) + "\n"

    def to_csv(self) -> str:
        lines = ["member,F1,survived,F2,selected"]
        for i, f1 in enumerate(self.f1_values):
            surv = i in self.survivors
            f2 = self.f2_values[i]
            lines.append(f"{i},{f1:.17g},{int(surv)},"
                         f"{'' if f2 is None else format(f2, '.17g')},{int(i == self.selected)}")
        return "\n".join(lines) + "\n"


def select(candidates: CandidateSet, variant: str = "full",
           q: float | None = None, tie_tol: float | None = None) -> SelectionReport:
    """Two-step argmin: survivors of F1 up to tie_tol, then minimal F2.

    F2 ties (possible only for the momentum-only variant) are resolved
    deterministically by the lowest index and flagged in the report.
    """
    f1 = [F1(tr) for tr in candidates]
    m1 = min(f1)
    tol1 = tie_tol if tie_tol is not None else 1e-9 * max(abs(m1), 1e-30)
    survivors = [i for i, v in enumerate(f1) if v <= m1 + tol1]
    f2 = [None] * len(f1)
    for i in survivors:
        f2[i] = F2(candidates.members[i], variant=variant, q=q)
    m2 = min(f2[i] for i in survivors)
    tol2 = tie_tol if tie_tol is not None else 1e-9 * max(abs(m2), 1e-30)
    tied = [i for i in survivors if f2[i] <= m2 + tol2]
    selected = tied[0]
    return SelectionReport(f1, survivors, f2, selected,
                           tied=tied, tie_flagged=len(tied) > 1,
                           variant=variant, q=q)


# -- Laplace transforms ------------------------------------------------

def laplace_energy(traj: Trajectory, lam: float) -> float:
    """Closed-form integral of exp(-lam*t) * E(t) over [0, inf)."""
    if not (lam > 0):
        raise ValueError("the transform rate lambda must be positive")
    return float(np.dot(exp_weights(traj.times, lam), traj.energy))


def default_lambda_grid() -> np.ndarray:
    """32 geometrically spaced transform rates from 0.5 to 128."""
    return np.geomspace(0.5, 128.0, 32)


def laplace_gap(u: Trajectory, v: Trajectory, lam: float) -> float:
    """Transform of the energy difference E_u - E_v on shared sample times.

    Weighting the pointwise curve difference avoids the catastrophic
    cancellation of subtracting two nearly equal transforms at large
    rates: windows where the curves agree contribute exactly zero.
    """
    if u.n_samples != v.n_samples or np.max(np.abs(u.times - v.times)) > 1e-9:
        raise ValueError("gap transform needs common sample times")
    return float(np.dot(exp_weights(u.times, lam), u.energy - v.energy))


@dataclass
class MinimizerVerdict:
    is_minimizer: bool
    lambda_lower: list   # per competitor: smallest grid rate from which the
                         # candidate transform stays below, or None


def is_absolute_minimizer(candidate: Trajectory, candidates: CandidateSet,
                          lambda_grid: np.ndarray | None = None) -> MinimizerVerdict:
    """Grid check of eventual transform domination over every competitor.

    For each competitor the reported rate is the smallest grid point
    after which the candidate's transform stays below the competitor's
    (within 1e-12 * max(1, |E0|)) at every larger grid point; the
    verdict holds iff such a rate exists for all competitors.  The rates
    are grid-relative lower brackets, not continuum thresholds.
    """
    if lambda_grid is None:
        lambda_grid = default_lambda_grid()
    lambda_grid = np.asarray(lambda_grid, dtype=float)
    if lambda_grid[0] > 1.0 or lambda_grid[-1] < 100.0:
        raise ValueError("lambda grid must span at least [1, 100]")
    tol = 1e-12 * max(1.0, abs(candidate.e0))
    if not any(tr is candidate for tr in candidates):
        raise ValueError("candidate must be a member of the set")
    lowers = []
    ok_all = True
    for tr in candidates:
        if tr is candidate:
            continue
        gap = np.array([laplace_gap(candidate, tr, lam) for lam in lambda_grid])
        ok = gap <= tol
        if ok[-1] and np.all(ok):
            lowers.append(float(lambda_grid[0]))
        elif ok[-1]:
            last_bad = int(np.max(np.nonzero(~ok)[0]))
            lowers.append(float(lambda_grid[last_bad + 1]))
        else:
            lowers.append(None)
            ok_all = False
    return MinimizerVerdict(ok_all, lowers)


def lerch_equal(u: Trajectory, v: Trajectory) -> bool:
    """Transform-based equality certificate for two energy curves.

    True iff the transforms agree within 1e-9/lam * max(E0) at every
    default grid rate; by density of the exponentials, disagreement
    certifies genuinely different curves.
    """
    scale = max(abs(u.e0), abs(v.e0), 1e-30)
    for lam in default_lambda_grid():
        gap = abs(laplace_energy(u, lam) - laplace_energy(v, lam))
        if gap > 1e-9 * scale / lam:
            return False
    return True


# -- consistency identities -------------------------------------------

def check_shift_identity(traj: Trajectory, T: float, functional: str = "F1",
                         q: float | None = None) -> float:
    """Residual of F(shift(u, T)) = e^T (F(u) - int_0^T e^-t f(u(t)) dt).

    Both sides are closed form on the constant-extension semantics, so
    the residual is a pure quadrature/shift regression check.
    """
    k = traj.index_of(T)
    lhs = _weighted_integral(shift(traj, T), functional, q)
    g = _density_series(traj, functional, q)
    w = exp_weights(traj.times)
    head = float(np.dot(w[:k], g[:k]))
    full = float(np.dot(w, g))
    rhs = math.exp(T) * (full - head)
    return abs(lhs - rhs)


def check_concatenation_inequality(u: Trajectory, v: Trajectory, T: float,
                                   functional: str = "F1",
                                   q: float | None = None) -> float:
    """Signed slack F(u) - F(u joined with v at T).

    Nonnegative whenever the continuation does not exceed the shifted
    tail of u in the functional; zero for self-concatenation.
    """
    joined = concatenate(u, v, T)
    return (_weighted_integral(u, functional, q)
            - _weighted_integral(joined, functional, q))


def check_order_coherence(less: Trajectory, greater: Trajectory,
                          order: OrderResult) -> tuple:
    """Transform-side consequence of a local-order verdict.

    Given compare_local(less, greater) == "less" with witness window
    (T, T+delta), computes the rate threshold 2*max(E0)/gap (gap = time
    integral of the energy difference over the window) above which the
    transform difference must be negative, and returns the threshold
    together with any violating rates of the default grid.
    """
    if order.relation != "less" or order.T is None:
        raise ValueError("coherence check needs a 'less' result with a witness window")
    k = less.index_of(order.T)
    t_hi = order.T + order.delta if math.isfinite(order.delta) else math.inf
    gap = 0.0
    times = less.times
    n = less.n_samples
    for j in range(k, n - 1):
        if times[j + 1] > t_hi + 1e-12:
            break
        gap += (greater.energy[j] - less.energy[j]) * (times[j + 1] - times[j])
    if not math.isfinite(t_hi) or t_hi > times[-1]:
        # witness extends past the horizon: one unit of constant extension
        gap += (greater.energy[-1] - less.energy[-1]) * 1.0
    if gap <= 0:
        raise ValueError("witness window carries no positive energy gap")
    threshold = 2.0 * max(less.e0, greater.e0) / gap
    violations = []
    for lam in default_lambda_grid():
        if lam >= threshold:
            if laplace_gap(less, greater, lam) >= 0:
                violations.append(float(lam))
    return threshold, violations
