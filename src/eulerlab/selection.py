"""Two-step selection and Laplace-transform comparison of trajectories.

Step 1 keeps the candidates minimizing the exponentially weighted total
energy F1; step 2 picks the survivor minimizing a strictly convex
weighted norm F2 (full variant over density, momentum and energy, or a
momentum-only variant).  All time integrals are closed form on the
piecewise-constant curves, with constant extension beyond the horizon.
Both refined Dafermos screens read one scan, ``_rate_gaps``: the transform
of an energy-curve difference at each of the 32 rates of ``_RATES``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .eos import GasLaw
from .fields import energy_scale, rel_l1_distance
from .trajectory import Trajectory, _local_order, require_shared

__all__ = [
    "CandidateSet",
    "SelectionReport",
    "q_max",
    "default_q",
    "F1",
    "F2",
    "select",
    "laplace_energy",
    "MinimizerVerdict",
    "is_absolute_minimizer",
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
        for i, tr in enumerate(self.members[1:], start=1):
            try:
                require_shared(base, tr)
            except ValueError as e:
                raise ValueError(f"member {i}: {e}") from None
            if rel_l1_distance(tr.rho[:1], tr.m[:1], base.rho[:1], base.m[:1])[0] > 1e-9:
                raise ValueError(f"member {i} starts from different fields")
            if abs(tr.e0 - base.e0) > 1e-12 * energy_scale(base.e0):
                raise ValueError(f"member {i} starts from a different total energy")

    def __iter__(self):
        return iter(self.members)


# -- weighted functionals ----------------------------------------------

def q_max(law: GasLaw) -> float:
    """Upper admissible exponent 2*gamma/(gamma+1) for F2."""
    return 2.0 * law.gamma / (law.gamma + 1.0)


def default_q(law: GasLaw) -> float:
    return min(4.0 / 3.0, q_max(law))


def exp_weights(times: np.ndarray, lam: float = 1.0) -> np.ndarray:
    """Integrals of exp(-lam*t) over the sample windows, last one to infinity."""
    w = np.empty(len(times))
    et = np.exp(-lam * times)
    w[:-1] = (et[:-1] - et[1:]) / lam
    w[-1] = et[-1] / lam
    return w


def _f2_integrand(traj: Trajectory, variant: str, q: float | None) -> np.ndarray:
    """Per-sample integrand of F2, with the cell-sum quadrature.

    The cell values are formed in one (n, *counts) buffer, |m|^2 one sample
    at a time, and each term is summed over the cells of all samples at
    once, which fixes its bits."""
    if variant not in F2_VARIANTS:
        raise ValueError(f"variant must be one of {F2_VARIANTS}")
    if q is None:
        q = default_q(traj.law)
    hi = q_max(traj.law)
    if not (1.0 < q <= hi + 1e-12):
        raise ValueError(f"exponent q={q} outside the admissible range (1, {hi}]")
    cells = tuple(range(1, traj.rho.ndim))
    vol = traj.grid.cell_volume
    cell = np.empty(traj.rho.shape)
    for m_k, cell_k in zip(traj.m, cell):
        np.sum(m_k**2, axis=-1, out=cell_k)
    np.sqrt(cell, out=cell)
    cell **= q
    mq = np.sum(cell, axis=cells) * vol
    if variant == "momentum-only":
        return mq
    np.power(traj.rho, q, out=cell)
    return np.sum(cell, axis=cells) * vol + mq + np.abs(traj.energy) ** q


def F1(traj: Trajectory) -> float:
    """Exponentially weighted time integral of the total energy: its
    Laplace transform at rate 1."""
    return laplace_energy(traj, 1.0)


def F2(traj: Trajectory, variant: str = "full", q: float | None = None) -> float:
    """Strictly convex second-step functional.

    "full" integrates the q-th powers of the density and momentum norms
    plus |E|^q (the q-th power of the weighted trajectory norm);
    "momentum-only" keeps just the momentum term.
    """
    return float(np.dot(exp_weights(traj.times), _f2_integrand(traj, variant, q)))


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

    def to_csv(self) -> str:
        lines = ["member,F1,survived,F2,selected"]
        for i, f1 in enumerate(self.f1_values):
            surv = i in self.survivors
            f2 = self.f2_values[i]
            lines.append(f"{i},{f1:.17g},{int(surv)},"
                         f"{'' if f2 is None else format(f2, '.17g')},{int(i == self.selected)}")
        return "\n".join(lines) + "\n"


def _minimizers(values: list, among, tie_tol: float | None) -> list:
    """Indices in ``among`` within tie_tol (default 1e-9 relative) of the least value."""
    m = min(values[i] for i in among)
    tol = tie_tol if tie_tol is not None else 1e-9 * max(abs(m), 1e-30)
    return [i for i in among if values[i] <= m + tol]


def select(candidates: CandidateSet, variant: str = "full",
           q: float | None = None, tie_tol: float | None = None) -> SelectionReport:
    """Two-step argmin: survivors of F1 up to tie_tol, then minimal F2.

    F2 ties (possible only for the momentum-only variant) are resolved
    deterministically by the lowest index and flagged in the report.
    """
    f1 = [F1(tr) for tr in candidates]
    survivors = _minimizers(f1, range(len(f1)), tie_tol)
    f2 = [None] * len(f1)
    for i in survivors:
        f2[i] = F2(candidates.members[i], variant=variant, q=q)
    tied = _minimizers(f2, survivors, tie_tol)
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


# the transform rates of both screens: 32 geometric steps from 0.5 to 128
_RATES = np.geomspace(0.5, 128.0, 32)


def _rate_gaps(times: np.ndarray, diff: np.ndarray, k: int = 0) -> np.ndarray:
    """Transform at each of ``_RATES`` of an energy-curve difference on the
    sample windows from the k-th on.  Weighting the pointwise difference
    avoids the cancellation of subtracting two nearly equal transforms at
    large rates: windows where the curves agree contribute exactly zero."""
    return np.array([np.dot(exp_weights(times, lam)[k:], diff) for lam in _RATES])


@dataclass
class MinimizerVerdict:
    is_minimizer: bool
    lambda_lower: list   # per competitor: smallest grid rate from which the
                         # candidate transform stays below, or None


def is_absolute_minimizer(candidate: Trajectory, candidates: CandidateSet) -> MinimizerVerdict:
    """Grid check of eventual transform domination over every competitor.

    For each competitor the reported rate is the smallest grid point
    after which the candidate's transform stays below the competitor's
    (within 1e-12 * max(1, |E0|)) at every larger grid point; the
    verdict holds iff such a rate exists for all competitors.  The rates
    are grid-relative lower brackets, not continuum thresholds.
    """
    tol = 1e-12 * energy_scale(candidate.e0)
    if not any(tr is candidate for tr in candidates):
        raise ValueError("candidate must be a member of the set")
    lowers = []
    ok_all = True
    for tr in candidates:
        if tr is candidate:
            continue
        ok = _rate_gaps(candidate.times, candidate.energy - tr.energy) <= tol
        if ok[-1] and np.all(ok):
            lowers.append(float(_RATES[0]))
        elif ok[-1]:
            last_bad = int(np.max(np.nonzero(~ok)[0]))
            lowers.append(float(_RATES[last_bad + 1]))
        else:
            lowers.append(None)
            ok_all = False
    return MinimizerVerdict(ok_all, lowers)


def check_order_coherence(less: Trajectory, greater: Trajectory) -> tuple:
    """Transform-side consequence of compare_local(less, greater) == "less".

    On the witness windows k..j (the last sample's window is one unit of
    constant extension), computes the rate threshold 2*max(E0)/gap (gap =
    time integral of the energy difference) above which the transform
    difference must be negative, and returns the threshold together with
    any violating rates of ``_RATES``.  The transform starts at t_k:
    compare_local found the samples before it equal.
    """
    relation, k, j = _local_order(less, greater)
    if relation != "less":
        raise ValueError(f"coherence check needs a pair in the local order 'less', "
                         f"got '{relation}'")
    times = less.times
    widths = np.append(np.diff(times), 1.0)
    # cumsum adds the window terms one by one, in time order
    gap = np.cumsum((greater.energy[k:j + 1] - less.energy[k:j + 1]) * widths[k:j + 1])[-1]
    threshold = 2.0 * max(less.e0, greater.e0) / gap
    gaps = _rate_gaps(times, less.energy[k:] - greater.energy[k:], k)
    violations = [float(lam) for lam, g in zip(_RATES, gaps) if lam >= threshold and g >= 0]
    return threshold, violations
