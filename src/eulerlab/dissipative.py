"""Quantitative checks of the dissipative-solution conditions.

The weak continuity and momentum balances are tested against a finite
dictionary of separable bump test functions, each balance in one pass
that forms a sample's fields once for every function whose time window
holds it.  Cell-averaged fields pair with *exact* per-cell integrals of
the test function, so identities that rely on the divergence theorem
(constant states, boundary terms) cancel to round-off instead of
leaving a quadrature footprint; functions that share a space bump share
these integrals within a pass.  In time, the per-sample spatial
pairings are reconstructed piecewise linearly and integrated against
the polynomial time bump exactly by fixed-order Gauss quadrature.

``estimate_reynolds`` averages an ensemble given as any iterable of
members, summing each into its outputs as it comes and holding one
member at a time, so the members of ``solver.run`` are marched, summed
and dropped one stack at a time.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .eos import GasLaw, defect_constant, pressure
from .fields import (DataTriple, Grid, energy_scale, integrate_energies, integrate_energy,
                     write_csv)
from .solver import March
from .stress import ReynoldsField, convexity_gap, kinetic_tensor
from .trajectory import Trajectory, defect_reset, require_shared, sample_time_tol, stopping_time

__all__ = [
    "TestFunction",
    "default_dictionary",
    "continuity_residual",
    "momentum_residual",
    "estimate_reynolds",
    "reset_defects",
    "compatibility",
    "DissipativeCertificate",
    "certify",
    "certificate_doc",
    "save_defect_csv",
]

# 3-point Gauss-Legendre on [-1, 1]: exact for polynomials of degree 5,
# enough for (quartic time bump) x (linear-in-time field coefficients)
_GAUSS_X = np.array([-math.sqrt(3.0 / 5.0), 0.0, math.sqrt(3.0 / 5.0)])
_GAUSS_W = np.array([5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0])


def _bump(s):
    s = np.clip(s, -1.0, 1.0)
    return (1.0 - s * s) ** 2


def _bump_deriv(s):
    inside = np.abs(s) < 1.0
    return np.where(inside, -4.0 * s * (1.0 - s * s), 0.0)


def _bump_antideriv(s):
    # antiderivative of (1 - s^2)^2, zero at s = -1
    s = np.clip(s, -1.0, 1.0)
    return (s - 2.0 * s**3 / 3.0 + s**5 / 5.0) + 8.0 / 15.0


@dataclass(frozen=True)
class TestFunction:
    """Separable space-time bump, scalar or vector valued.

    phi(t, x) = b((t - t_center)/t_width) * prod_k b((x_k - c_k)/w_k),
    with b(s) = (1 - s^2)^2 compactly supported on |s| < 1.  A vector
    member points along the fixed axis ``direction``.  Values, first
    derivatives and per-cell integrals are closed form.
    """

    t_center: float
    t_width: float
    centers: tuple
    widths: tuple
    direction: int | None = None

    def __post_init__(self):
        if self.t_width <= 0 or any(w <= 0 for w in self.widths):
            raise ValueError("bump widths must be positive")
        if len(self.centers) != len(self.widths):
            raise ValueError("centers and widths must share the dimension")

    @property
    def t_support(self) -> tuple:
        return (self.t_center - self.t_width, self.t_center + self.t_width)

    def time_value(self, t):
        return _bump((np.asarray(t) - self.t_center) / self.t_width)

    def time_deriv(self, t):
        return _bump_deriv((np.asarray(t) - self.t_center) / self.t_width) / self.t_width

    def check_interior(self, grid: Grid, t_end: float) -> None:
        lo, hi = self.t_support
        if lo < 0.0 or hi > t_end:
            raise ValueError(
                f"time support ({lo}, {hi}) exceeds the trajectory horizon [0, {t_end}]")
        for k in range(grid.d):
            # one cell, less 4 ulps of the coordinates for the rounding of c +- w
            margin = grid.spacing[k]
            slack = 4.0 * math.ulp(max(abs(grid.lower[k]), abs(grid.upper[k])))
            if (self.centers[k] - self.widths[k] < grid.lower[k] + margin - slack
                    or self.centers[k] + self.widths[k] > grid.upper[k] - margin + slack):
                raise ValueError("space support must avoid the boundary by one cell")

    def cell_integrals(self, grid: Grid) -> tuple:
        """Exact per-cell integrals of phi and of grad(phi).

        Returns (P, G): P has shape counts and holds the cell integral
        of the space factor, the outer product of the per-axis integrals;
        G has shape counts + (d,), and G[..., k] holds the cell integrals
        of its k-th partial derivative, the same product with axis k's
        face jumps in place of its integrals.  Summing G along any axis
        telescopes to zero since the bump vanishes at the support boundary.
        """
        vals = []   # per-axis cell integrals of the 1D bump
        jumps = []  # per-axis differences b(right face) - b(left face)
        for k in range(grid.d):
            h = grid.spacing[k]
            faces = grid.lower[k] + h * np.arange(grid.counts[k] + 1)
            s = (faces - self.centers[k]) / self.widths[k]
            F = _bump_antideriv(s) * self.widths[k]
            vals.append(F[1:] - F[:-1])
            b = _bump(s)
            jumps.append(b[1:] - b[:-1])
        outer = functools.partial(functools.reduce, np.multiply.outer)
        G = [outer(vals[:k] + [jumps[k]] + vals[k + 1:]) for k in range(grid.d)]
        return outer(vals), np.stack(G, axis=-1)


def _place_centers(lo: float, hi: float, halfwidth: float, n: int) -> list:
    a, b = lo + halfwidth, hi - halfwidth
    return [a + i * (b - a) / (n - 1) for i in range(n)]


def default_dictionary(grid: Grid, t_end: float) -> tuple:
    """Multiscale bump dictionary: 24 scalar and 24 vector members.

    Three dyadic scales; at scale j the space bump half-width is a
    2^-j fraction of the interior, with {2, 4, 6} shifted centers on
    axis 0 (centred on the others) and two shifted time bumps each
    (2*(2+4+6) = 24).  Vector members reuse the bumps with the direction
    cycling through the axes.  The bumps need a positive horizon and an
    interior cell on every axis.
    """
    if t_end <= 0:
        raise ValueError(f"the test functions need a positive time horizon, got t_end={t_end} "
                         f"(a single sample)")
    if min(grid.counts) < 3:
        raise ValueError(f"the test functions need at least 3 cells on every axis, got "
                         f"counts {grid.counts}")
    d = grid.d
    t_lo, t_hi = 0.02 * t_end, 0.98 * t_end
    x_lo = [grid.lower[k] + grid.spacing[k] for k in range(d)]
    x_hi = [grid.upper[k] - grid.spacing[k] for k in range(d)]
    mid = tuple(0.5 * (x_lo[k] + x_hi[k]) for k in range(1, d))  # centres off axis 0
    scalars = []
    for j, n_centers in zip((1, 2, 3), (2, 4, 6)):
        tw = 0.5 * (t_hi - t_lo) * 0.5**j
        widths = tuple(0.5 * (x_hi[k] - x_lo[k]) * 0.5**j for k in range(d))
        c0s = _place_centers(x_lo[0], x_hi[0], widths[0], n_centers)
        scalars += [TestFunction(tc, tw, (c0,) + mid, widths)
                    for tc in _place_centers(t_lo, t_hi, tw, 2) for c0 in c0s]
    vectors = [TestFunction(phi.t_center, phi.t_width, phi.centers, phi.widths,
                            direction=i % d)
               for i, phi in enumerate(scalars)]
    return scalars + vectors


# -- weak-form residuals ----------------------------------------------

def _time_integral(times: np.ndarray, A: np.ndarray, B: np.ndarray,
                   phi: TestFunction, k0: int, k1: int) -> float:
    """Integral of psi' A + psi B over [t_k0, t_k1] minus [psi A] between
    them, psi the time bump of phi, A and B piecewise linear in time.

    Sample windows are split at the bump's support edges so that every
    Gauss panel sees a genuine polynomial integrand and the quadrature
    is exact (the time bump is only piecewise polynomial across the
    edges).
    """
    lo, hi = phi.t_support
    total = 0.0
    for k in range(k0, k1):
        a, b = times[k], times[k + 1]
        cuts = [a] + [c for c in (lo, hi) if a < c < b] + [b]
        for a_, b_ in zip(cuts[:-1], cuts[1:]):
            half = 0.5 * (b_ - a_)
            tq = 0.5 * (a_ + b_) + half * _GAUSS_X
            theta = (tq - a) / (b - a)
            Aq = (1.0 - theta) * A[k] + theta * A[k + 1]
            Bq = (1.0 - theta) * B[k] + theta * B[k + 1]
            vals = phi.time_deriv(tq) * Aq + phi.time_value(tq) * Bq
            total += half * float(np.dot(_GAUSS_W, vals))
    return total - (float(phi.time_value(times[k1])) * A[k1]
                    - float(phi.time_value(times[k0])) * A[k0])


def _weak_residuals(traj: Trajectory, phis, pairing) -> np.ndarray:
    """``_time_integral`` of each test function of the sequence ``phis``,
    where pairing(k) prepares sample k once and pairing(k)(phi, P, G) gives
    its spatial pairings (A, B) with the cell integrals P of phi and G of
    grad(phi).  Functions that share a space bump (centres and widths)
    share one (P, G).  check_interior keeps each support inside [0, t_end]."""
    integrals = {}  # (centers, widths) -> (P, G)
    windows = []  # (phi, k0, k1, P, G) of each function
    tol = sample_time_tol(traj.t_end)
    for phi in phis:
        phi.check_interior(traj.grid, traj.t_end)
        lo, hi = phi.t_support
        k0 = max(int(np.searchsorted(traj.times, lo + tol, side="right") - 1), 0)
        k1 = min(int(np.searchsorted(traj.times, hi - tol, side="left")), traj.n_samples - 1)
        bump = (phi.centers, phi.widths)
        if bump not in integrals:
            integrals[bump] = phi.cell_integrals(traj.grid)
        windows.append((phi, k0, k1) + integrals[bump])
    A, B = np.zeros((2, len(windows), traj.n_samples))
    for k in range(traj.n_samples):
        live = [(j, w) for j, w in enumerate(windows) if w[1] <= k <= w[2]]
        if live:
            pair = pairing(k)
            for j, (phi, _, _, P, G) in live:
                A[j, k], B[j, k] = pair(phi, P, G)
    return np.array([_time_integral(traj.times, a, b, phi, k0, k1)
                     for a, b, (phi, k0, k1, _, _) in zip(A, B, windows)])


def continuity_residual(traj: Trajectory, phis) -> np.ndarray:
    """Weak-form imbalance of mass conservation against each scalar test
    function of the sequence ``phis``, one value per function.

    Evaluates  int int [rho dphi/dt + m . grad phi] dx dt
               - [int rho phi dx] between the support endpoints,
    which vanishes for exact weak solutions as the grid refines.
    """
    if any(phi.direction is not None for phi in phis):
        raise ValueError("continuity residual takes scalar test functions")
    return _weak_residuals(traj, phis, lambda k: lambda phi, P, G: (np.sum(traj.rho[k] * P),
                                                                    np.sum(traj.m[k] * G)))


def momentum_residual(traj: Trajectory, phis, R: ReynoldsField | None) -> np.ndarray:
    """Weak-form imbalance of the stress-augmented momentum balance against
    each vector test function of the sequence ``phis``, one value per function.

    Evaluates  int int [m . dphi/dt + 1_{rho>0} (m x m / rho) : grad phi
               + p(rho) div phi] dx dt + int int grad phi : R dx dt
               - [int m . phi dx] between the support endpoints.
    """
    if any(phi.direction is None for phi in phis):
        raise ValueError("momentum residual takes vector test functions")
    if R is not None:
        require_shared(traj, R)

    def pairing(k):
        rho, m = traj.rho[k], traj.m[k]
        kin, p = kinetic_tensor(rho, m), pressure(rho, traj.law)

        def pair(phi, P, G):
            i = phi.direction
            flux = float(np.sum(kin[..., i, :] * G))
            flux += float(np.sum(p * G[..., i]))
            if R is not None:
                flux += float(np.sum(R.tensor[k][..., i, :] * G))
            return np.sum(m[..., i] * P), flux
        return pair

    return _weak_residuals(traj, phis, pairing)


# -- ensembles and the energy defect ----------------------------------

def estimate_reynolds(members) -> tuple:
    """Reynolds stress of an equal-weight ensemble of trajectories.

    Per cell and sample time,

        R = avg(1_{rho>0} m x m / rho) - (mbar x mbar)/rhobar
            + (avg p(rho) - p(rhobar)) * I,

    the convexity gap of the flux under averaging; it is positive
    semi-definite and vanishes iff the members coincide.  Also returns
    the averaged trajectory (rhobar, mbar, averaged energy curve).
    ``members`` is any iterable of trajectories, which must share grid,
    gas law and sample times.  It is consumed one member at a time and no
    member is kept, so a generator such as :func:`run`'s holds one at a
    time here.  Each member is summed into the outputs as it comes, from
    +0 in member order, and the sums are divided by the count at the end;
    a member's kinetic tensor is formed one sample at a time.  The
    pressure sums take the stress's (1, 0) entries in 2D, which equal the
    (0, 1) entries bit for bit until the gap is formed, and a field of
    their own in 1D, where the stress has no spare entry.
    """
    K = 0
    for tr in members:
        if K == 0:
            law, d = tr.law, tr.grid.d
            shared = SimpleNamespace(grid=tr.grid, law=law, times=tr.times)
            rho_bar = np.zeros(tr.rho.shape)  # not np.empty: see solver.March
            m_bar = np.zeros(tr.m.shape)
            tensor = np.zeros(tr.m.shape + (d,))
            p_sum = tensor[..., 1, 0] if d == 2 else np.zeros(tr.rho.shape)
            energy = e0 = 0.0
        else:
            require_shared(shared, tr)
        K += 1
        rho_bar += tr.rho
        m_bar += tr.m
        for k in range(len(tensor)):
            kin = kinetic_tensor(tr.rho[k], tr.m[k])
            if d == 2:
                kin[..., 1, 0] = pressure(tr.rho[k], law)
            else:
                p_sum[k] += pressure(tr.rho[k], law)
            tensor[k] += kin
            del kin  # freed before the next sample's is made
        energy += tr.energy
        e0 += tr.e0
        del tr  # not held while the next member is made
    if K == 0:
        raise ValueError("ensemble must contain at least one member")
    for total in (rho_bar, m_bar, tensor, energy):
        total /= K
    if d == 1:
        p_sum /= K
    for k in range(len(tensor)):
        pbar = p_sum[k].copy()  # in 2D its entries are overwritten next
        if d == 2:
            tensor[k][..., 1, 0] = tensor[k][..., 0, 1]
        convexity_gap(tensor[k], pbar, rho_bar[k], m_bar[k], law)
    del pbar
    avg = Trajectory(shared.grid, law, shared.times, (rho_bar, m_bar), energy, e0=e0 / K)
    return ReynoldsField(shared.grid, shared.times.copy(), tensor), avg


def reset_defects(triple: DataTriple, specs, law: GasLaw, t_end: float, sample_dt: float,
                  delta: float) -> tuple:
    """Stopping-time/reset loop keeping the energy defect at most delta.

    The average of the "budget" ensemble marched from ``triple`` under
    ``specs`` accumulates the scheme's dissipation as its defect.  At the
    first sample time T whose defect exceeds delta, the energy is reset
    to the mean energy and a new ensemble continues from the average's
    state there; the pieces are joined by ``defect_reset``.  Returns the
    joined trajectory and the reset times.

    A window is marched only up to the first sample whose averaged
    defect, formed with ``estimate_reynolds``'s arithmetic, exceeds
    delta: the defect at a sample depends on no later one.  Its members
    are truncated there and averaged by ``estimate_reynolds``;
    ``stopping_time`` judges T.  The loop makes at most n + 3 resets
    (n = t_end / sample_dt); the window of the last one is marched to
    t_end whatever its defect.
    """
    def window(start: DataTriple, horizon: float, last: bool) -> Trajectory:
        march, K = March(start, specs, law, horizon, sample_dt, "budget"), len(specs)
        # a "budget" member's energy is its start state's mean energy throughout
        # (NumPy scalars: from Python 3.12 on, ``sum`` compensates Python floats)
        energy = sum(np.full(K, integrate_energy(start.state0, law))) / K
        for j in march:
            if last:
                continue
            rho, m = sum(r[j] for r in march.rho) / K, sum(x[j] for x in march.m) / K
            if energy - integrate_energies(march.grid, rho[None], m[None], law)[0] > delta:
                break
        return estimate_reynolds(march.members(j))[1]

    result = window(triple, t_end, False)
    resets = []
    guard = round(t_end / sample_dt) + 3
    while guard > 0:
        guard -= 1
        T = stopping_time(result, delta)
        if math.isinf(T):
            break
        k = result.index_of(T)
        state = result.states[k]
        mean_t = float(result.mean_energies[k])
        horizon = t_end - T
        if horizon <= 0.5 * sample_dt:
            cont = Trajectory(result.grid, law, [0.0], [state], [mean_t], e0=mean_t)
        else:
            cont = window(DataTriple(state, mean_t), horizon, guard == 0)
        result = defect_reset(result, T, cont)
        resets.append(float(T))
    if result.t_end < t_end - 0.5 * sample_dt:
        raise RuntimeError(f"the reset loop stopped at t={result.t_end} short of "
                           f"t_end={t_end}")
    return result, resets


def compatibility(traj: Trajectory, R: ReynoldsField | None) -> tuple:
    """Per-sample ``(defects, traces, slacks)`` of the compatibility
    inequality r * tr R <= D, with slack D - r * tr R; the traces are 0
    without a stress."""
    defects = traj.defects()
    traces = R.trace_integrals() if R is not None else np.zeros(traj.n_samples)
    return defects, traces, defects - defect_constant(traj.grid.d, traj.law) * traces


# -- certification ----------------------------------------------------

@dataclass
class DissipativeCertificate:
    checks: list            # (name, value, tolerance, passed) tuples
    passed: bool
    notes: list = field(default_factory=list)


@np.errstate(invalid="ignore", over="ignore")  # a non-finite input fails its checks
def certify(traj: Trajectory, R: ReynoldsField | None = None,
            residual_factor: float = 10.0) -> DissipativeCertificate:
    """Aggregate verification of all dissipative-solution conditions.

    Runs the default dictionary through the weak-form residuals, one pass
    per balance (and, given a stress, one more without it for a note),
    checks energy monotonicity, vacuum consistency, positive
    semi-definiteness of the stress and the defect-trace compatibility
    at every sample time.  Failures are recorded, never raised.

    With scale = max(1, |e0|), the residuals are held to residual_factor *
    min(grid spacing) * scale, the monotonicity, defect and slack checks to
    1e-10 * scale, and the stress's least eigenvalue to -1e-10 * its norm scale.
    A check whose value or tolerance is not finite fails.
    """
    if not (0.0 < residual_factor < math.inf):
        raise ValueError(f"residual_factor must be finite and positive, got {residual_factor}")
    scale = energy_scale(traj.e0)
    residual_tol = residual_factor * min(traj.grid.spacing) * scale
    round_off = 1e-10 * scale
    dictionary = default_dictionary(traj.grid, traj.t_end)
    notes = []
    # every reduction below is a NumPy max/min, so a NaN input turns the
    # check value NaN and the check fails instead of reading 0
    scalars = [phi for phi in dictionary if phi.direction is None]
    vectors = [phi for phi in dictionary if phi.direction is not None]
    cont = np.max(np.abs(continuity_residual(traj, scalars)), initial=0.0)
    mom = np.max(np.abs(momentum_residual(traj, vectors, R)), initial=0.0)
    mom_raw = 0.0
    if R is not None:
        mom_raw = np.max(np.abs(momentum_residual(traj, vectors, None)), initial=0.0)

    # energy monotonicity, including the initial jump
    diffs = np.diff(traj.energy, prepend=traj.e0)
    mono_violation = np.max(diffs, initial=0.0)

    # 1 when a vacuum cell carries momentum, NaN when a field is not finite
    if not (np.isfinite(traj.rho).all() and np.isfinite(traj.m).all()):
        vacuum = math.nan
    else:
        vacuum = float(np.any(traj.m[traj.rho == 0.0] != 0.0))

    defects, _, slacks = compatibility(traj, R)
    neg_excursion = np.max(-defects, initial=0.0)

    if R is not None:
        psd_margin = R.min_eigenvalue()
        psd_tol = 1e-10 * max(R.norm_scale(), 1e-300)
    else:
        psd_margin = 0.0
        psd_tol = 1e-10

    # (name, value, tolerance, lower): the value must be at most the
    # tolerance, or for a lower bound at least its negative
    rows = [
        ("continuity_residual", cont, residual_tol, False),
        ("momentum_residual", mom, residual_tol, False),
        ("energy_monotone", mono_violation, round_off, False),
        ("vacuum_consistency", vacuum, 0.0, False),
        ("stress_psd_margin", psd_margin, psd_tol, True),
        ("defect_nonnegative", neg_excursion, round_off, False),
        ("compatibility_slack", np.min(slacks), round_off, True),
    ]
    # a non-finite value or tolerance fails, so an infinite scale cannot pass
    checks = [(name, float(v), float(tol), math.isfinite(v) and math.isfinite(tol)
               and bool(v >= -tol if lower else v <= tol))
              for name, v, tol, lower in rows]
    if R is not None and mom_raw > 0:
        notes.append(f"momentum residual without the stress term: {mom_raw:.6e}")
    return DissipativeCertificate(checks, all(c[3] for c in checks), notes)


def certificate_doc(cert: DissipativeCertificate) -> dict:
    """The certificate as a strict-JSON document: a non-finite check value
    or tolerance is written as null."""
    def number(x):
        return x if math.isfinite(x) else None

    return {
        "passed": cert.passed,
        "checks": [{"name": n, "value": number(v), "tolerance": number(tol), "passed": ok}
                   for n, v, tol, ok in cert.checks],
        "notes": cert.notes,
    }


def save_defect_csv(path, traj: Trajectory, R: ReynoldsField | None) -> None:
    """Write the per-sample ``t,defect,traceR,slack`` table of ``compatibility``."""
    write_csv(path, ("t", "defect", "traceR", "slack"),
              [(traj.times, *compatibility(traj, R))])
