"""Quantitative checks of the dissipative-solution conditions.

The weak continuity and momentum balances are tested against a finite
dictionary of separable bump test functions.  Cell-averaged fields pair
with *exact* per-cell integrals of the test function, so identities
that rely on the divergence theorem (constant states, boundary terms)
cancel to round-off instead of leaving a quadrature footprint; in time,
the per-sample spatial pairings are reconstructed piecewise linearly
and integrated against the polynomial time bump exactly by fixed-order
Gauss quadrature.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .eos import defect_constant, pressure
from .fields import FluidState, Grid, write_csv
from .stress import ReynoldsField, kinetic_tensor
from .trajectory import Trajectory

__all__ = [
    "TestFunction",
    "default_dictionary",
    "continuity_residual",
    "momentum_residual",
    "estimate_reynolds",
    "energy_defect",
    "check_compatibility",
    "CompatibilityReport",
    "CertificateTolerances",
    "DissipativeCertificate",
    "certify",
    "certificate_to_json",
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
            margin = grid.spacing[k]
            if (self.centers[k] - self.widths[k] < grid.lower[k] + margin - 1e-12
                    or self.centers[k] + self.widths[k] > grid.upper[k] - margin + 1e-12):
                raise ValueError("space support must avoid the boundary by one cell")

    def cell_integrals(self, grid: Grid) -> tuple:
        """Exact per-cell integrals of phi and of grad(phi).

        Returns (P, G): P has shape counts and holds the cell integral
        of the space factor; G has shape counts + (d,) and holds the
        cell integrals of its spatial gradient.  Summing G along any
        axis telescopes to zero since the bump vanishes at the support
        boundary.
        """
        d = grid.d
        vals = []   # per-axis cell integrals of the 1D bump
        jumps = []  # per-axis differences b(right face) - b(left face)
        for k in range(d):
            h = grid.spacing[k]
            faces = grid.lower[k] + h * np.arange(grid.counts[k] + 1)
            s = (faces - self.centers[k]) / self.widths[k]
            F = _bump_antideriv(s) * self.widths[k]
            vals.append(F[1:] - F[:-1])
            b = _bump(s)
            jumps.append(b[1:] - b[:-1])
        if d == 1:
            P = vals[0]
            G = jumps[0][:, None]
        else:
            P = vals[0][:, None] * vals[1][None, :]
            G = np.empty(grid.counts + (2,))
            G[..., 0] = jumps[0][:, None] * vals[1][None, :]
            G[..., 1] = vals[0][:, None] * jumps[1][None, :]
        return P, G


def _place_centers(lo: float, hi: float, halfwidth: float, n: int) -> list:
    if 2.0 * halfwidth > hi - lo:
        raise ValueError("bump does not fit inside the interval")
    if n == 1:
        return [0.5 * (lo + hi)]
    a, b = lo + halfwidth, hi - halfwidth
    return [a + i * (b - a) / (n - 1) for i in range(n)]


def default_dictionary(grid: Grid, t_end: float) -> tuple:
    """Multiscale bump dictionary: 24 scalar and 24 vector members.

    Three dyadic scales; at scale j the space bump half-width is a
    2^-j fraction of the interior, with {2, 4, 6} shifted centers and
    two shifted time bumps each (2*(2+4+6) = 24).  Vector members reuse
    the bumps with the direction cycling through the axes.
    """
    d = grid.d
    t_lo, t_hi = 0.02 * t_end, 0.98 * t_end
    x_lo = [grid.lower[k] + grid.spacing[k] for k in range(d)]
    x_hi = [grid.upper[k] - grid.spacing[k] for k in range(d)]
    scalars = []
    for j, n_centers in zip((1, 2, 3), (2, 4, 6)):
        tw = 0.5 * (t_hi - t_lo) * 0.5**j
        t_centers = _place_centers(t_lo, t_hi, tw, 2)
        w0 = 0.5 * (x_hi[0] - x_lo[0]) * 0.5**j
        c0s = _place_centers(x_lo[0], x_hi[0], w0, n_centers)
        if d == 2:
            w1 = 0.5 * (x_hi[1] - x_lo[1]) * 0.5**j
            c1 = 0.5 * (x_lo[1] + x_hi[1])
        for tc in t_centers:
            for c0 in c0s:
                if d == 1:
                    scalars.append(TestFunction(tc, tw, (c0,), (w0,)))
                else:
                    scalars.append(TestFunction(tc, tw, (c0, c1), (w0, w1)))
    vectors = [TestFunction(phi.t_center, phi.t_width, phi.centers, phi.widths,
                            direction=i % d)
               for i, phi in enumerate(scalars)]
    return scalars + vectors


# -- weak-form residuals ----------------------------------------------

def _time_window(traj: Trajectory, phi: TestFunction) -> tuple:
    lo, hi = phi.t_support
    if lo < -1e-12 or hi > traj.t_end + 1e-12:
        raise ValueError(
            f"test-function support ({lo}, {hi}) exceeds the horizon [0, {traj.t_end}]")
    k0 = int(np.searchsorted(traj.times, lo + 1e-14, side="right") - 1)
    k1 = int(np.searchsorted(traj.times, hi - 1e-14, side="left"))
    return max(k0, 0), min(k1, traj.n_samples - 1)


def _time_integral(times: np.ndarray, A: np.ndarray, B: np.ndarray,
                   phi: TestFunction, k0: int, k1: int) -> float:
    """Integral of psi'(t) A(t) + psi(t) B(t) over [t_k0, t_k1] with the
    coefficients A, B piecewise linear between samples.

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
    return total


def continuity_residual(traj: Trajectory, phi: TestFunction) -> float:
    """Weak-form imbalance of mass conservation against one test function.

    Evaluates  int int [rho dphi/dt + m . grad phi] dx dt
               - [int rho phi dx] between the support endpoints,
    which vanishes for exact weak solutions as the grid refines.
    """
    if phi.direction is not None:
        raise ValueError("continuity residual takes a scalar test function")
    phi.check_interior(traj.grid, traj.t_end)
    k0, k1 = _time_window(traj, phi)
    P, G = phi.cell_integrals(traj.grid)
    n = traj.n_samples
    A = np.zeros(n)
    B = np.zeros(n)
    for k in range(k0, k1 + 1):
        s = traj.states[k]
        A[k] = float(np.sum(s.rho * P))
        B[k] = float(np.sum(s.m * G))
    interior = _time_integral(traj.times, A, B, phi, k0, k1)
    boundary = (float(phi.time_value(traj.times[k1])) * A[k1]
                - float(phi.time_value(traj.times[k0])) * A[k0])
    return interior - boundary


def momentum_residual(traj: Trajectory, phi: TestFunction,
                      R: ReynoldsField | None) -> float:
    """Weak-form imbalance of the stress-augmented momentum balance.

    Evaluates  int int [m . dphi/dt + 1_{rho>0} (m x m / rho) : grad phi
               + p(rho) div phi] dx dt + int int grad phi : R dx dt
               - [int m . phi dx] between the support endpoints.
    """
    if phi.direction is None:
        raise ValueError("momentum residual takes a vector test function")
    phi.check_interior(traj.grid, traj.t_end)
    if R is not None:
        if R.grid.counts != traj.grid.counts or len(R.times) != traj.n_samples:
            raise ValueError("Reynolds field does not match the trajectory discretization")
        if np.max(np.abs(R.times - traj.times)) > 1e-9 * max(1.0, traj.t_end):
            raise ValueError("Reynolds field sample times do not match the trajectory")
    k0, k1 = _time_window(traj, phi)
    P, G = phi.cell_integrals(traj.grid)
    dir_ = phi.direction
    n = traj.n_samples
    A = np.zeros(n)
    B = np.zeros(n)
    for k in range(k0, k1 + 1):
        s = traj.states[k]
        A[k] = float(np.sum(s.m[..., dir_] * P))
        kin = kinetic_tensor(s.rho, s.m)
        flux = float(np.sum(kin[..., dir_, :] * G))
        flux += float(np.sum(pressure(s.rho, traj.law) * G[..., dir_]))
        if R is not None:
            flux += float(np.sum(R.tensor[k][..., dir_, :] * G))
        B[k] = flux
    interior = _time_integral(traj.times, A, B, phi, k0, k1)
    boundary = (float(phi.time_value(traj.times[k1])) * A[k1]
                - float(phi.time_value(traj.times[k0])) * A[k0])
    return interior - boundary


# -- ensembles and the energy defect ----------------------------------

def estimate_reynolds(ensemble: list) -> tuple:
    """Reynolds stress of an equal-weight ensemble of trajectories.

    Per cell and sample time,

        R = avg(1_{rho>0} m x m / rho) - (mbar x mbar)/rhobar
            + (avg p(rho) - p(rhobar)) * I,

    the convexity gap of the flux under averaging; it is positive
    semi-definite and vanishes iff the members coincide.  Also returns
    the averaged trajectory (rhobar, mbar, averaged energy curve).
    All members must share one gas law.
    """
    if not ensemble:
        raise ValueError("ensemble must contain at least one member")
    base = ensemble[0]
    law = base.law
    for tr in ensemble[1:]:
        if tr.grid.counts != base.grid.counts or tr.grid.lower != base.grid.lower:
            raise ValueError("ensemble members live on different grids")
        if tr.law != law:
            raise ValueError("ensemble members have different gas laws")
        if tr.n_samples != base.n_samples or np.max(np.abs(tr.times - base.times)) > 1e-9:
            raise ValueError("ensemble members have different sample times")
    K = len(ensemble)
    d = base.grid.d
    eye = np.eye(d)
    tensor = np.zeros((base.n_samples,) + base.grid.counts + (d, d))
    states = []
    for k in range(base.n_samples):
        rho_bar = sum(tr.states[k].rho for tr in ensemble) / K
        m_bar = sum(tr.states[k].m for tr in ensemble) / K
        kin = sum(kinetic_tensor(tr.states[k].rho, tr.states[k].m)
                  for tr in ensemble) / K
        pbar = sum(pressure(tr.states[k].rho, law) for tr in ensemble) / K
        tensor[k] = (kin - kinetic_tensor(rho_bar, m_bar)
                     + (pbar - pressure(rho_bar, law))[..., None, None] * eye)
        states.append(FluidState(base.grid, rho_bar, m_bar, check=False))
    energy = sum(tr.energy for tr in ensemble) / K
    e0 = sum(tr.e0 for tr in ensemble) / K
    avg = Trajectory(base.grid, law, base.times, states, energy, e0=e0)
    return ReynoldsField(base.grid, base.times.copy(), tensor), avg


def energy_defect(traj: Trajectory, t: float) -> float:
    """Energy defect E(t+) - mean energy at a sample time, clamped at 0.

    A NaN defect stays NaN.  Negative excursions beyond the tolerance
    indicate a broken energy bookkeeping; certify() reports them as
    failures.
    """
    k = traj.index_of(t)
    return float(np.maximum(0.0, traj.defects()[k]))


@dataclass
class CompatibilityReport:
    t: float
    defect: float
    trace_integral: float
    slack: float
    passed: bool


def check_compatibility(traj: Trajectory, R: ReynoldsField | None, t: float = 0.0,
                        r_override: float | None = None) -> CompatibilityReport:
    """Slack of the defect-versus-stress-trace inequality at one time."""
    k = traj.index_of(t)
    r = defect_constant(traj.grid.d, traj.law, override=r_override)
    defect = float(traj.defects()[k])
    trace = R.trace_integral(k) if R is not None else 0.0
    slack = defect - r * trace
    return CompatibilityReport(float(traj.times[k]), defect, trace, slack,
                               slack >= -1e-10 * max(1.0, abs(traj.e0)))


# -- certification ----------------------------------------------------

@dataclass
class CertificateTolerances:
    residual: float = 1e-10
    energy_monotone: float = 1e-10
    defect_negative: float = 1e-10
    psd_factor: float = 1e-10
    slack: float = 1e-10

    @staticmethod
    def for_trajectory(traj: Trajectory, residual_factor: float = 10.0) -> "CertificateTolerances":
        """Default tolerances scaled to the grid spacing and energy size."""
        scale = max(1.0, abs(traj.e0))
        dx = min(traj.grid.spacing)
        return CertificateTolerances(
            residual=residual_factor * dx * scale,
            energy_monotone=1e-10 * scale,
            defect_negative=1e-10 * scale,
            psd_factor=1e-10,
            slack=1e-10 * scale,
        )


@dataclass
class DissipativeCertificate:
    checks: list            # (name, value, tolerance, passed) tuples
    times: np.ndarray
    defects: np.ndarray
    traces: np.ndarray
    slacks: np.ndarray
    passed: bool
    notes: list = field(default_factory=list)

    def check(self, name: str):
        for c in self.checks:
            if c[0] == name:
                return c
        raise KeyError(name)


def certify(traj: Trajectory, R: ReynoldsField | None = None,
            tolerances: CertificateTolerances | None = None) -> DissipativeCertificate:
    """Aggregate verification of all dissipative-solution conditions.

    Runs every member of the default dictionary through the weak-form
    residuals, checks energy monotonicity, vacuum consistency, positive
    semi-definiteness of the stress and the defect-trace compatibility
    at every sample time.  Failures are recorded, never raised.
    """
    if tolerances is None:
        tolerances = CertificateTolerances.for_trajectory(traj)
    dictionary = default_dictionary(traj.grid, traj.t_end)
    notes = []
    # every reduction below is a NumPy max/min, so a NaN input turns the
    # check value NaN and the check fails instead of reading 0
    scalars = [phi for phi in dictionary if phi.direction is None]
    vectors = [phi for phi in dictionary if phi.direction is not None]
    cont = np.max([abs(continuity_residual(traj, phi)) for phi in scalars], initial=0.0)
    mom = np.max([abs(momentum_residual(traj, phi, R)) for phi in vectors], initial=0.0)
    mom_raw = 0.0
    if R is not None:
        mom_raw = np.max([abs(momentum_residual(traj, phi, None)) for phi in vectors],
                         initial=0.0)

    # energy monotonicity, including the initial jump
    diffs = np.diff(traj.energy, prepend=traj.e0)
    mono_violation = float(np.max(diffs, initial=0.0))

    # 1 when a vacuum cell carries momentum, NaN when a field is not finite
    vacuum = 0.0
    for s in traj.states:
        if not (np.all(np.isfinite(s.rho)) and np.all(np.isfinite(s.m))):
            vacuum = math.nan
            break
        if np.any(s.m[s.rho == 0.0] != 0.0):
            vacuum = 1.0

    defects = traj.defects()
    neg_excursion = float(np.max(-defects, initial=0.0))

    if R is not None:
        psd_margin = R.min_eigenvalue()
        psd_tol = tolerances.psd_factor * max(R.norm_scale(), 1e-300)
        traces = R.trace_integrals()
    else:
        psd_margin = 0.0
        psd_tol = tolerances.psd_factor
        traces = np.zeros(traj.n_samples)

    slacks = defects - defect_constant(traj.grid.d, traj.law) * traces

    checks = [
        ("continuity_residual", float(cont), float(tolerances.residual),
         bool(cont <= tolerances.residual)),
        ("momentum_residual", float(mom), float(tolerances.residual),
         bool(mom <= tolerances.residual)),
        ("energy_monotone", float(mono_violation), float(tolerances.energy_monotone),
         bool(mono_violation <= tolerances.energy_monotone)),
        ("vacuum_consistency", vacuum, 0.0, vacuum == 0.0),
        ("stress_psd_margin", float(psd_margin), float(psd_tol),
         bool(psd_margin >= -psd_tol)),
        ("defect_nonnegative", float(neg_excursion), float(tolerances.defect_negative),
         bool(neg_excursion <= tolerances.defect_negative)),
        ("compatibility_slack", float(np.min(slacks)), float(tolerances.slack),
         bool(np.min(slacks) >= -tolerances.slack)),
    ]
    if R is not None and mom_raw > 0:
        notes.append(f"momentum residual without the stress term: {mom_raw:.6e}")
    passed = all(c[3] for c in checks)
    return DissipativeCertificate(checks, traj.times.copy(), defects, traces,
                                  slacks, passed, notes)


def _json_number(x: float):
    return x if math.isfinite(x) else None


def certificate_to_json(cert: DissipativeCertificate) -> str:
    """Strict JSON: a non-finite check value or tolerance is written as null."""
    doc = {
        "passed": cert.passed,
        "checks": [
            {"name": n, "value": _json_number(v), "tolerance": _json_number(tol), "passed": ok}
            for n, v, tol, ok in cert.checks
        ],
        "notes": cert.notes,
    }
    return json.dumps(doc, indent=1, sort_keys=True, allow_nan=False) + "\n"


def save_defect_csv(path, times, defects, traces, slacks) -> None:
    """Write the per-sample ``t,defect,traceR,slack`` table."""
    write_csv(path, ("t", "defect", "traceR", "slack"), (times, defects, traces, slacks))
