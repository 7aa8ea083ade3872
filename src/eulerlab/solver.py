"""Finite-volume approximation of the barotropic Euler system.

Conservative update with a choice of two interface fluxes (local
Lax-Friedrichs and HLL) plus an artificial-viscosity dial: the term
nu * dx * Laplacian of the conserved variables enters through the
diffusive interface flux -nu * (U_R - U_L).  Varying nu produces the
vanishing-viscosity families the ensemble diagnostics consume.

A ``March`` marches a whole family one sample at a time, and ``run``
drains one.  The live members' fields are stacked along a leading
member axis, ``rho`` (K, *counts) and ``m`` (K, *counts, d), and each
iteration is one ``stable_dt`` and one ``step`` call on that stack.  The
members share the flux; each keeps its own viscosity, CFL number, clock,
dt and sample index, and a member that has taken its last sample is
dropped from the stack.  A stack holds at most
``max(1, _STACK_CELLS // cells)`` members; further members march in
further stacks.  Each stack's march is a generator that yields once
all its members have taken the next sample, and the stacks advance in
turn, so a consumer that has what it needs at sample j stops there and
no stack marches past it.  ``step`` and ``stable_dt`` on a plain
``FluidState`` are the one-member case of the same kernel, with the
same results and messages.

A stack owns its primitives: ``_Members`` computes velocity, sound speed
and the per-axis maximal wave speeds once, when it is built (``step``
builds the next one), and ``stable_dt``, ``step``'s re-check of the CFL
bound and the flux pass all read them.  Each axis sweep ghost-extends
(rho, m, u, c) and evaluates pressure and physical flux once per cell
of the extension; the left and right states of every interface are
views into it.

``step`` rejects a dt above the bound and a NaN dt; ``run`` rejects a
stable dt below its clock tolerance.  Negative densities and non-finite
values abort with the offending cell named, and on a stack with the
member and its viscosity; there is no positivity limiter, since a silent
fix would corrupt every defect measurement downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .eos import GasLaw, pressure, sound_speed
from .fields import DataTriple, FluidState, integrate_energies, validate_initial_data
from .trajectory import Trajectory

__all__ = ["SchemeSpec", "CFLViolation", "stable_dt", "step", "March", "run"]

FLUX_KINDS = ("llf", "hll")
ENERGY_MODES = ("envelope", "budget")
# cells of one stack: ``run`` marches max(1, _STACK_CELLS // cells) members
# at a time.  A stack saves per-call overhead, which dominates on small
# grids; beyond about 3000 cells a stacked 1D or 2D step costs more per
# member than separate ones (measured: 3 x 1024 and 2 x 1536 cells won,
# 2 x 2048, 3 x 1536 and 2 x 48 x 48 lost)
_STACK_CELLS = 3072


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
        if not (self.nu >= 0 and math.isfinite(self.nu)):
            raise ValueError(f"viscosity coefficient nu must be finite and nonnegative, "
                             f"got {self.nu}")
        if not (0.0 < self.cfl <= 1.0):
            raise ValueError("CFL number must lie in (0, 1]")


class _Members:
    """The live members of ``run``'s march: ``rho`` (K, *counts) and ``m``
    (K, *counts, d) on one grid, ``ids``, each row's position in ``run``'s
    list of schemes (None for a lone state), and the primitives under
    ``law``: velocity ``u``, sound speed ``c`` and, per cell axis k, the
    list of each member's maximal wave speed ``max|u_k| + c``.  ``stable_dt``
    and ``step`` on a stack must be given the law it was built under."""

    __slots__ = ("grid", "rho", "m", "ids", "u", "c", "speeds")

    def __init__(self, grid, rho, m, ids, law: GasLaw):
        self.grid, self.rho, self.m, self.ids = grid, rho, m, ids
        self.u = np.divide(m, rho[..., None], out=np.zeros_like(m), where=(rho > 0)[..., None])
        self.c = sound_speed(rho, law)
        cells = tuple(range(1, rho.ndim))
        self.speeds = [(np.abs(self.u[..., k]) + self.c).max(axis=cells).tolist()
                       for k in range(grid.d)]


def _members(state, spec, law: GasLaw):
    """``state`` as a stack and one scheme per row: a ``FluidState`` is
    wrapped as a stack of one under ``law``."""
    if isinstance(state, FluidState):
        return _Members(state.grid, state.rho[None], state.m[None], None, law), (spec,)
    return state, spec


def _member(stack: _Members, specs, j: int) -> str:
    """Message prefix naming row ``j`` of a stack; empty for a lone state."""
    if stack.ids is None:
        return ""
    return f"member {stack.ids[j]} (nu={specs[j].nu}) failed: "


def stable_dt(state, spec, law: GasLaw):
    """CFL-stable time step, viscosity included in the speed budget.

    A float for a ``FluidState`` and its ``SchemeSpec``; for ``run``'s
    stack and one spec per member, an array of one dt per member.
    """
    stack, specs = _members(state, spec, law)
    dt = []
    for j, s in enumerate(specs):
        rate = 0.0
        for s_k, h in zip(stack.speeds, stack.grid.spacing):
            rate += (s_k[j] + 2.0 * s.nu) / h
        dt.append(math.inf if rate == 0.0 else s.cfl / rate)
    return dt[0] if stack.ids is None else np.array(dt)


def _extend(rho, m, u, c, axis: int, boundary: str):
    """Ghost-extend rho, m, the normal velocity and the sound speed (member
    axis first) by one cell per side along cell ``axis``: indices -1 and n
    wrap round (periodic) or clip to the edge cell, the mirror cell of a
    reflective wall, whose normal momentum and velocity are negated."""
    index = np.arange(-1, rho.shape[axis + 1] + 1)
    mode = "wrap" if boundary == "periodic" else "clip"
    rho, m, un, c = (a.take(index, axis + 1, mode=mode) for a in (rho, m, u[..., axis], c))
    if boundary == "reflective":
        # the two ghost cells, 0 and n + 1, as one strided view
        wall = (slice(None),) * (axis + 1) + (slice(None, None, len(index) - 1),)
        m[wall + (..., axis)] *= -1.0
        # a vacuum ghost keeps velocity +0.0, not the -0.0 of a negation.
        # Not in place (out=g): NumPy 2.4 then writes wrong elements of
        # this strided view when the member axis has length 1
        g = un[wall]
        un[wall] = np.negative(g, out=np.zeros_like(g), where=rho[wall] > 0)
    return rho, m, un, c


def _interface_flux(rho, m, un, c, law, flux, nu, axis):
    """Numerical flux between cells j and j + 1 of ghost-extended (rho, m,
    un, c), whose first axis is the swept one; the physical flux is
    evaluated once per cell.  ``nu`` is the viscosity at each interface.

    The arithmetic is written in place to keep temporaries few; each line
    keeps the order of operations of the formula in its comment."""
    f_rho = m[..., axis]
    f_m = m * un[..., None]
    f_m[..., axis] += pressure(rho, law)
    fl_rho, fr_rho, fl_m, fr_m = f_rho[:-1], f_rho[1:], f_m[:-1], f_m[1:]
    d_rho = rho[1:] - rho[:-1]
    d_m = m[1:] - m[:-1]
    if flux == "llf":
        # 0.5 (F_L + F_R) - 0.5 s (U_R - U_L)
        a = np.abs(un)
        a += c
        s = np.maximum(a[:-1], a[1:])
        s *= 0.5
        f_rho = fl_rho + fr_rho
        f_rho *= 0.5
        f_rho -= s * d_rho
        f_m = fl_m + fr_m
        f_m *= 0.5
        f_m -= s[..., None] * d_m
    else:  # hll: (s_R F_L - s_L F_R + s_L s_R (U_R - U_L)) / (s_R - s_L)
        lo, hi = un - c, un + c
        sl = np.minimum(lo[:-1], lo[1:])
        np.minimum(sl, 0.0, out=sl)
        sr = np.maximum(hi[:-1], hi[1:])
        np.maximum(sr, 0.0, out=sr)
        den = sr - sl
        den = np.where(den > 0, den, 1.0)
        ss = sl * sr
        f_rho = sr * fl_rho
        f_rho -= sl * fr_rho
        f_rho += ss * d_rho
        f_rho /= den
        f_m = sr[..., None] * fl_m
        f_m -= sl[..., None] * fr_m
        f_m += ss[..., None] * d_m
        f_m /= den[..., None]
    viscous = nu > 0
    if viscous.any():
        d_rho *= nu
        d_m *= nu[..., None]
        if viscous.all():
            f_rho -= d_rho
            f_m -= d_m
        else:  # skipped where nu = 0: f - 0.0 * x turns a -0.0 flux into +0.0
            np.subtract(f_rho, d_rho, out=f_rho, where=viscous)
            np.subtract(f_m, d_m, out=f_m, where=viscous[..., None])
    return f_rho, f_m


def _difference(f, shape):
    """``f[j] - f[j - 1]`` at each cell j of a merged ghost-extended array,
    from its fluxes ``f`` between cells j and j + 1, reshaped to the
    extended ``shape``; the values at the ghost cells are not set."""
    d = np.empty((len(f) + 1,) + f.shape[1:])
    np.subtract(f[1:], f[:-1], out=d[1:-1])
    return d.reshape(shape)


def step(state, spec, law: GasLaw, dt):
    """One conservative update by dt; dt must satisfy the CFL bound.

    ``state`` is a ``FluidState`` with one ``SchemeSpec`` and a float dt,
    or ``run``'s stack of members with one spec and one dt per member;
    the specs of a stack share the flux.
    """
    stack, specs = _members(state, spec, law)
    dt_max = stable_dt(stack, specs, law)
    rho, m = stack.rho, stack.m
    dt = np.asarray(dt, dtype=float).reshape(-1)
    ok = dt <= np.multiply(dt_max, 1.0 + 1e-12)  # also rejects a NaN dt or bound
    if not ok.all():
        j = int(np.argmin(ok))
        raise CFLViolation(f"{_member(stack, specs, j)}dt={dt[j]} exceeds the stable "
                           f"bound {np.reshape(dt_max, -1)[j]}")
    grid = stack.grid
    nu = np.array([s.nu for s in specs])
    member = (len(specs),) + (1,) * grid.d  # shape of a per-member factor
    rho_new = rho.copy()
    m_new = m.copy()
    for axis, (h, boundary) in enumerate(zip(grid.spacing, grid.boundary)):
        ext = _extend(rho, m, stack.u, stack.c, axis, boundary)
        # merge the member axis and the cell axes up to the swept one, so
        # that every array op runs on contiguous memory; the fluxes between
        # two merged rows are computed and never used
        rho_x, m_x, un_x, c_x = (a.reshape((-1,) + a.shape[axis + 2:]) for a in ext)
        nu_x = nu  # one member: broadcasts as it is
        if len(nu) > 1:  # one value per interface of the merged axis
            nu_x = np.repeat(nu, len(rho_x) // len(nu))[:-1].reshape(
                (-1,) + (1,) * (grid.d - 1 - axis))
        f_rho, f_m = _interface_flux(rho_x, m_x, un_x, c_x, law, specs[0].flux, nu_x, axis)
        rate = (dt / h).reshape(member)
        cells = (slice(None),) * (axis + 1) + (slice(1, -1),)
        d_rho = _difference(f_rho, ext[0].shape)[cells]
        d_rho *= rate
        rho_new -= d_rho
        d_m = _difference(f_m, ext[1].shape)[cells]
        d_m *= rate[..., None]
        m_new -= d_m
    if not (np.isfinite(rho_new).all() and np.isfinite(m_new).all()):
        bad = ~(np.isfinite(rho_new) & np.isfinite(m_new).all(axis=-1))
        j, *idx = (int(i) for i in np.unravel_index(int(np.argmax(bad)), bad.shape))
        raise ValueError(f"{_member(stack, specs, j)}non-finite state produced at cell "
                         f"{tuple(idx)}")
    if (rho_new < 0).any():
        j, *idx = (int(i) for i in np.unravel_index(int(np.argmin(rho_new)), rho_new.shape))
        raise ValueError(f"{_member(stack, specs, j)}negative density "
                         f"{rho_new[(j, *idx)]:.3e} produced at cell {tuple(idx)}")
    if not rho_new.all():
        m_new[rho_new == 0.0] = 0.0
    if stack.ids is None:
        return FluidState(grid, rho_new[0], m_new[0], check=False)
    return _Members(grid, rho_new, m_new, stack.ids, law)


def _march(live: _Members, specs, law: GasLaw, times, tol: float, rho, m):
    """Step the stack ``live`` until each of its members has taken its last
    sample, storing sample k of stack row i in ``rho[i, k]`` and ``m[i, k]``.
    A generator: it yields j once every member has taken sample j, for
    j = 1, ..., n."""
    n = len(times) - 1
    live_specs = [specs[i] for i in live.ids]
    row = np.arange(len(live_specs))
    t = np.zeros(len(live_specs))
    k = np.ones(len(live_specs), dtype=int)  # each member's next sample
    taken = 0  # samples every member has taken
    while live_specs:
        dt = stable_dt(live, live_specs, law)
        tiny = dt < tol
        if tiny.any():
            j = int(np.argmax(tiny))
            raise ValueError(f"{_member(live, live_specs, j)}stable dt {dt[j]} is below "
                             f"the clock tolerance {tol}")
        target = times[k]
        dt = np.minimum(dt, target - t)
        live = step(live, live_specs, law, dt)
        t += dt
        hit = t >= target - tol
        if hit.any():
            r, kh = row[hit], k[hit]
            rho[r, kh], m[r, kh] = live.rho[hit], live.m[hit]
            t[hit] = target[hit]
            k[hit] += 1
            keep = k <= n
            if not keep.all():
                live = _Members(live.grid, live.rho[keep], live.m[keep], live.ids[keep], law)
                live_specs = [specs[i] for i in live.ids]
                row, t, k = row[keep], t[keep], k[keep]
            # a member takes at most one sample per step, so this is taken + 1
            # when the slowest member takes its sample
            if (int(k.min()) - 1 if len(k) else n) > taken:
                taken += 1
                yield taken


class March:
    """``run`` one sample at a time: the members of ``specs`` (they share the
    flux) march ``triple`` toward t_end, sampled every sample_dt.

    Iterating a march (once) yields j = 0, 1, ..., n once every member has
    taken sample j, sample 0 being the initial state.  The members advance
    in stacks of at most ``max(1, _STACK_CELLS // cells)``, and for each j
    the stacks advance in turn, each until its members have taken sample j;
    a consumer that stops at sample j leaves every later sample unmarched.
    ``members(j)`` are the members' trajectories on samples 0..j, and
    ``rho``, ``m`` each member's sample arrays, filled up to the last j
    yielded.  The arguments and their errors are those of :func:`run`.
    """

    def __init__(self, triple: DataTriple, specs, law: GasLaw, t_end: float,
                 sample_dt: float, energy_mode: str = "envelope"):
        if energy_mode not in ENERGY_MODES:
            raise ValueError(f"energy_mode must be one of {ENERGY_MODES}")
        if not (t_end > 0 and sample_dt > 0):
            raise ValueError("t_end and sample_dt must be positive")
        n = int(round(t_end / sample_dt))
        if n < 1 or abs(n * sample_dt - t_end) > 1e-9 * t_end:
            raise ValueError("sample_dt must divide t_end")
        specs = tuple(specs)
        if not specs:
            raise ValueError("need at least one scheme")
        if len({s.flux for s in specs}) > 1:
            raise ValueError("the schemes of one run must share the flux")
        report = validate_initial_data(triple, law)
        if not report.accepted:
            raise ValueError("initial data rejected: " + "; ".join(report.messages))

        state = triple.state0
        self.grid, self.law, self.energy_mode, self.e0 = state.grid, law, energy_mode, triple.E0
        self.times = sample_dt * np.arange(n + 1)
        group = max(1, _STACK_CELLS // math.prod(self.grid.counts))
        self.rho, self.m = [], []  # each member's samples
        self._stacks = []
        for first in range(0, len(specs), group):
            ids = np.arange(first, min(first + group, len(specs)))
            live = _Members(self.grid, np.repeat(state.rho[None], len(ids), axis=0),
                            np.repeat(state.m[None], len(ids), axis=0), ids, law)
            # not np.empty: lower peak RSS, measured
            rho = np.zeros((len(ids), n + 1) + self.grid.counts)
            m = np.zeros(rho.shape + (self.grid.d,))
            rho[:, 0], m[:, 0] = live.rho, live.m
            self.rho.extend(rho)
            self.m.extend(m)
            self._stacks.append(_march(live, specs, law, self.times, 1e-14 * t_end, rho, m))

    def __iter__(self):
        yield 0
        for j in range(1, len(self.times)):
            for stack in self._stacks:
                next(stack)
            yield j

    def _energy(self, rho, m):
        """A member's total-energy curve on its samples rho, m (see :func:`run`)."""
        mean = integrate_energies(self.grid, rho, m, self.law)
        if self.energy_mode == "envelope":
            return np.minimum.accumulate(mean)
        return np.full(len(mean), mean[0])

    def energies(self, j: int) -> list:
        """Each member's total energy E(t_j+), as ``members(j)`` has it."""
        return [self._energy(rho[:j + 1], m[:j + 1])[j] for rho, m in zip(self.rho, self.m)]

    def members(self, j: int | None = None) -> list:
        """One ``Trajectory`` per scheme on the samples 0..j (all by
        default), with the total-energy curve of :func:`run`."""
        j = len(self.times) - 1 if j is None else j
        return [Trajectory(self.grid, self.law, self.times[:j + 1], (rho[:j + 1], m[:j + 1]),
                           self._energy(rho[:j + 1], m[:j + 1]), e0=self.e0)
                for rho, m in zip(self.rho, self.m)]


def run(triple: DataTriple, specs, law: GasLaw, t_end: float, sample_dt: float,
        energy_mode: str = "envelope") -> list:
    """March ``triple`` to t_end under each scheme of ``specs`` (they share
    the flux), sampling every sample_dt; one ``Trajectory`` per scheme.

    The members advance in stacks, each with its own adaptive CFL
    steps; a member's stable dt below the clock tolerance 1e-14 * t_end
    is an error.  Each trajectory's total-energy curve is derived from
    the discrete mean energy of its samples:

    * "envelope": running minimum of the mean energy, which irons out
      round-off-scale wiggles and is non-increasing by construction;
    * "budget": the per-step dissipation is tracked and added back, so
      the curve is the constant initial mean energy (the discrete
      analogue of an energy-conserving total for smooth flow).

    This drains a :class:`March`.
    """
    march = March(triple, specs, law, t_end, sample_dt, energy_mode)
    for _ in march:
        pass
    return march.members()
