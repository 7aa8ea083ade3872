"""Finite-volume approximation of the barotropic Euler system.

Conservative update with a choice of two interface fluxes (local
Lax-Friedrichs and HLL) plus an artificial-viscosity dial: the term
nu * dx * Laplacian of the conserved variables enters through the
diffusive interface flux -nu * (U_R - U_L).  Varying nu produces the
vanishing-viscosity families the ensemble diagnostics consume.

A ``March`` has one driver: it makes its stacks' sample arrays and
marches the stacks in lockstep, one sample at a time, every stack in
turn.  ``run`` drains that driver one stack at a time and yields the
stack's members, so a consumer that drops each member holds one stack's
samples at a time.
The live members' conserved variables form one array ``U``
(1 + d, K, *counts), component first: ``U[0]`` is the density and
``U[1:]`` the momentum of each member, so one code path serves both.
Each iteration is one ``stable_dt`` and one ``step`` call on that stack,
and the samples are split into density and momentum buffers.  The
members share the flux; each keeps its own viscosity, CFL number, clock,
dt and sample index, and a member that has taken its last sample is
dropped from the stack.  A stack holds at most
``max(1, _STACK_CELLS // cells)`` members; further members march in
further stacks.  Each stack's march is a generator that yields once
all its members have taken the next sample; in a ``March`` the stacks
advance in turn, so a consumer that has what it needs at sample j stops
there and no stack marches past it.

The stack is the one state the kernel steps.  ``_Members`` carries its
grid, gas law and schemes, so ``stable_dt`` and ``step`` take nothing
that could disagree with it.  It computes velocity, sound speed and the
per-axis maximal wave speeds once, when it is built (``step`` builds the
next one), and ``stable_dt``, ``step``'s re-check of the CFL bound and
the flux pass all read them.  Each axis sweep packs (U, u, c) into one
array, ghost-extended by slice copies, and evaluates pressure and
physical flux once per cell of it; the left and right states of every
interface are views into it.  A sweep frees its temporaries as soon as
they are last read: rows of the packed array that the flux has read
hold later temporaries, the cell differences of the interface fluxes
among them, and the sweep's arrays are freed before the next axis packs
its own.  ``step`` updates the stack's ``U`` in place, each axis's
differences once the next axis has packed ``U``, so one step holds no
second copy of the state.

``step`` rejects a dt above the bound and a NaN dt; ``run`` rejects a
stable dt below its clock tolerance.  Negative densities and non-finite
values abort with the member, its viscosity and the offending cell
named; there is no positivity limiter, since a silent fix would corrupt
every defect measurement downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .eos import GasLaw, pressure, sound_speed
from .fields import DataTriple, integrate_energies, validate_initial_data
from .trajectory import Trajectory

__all__ = ["SchemeSpec", "CFLViolation", "March", "run"]

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
    """A stack: members of a run marching on one grid under one gas law.

    It holds their conserved variables ``U`` (1 + d, K, *counts), component
    first (``U[0]`` the densities, ``U[1:]`` the momentum components), the
    run's schemes ``specs`` (they share the flux), ``ids``, each row's
    position in ``specs``, and the primitives under ``law``: velocity ``u``
    (d, K, *counts), sound speed ``c`` (K, *counts) and, per cell axis k,
    the list of each member's maximal wave speed ``max|u_k| + c``."""

    __slots__ = ("grid", "law", "specs", "U", "ids", "u", "c", "speeds")

    def __init__(self, grid, law: GasLaw, specs, U, ids):
        self.grid, self.law, self.specs, self.U, self.ids = grid, law, specs, U, ids
        self.u = np.divide(U[1:], U[0], out=np.zeros(U[1:].shape), where=U[0] > 0)
        self.c = sound_speed(U[0], law)
        cells = tuple(range(1, self.c.ndim))
        self.speeds = [(np.abs(u_k) + self.c).max(axis=cells).tolist() for u_k in self.u]


def _pack(rho, m):
    """``U`` of densities ``rho`` (K, *counts) and momenta ``m`` (K, *counts, d)."""
    return np.concatenate((rho[None], np.moveaxis(m, -1, 0)))


def _member(stack: _Members, j: int) -> str:
    """Message prefix naming row ``j`` of a stack."""
    return f"member {stack.ids[j]} (nu={stack.specs[stack.ids[j]].nu}) failed: "


def stable_dt(stack: _Members) -> np.ndarray:
    """CFL-stable time step of each member of ``stack``, viscosity included
    in the speed budget."""
    dt = []
    for j, i in enumerate(stack.ids):
        s = stack.specs[i]
        rate = 0.0
        for s_k, h in zip(stack.speeds, stack.grid.spacing):
            rate += (s_k[j] + 2.0 * s.nu) / h
        dt.append(math.inf if rate == 0.0 else s.cfl / rate)
    return np.array(dt)


def _extend(stack: _Members, axis: int, boundary: str):
    """The stack's U, normal velocity and sound speed as one array of 3 + d
    components, ghost-extended by one cell per side along cell ``axis`` by
    slice copies: the ghost cells copy the cells across the wrap (periodic)
    or the edge cells, the mirror cells of a reflective wall, whose normal
    momentum and velocity are negated."""
    U, n = stack.U, stack.U.shape[axis + 2]
    ext = np.empty((len(U) + 2,) + U.shape[1:axis + 2] + (n + 2,) + U.shape[axis + 3:])
    lead = (slice(None),) * (axis + 1)  # member axis and earlier cell axes
    inner = lead + (slice(1, -1),)
    ext[(slice(None, -2),) + inner] = U
    ext[(-2,) + inner] = stack.u[axis]
    ext[(-1,) + inner] = stack.c
    # the two ghost cells, 0 and n + 1, as one strided view
    wall = lead + (slice(None, None, n + 1),)
    ext[(slice(None),) + wall] = ext[(slice(None),) + lead + (
        slice(n, 0, 1 - n) if boundary == "periodic" else slice(1, n + 1, n - 1),)]
    if boundary == "reflective":
        ext[(1 + axis,) + wall] *= -1.0
        # a vacuum ghost keeps velocity +0.0, not the -0.0 of a negation.
        # Not in place (out=g): NumPy 2.4 then writes wrong elements of
        # this strided view when the member axis has length 1
        g = ext[(-2,) + wall]
        ext[(-2,) + wall] = np.negative(g, out=np.zeros_like(g), where=ext[(0,) + wall] > 0)
    return ext


def _interface_flux(ext, law, flux, nu, axis):
    """Numerical flux between cells j and j + 1 of ``_extend``'s packed
    (U, un, c), whose second axis is the swept one; the physical flux
    is evaluated once per cell.  ``nu`` is the viscosity at each interface.
    ``ext`` is consumed: rows it no longer needs hold temporaries.

    The arithmetic is written in place to keep temporaries few; each line
    keeps the order of operations of the formula in its comment.  The cell
    fluxes are freed once summed, before U_R - U_L is formed."""
    U, un, c = ext[:-2], ext[-2], ext[-1]
    F = U * un
    F[0] = U[1 + axis]
    F[1 + axis] += pressure(U[0], law)
    if flux == "llf":
        # 0.5 (F_L + F_R) - 0.5 s (U_R - U_L), s formed in c's row
        a = np.abs(un, out=un)
        a += c
        s = np.maximum(a[:-1], a[1:], out=c[:-1])
        s *= 0.5
        f = F[:, :-1] + F[:, 1:]
        del F
        f *= 0.5
        dU = U[:, 1:] - U[:, :-1]
        f -= np.multiply(s, dU, out=U[:, :-1])  # U is read for the last time
    else:  # hll: (s_R F_L - s_L F_R + s_L s_R (U_R - U_L)) / (s_R - s_L)
        lo, hi = un - c, un + c
        sl = np.minimum(lo[:-1], lo[1:])
        np.minimum(sl, 0.0, out=sl)
        sr = np.maximum(hi[:-1], hi[1:])
        np.maximum(sr, 0.0, out=sr)
        del lo, hi
        den = sr - sl
        den = np.where(den > 0, den, 1.0)
        f = sr * F[:, :-1]
        f -= sl * F[:, 1:]
        del F
        dU = U[:, 1:] - U[:, :-1]
        f += np.multiply(sl * sr, dU, out=U[:, :-1])  # U is read for the last time
        f /= den
    viscous = nu > 0
    if viscous.any():
        dU *= nu
        if viscous.all():
            f -= dU
        else:  # skipped where nu = 0: f - 0.0 * x turns a -0.0 flux into +0.0
            np.subtract(f, dU, out=f, where=viscous)
    return f


def step(stack: _Members, dt) -> _Members:
    """The stack after one conservative update of each member by its dt,
    which must satisfy the member's CFL bound.  The update is made in place
    of the stack's ``U``, which the returned stack holds: ``stack`` is spent
    unless the dt is rejected."""
    dt_max = stable_dt(stack)
    dt = np.asarray(dt, dtype=float).reshape(-1)
    ok = dt <= dt_max * (1.0 + 1e-12)  # also rejects a NaN dt or bound
    if not ok.all():
        j = int(np.argmin(ok))
        raise CFLViolation(f"{_member(stack, j)}dt={dt[j]} exceeds the stable "
                           f"bound {dt_max[j]}")
    grid, U = stack.grid, stack.U
    nu = np.array([stack.specs[i].nu for i in stack.ids])
    member = (len(nu),) + (1,) * grid.d  # shape of a per-member factor
    for axis, (h, boundary) in enumerate(zip(grid.spacing, grid.boundary)):
        ext = _extend(stack, axis, boundary)
        if axis:  # the previous axis's update, once this axis has read U
            U -= d_U
            del d_U
        # merge the member axis and the cell axes up to the swept one, so
        # that every array op runs on contiguous memory; the fluxes between
        # two merged rows are computed and never used
        ext_x = ext.reshape((len(ext), -1) + ext.shape[axis + 3:])
        nu_x = nu  # one member: broadcasts as it is
        if len(nu) > 1:  # one value per interface of the merged axis
            nu_x = np.repeat(nu, ext_x.shape[1] // len(nu))[:-1].reshape(
                (-1,) + (1,) * (grid.d - 1 - axis))
        f = _interface_flux(ext_x, stack.law, stack.specs[0].flux, nu_x, axis)
        # f[:, j] - f[:, j - 1] at each cell j, in the U rows the flux consumed
        np.subtract(f[:, 1:], f[:, :-1], out=ext_x[:-2, 1:-1])
        d_U = ext[(slice(None, -2),) + (slice(None),) * (axis + 1) + (slice(1, -1),)]
        d_U *= (dt / h).reshape(member)
        del ext, ext_x, f  # d_U keeps the ext; the rest is freed
    U -= d_U
    del d_U
    if not np.isfinite(U).all():
        bad = ~np.isfinite(U).all(axis=0)
        j, *idx = (int(i) for i in np.unravel_index(int(np.argmax(bad)), bad.shape))
        raise ValueError(f"{_member(stack, j)}non-finite state produced at cell "
                         f"{tuple(idx)}")
    rho_new = U[0]
    if (rho_new < 0).any():
        j, *idx = (int(i) for i in np.unravel_index(int(np.argmin(rho_new)), rho_new.shape))
        raise ValueError(f"{_member(stack, j)}negative density "
                         f"{rho_new[(j, *idx)]:.3e} produced at cell {tuple(idx)}")
    if not rho_new.all():
        U[1:, rho_new == 0.0] = 0.0
    return _Members(grid, stack.law, stack.specs, U, stack.ids)


def _march(live: _Members, times, tol: float, rho, m):
    """Step the stack ``live`` until each of its members has taken its last
    sample, storing sample k of stack row i in ``rho[i, k]`` and ``m[i, k]``.
    A generator: it yields j once every member has taken sample j, for
    j = 1, ..., n."""
    n = len(times) - 1
    row = np.arange(len(live.ids))
    t = np.zeros(len(row))
    k = np.ones(len(row), dtype=int)  # each member's next sample
    taken = 0  # samples every member has taken
    while len(row):
        dt = stable_dt(live)
        tiny = dt < tol
        if tiny.any():
            j = int(np.argmax(tiny))
            raise ValueError(f"{_member(live, j)}stable dt {dt[j]} is below "
                             f"the clock tolerance {tol}")
        target = times[k]
        dt = np.minimum(dt, target - t)
        live = step(live, dt)
        t += dt
        hit = t >= target - tol
        if hit.any():
            r, kh = row[hit], k[hit]
            rho[r, kh] = live.U[0, hit]
            m[r, kh] = np.moveaxis(live.U[1:, hit], 0, -1)
            t[hit] = target[hit]
            k[hit] += 1
            keep = k <= n
            if not keep.all():
                live = _Members(live.grid, live.law, live.specs, live.U[:, keep],
                                live.ids[keep])
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
    yielded; every stack's arrays are made when the iteration starts.
    The arguments and their errors are those of :func:`run`.
    """

    def __init__(self, triple: DataTriple, specs, law: GasLaw, t_end: float,
                 sample_dt: float, energy_mode: str = "envelope"):
        if energy_mode not in ENERGY_MODES:
            raise ValueError(f"energy_mode must be one of {ENERGY_MODES}")
        if not (t_end > 0 and sample_dt > 0):
            raise ValueError("t_end and sample_dt must be positive")
        for key, value in (("t_end", t_end), ("sample_dt", sample_dt)):
            if not math.isfinite(value):
                raise ValueError(f"{key} must be finite, got {value}")
        n = int(round(t_end / sample_dt))
        if n < 1 or abs(n * sample_dt - t_end) > 1e-9 * t_end:
            raise ValueError("sample_dt must divide t_end")
        specs = tuple(specs)
        if not specs:
            raise ValueError("need at least one scheme")
        if len({s.flux for s in specs}) > 1:
            raise ValueError("the schemes of one run must share the flux")
        validate_initial_data(triple, law)

        self.grid, self.law, self.energy_mode = triple.state0.grid, law, energy_mode
        self.e0, self._state0 = triple.E0, triple.state0
        self.times = sample_dt * np.arange(n + 1)
        self._specs, self._tol = specs, 1e-14 * t_end
        group = max(1, _STACK_CELLS // math.prod(self.grid.counts))
        # each stack's member ids; its sample arrays are made when it starts
        self._stacks = [np.arange(first, min(first + group, len(specs)))
                        for first in range(0, len(specs), group)]
        self.rho, self.m = [], []  # each started member's samples

    def _samples(self, stacks):
        """Make the sample arrays of the stacks of member ids ``stacks`` (each
        member's into ``rho``, ``m``) and march the stacks in lockstep: yields
        j = 0, 1, ..., n once each of their members has taken sample j."""
        state, n = self._state0, len(self.times) - 1
        marches = []
        for ids in stacks:
            # not np.empty: lower peak RSS, measured
            rho = np.zeros((len(ids), n + 1) + self.grid.counts)
            m = np.zeros(rho.shape + (self.grid.d,))
            rho[:, 0], m[:, 0] = state.rho, state.m
            self.rho.extend(rho)
            self.m.extend(m)
            # made in the call: a name here would hold the first U through the march
            marches.append(_march(_Members(self.grid, self.law, self._specs,
                                           _pack(rho[:, 0], m[:, 0]), ids),
                                  self.times, self._tol, rho, m))
        yield 0
        for j in range(1, n + 1):
            for march in marches:
                next(march)
            yield j

    def __iter__(self):
        return self._samples(self._stacks)

    def _energy(self, rho, m):
        """A member's total-energy curve on its samples rho, m (see :func:`run`)."""
        mean = integrate_energies(self.grid, rho, m, self.law)
        if self.energy_mode == "envelope":
            return np.minimum.accumulate(mean)
        return np.full(len(mean), mean[0])

    def members(self, j: int | None = None) -> list:
        """One ``Trajectory`` per scheme on the samples 0..j (all by
        default) of an iterated march, with the total-energy curve of
        :func:`run`."""
        n = len(self.times) if j is None else j + 1  # the samples kept
        return [Trajectory(self.grid, self.law, self.times[:n], (rho[:n], m[:n]),
                           self._energy(rho[:n], m[:n]), e0=self.e0)
                for rho, m in zip(self.rho, self.m)]


def run(triple: DataTriple, specs, law: GasLaw, t_end: float, sample_dt: float,
        energy_mode: str = "envelope"):
    """March ``triple`` to t_end under each scheme of ``specs`` (they share
    the flux), sampling every sample_dt; yields one ``Trajectory`` per
    scheme, in the order of ``specs``.

    The members advance in stacks, each with its own adaptive CFL
    steps; a member's stable dt below the clock tolerance 1e-14 * t_end
    is an error.  Each trajectory's total-energy curve is derived from
    the discrete mean energy of its samples:

    * "envelope": running minimum of the mean energy, which irons out
      round-off-scale wiggles and is non-increasing by construction;
    * "budget": the per-step dissipation is tracked and added back, so
      the curve is the constant initial mean energy (the discrete
      analogue of an energy-conserving total for smooth flow).

    The stacks march one at a time, each once the members of the one
    before have been yielded, and a stack's sample arrays are made when
    it starts: a consumer that drops each member before taking the next
    holds one stack's samples at a time.  Errors in the arguments are
    raised at the call, errors of the march as the failing member's
    stack marches.  Callers that need a list take ``list(run(...))``.
    """
    march = March(triple, specs, law, t_end, sample_dt, energy_mode)

    def trajectories():
        for ids in march._stacks:
            for _ in march._samples([ids]):
                pass
            # hand the stack's members out and keep no reference to them
            stack, march.rho, march.m = march.members(), [], []
            while stack:
                yield stack.pop(0)
    return trajectories()
