"""Structured grids, cell-averaged fluid states, and spatial quadrature.

The domain is an axis-aligned box (interval in 1D, rectangle in 2D)
split into uniform cells.  All spatial integrals use the midpoint rule:
sum of cell-center values times the cell volume.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .eos import GasLaw, energy_cellwise

__all__ = [
    "Grid",
    "FluidState",
    "DataTriple",
    "ValidationReport",
    "integrate_energy",
    "validate_initial_data",
    "write_csv",
    "read_csv",
    "save_state_csv",
    "load_state_csv",
]

BOUNDARY_KINDS = ("periodic", "reflective")


@dataclass(frozen=True)
class Grid:
    """Uniform axis-aligned box grid in one or two dimensions.

    Parameters
    ----------
    counts : tuple of int
        Cells per axis; the tuple length fixes the dimension d in {1, 2}.
    lower, upper : tuple of float
        Domain bounds per axis.
    boundary : tuple of str
        Per-axis boundary kind, "periodic" or "reflective".
    """

    counts: tuple
    lower: tuple
    upper: tuple
    boundary: tuple = ()

    def __post_init__(self):
        counts = tuple(int(n) for n in self.counts)
        lower = tuple(float(x) for x in self.lower)
        upper = tuple(float(x) for x in self.upper)
        boundary = tuple(self.boundary) if self.boundary else ("periodic",) * len(counts)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "boundary", boundary)
        if len(counts) not in (1, 2):
            raise ValueError("grid dimension must be 1 or 2")
        if not (len(lower) == len(upper) == len(boundary) == len(counts)):
            raise ValueError("counts, bounds and boundary kinds must share the dimension")
        if any(n < 2 for n in counts):
            raise ValueError("need at least 2 cells per axis")
        if any(u <= lo for lo, u in zip(lower, upper)):
            raise ValueError("upper bound must exceed lower bound on every axis")
        if any(b not in BOUNDARY_KINDS for b in boundary):
            raise ValueError(f"boundary kinds must be in {BOUNDARY_KINDS}")

    @property
    def d(self) -> int:
        return len(self.counts)

    @functools.cached_property
    def spacing(self) -> tuple:
        return tuple((u - lo) / n for lo, u, n in zip(self.lower, self.upper, self.counts))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    def centers(self, axis: int) -> np.ndarray:
        """Cell-center coordinates along one axis."""
        h = self.spacing[axis]
        return self.lower[axis] + h * (np.arange(self.counts[axis]) + 0.5)

    def meshgrid(self):
        """Cell-center coordinate arrays, one per axis, each of shape counts."""
        axes = [self.centers(k) for k in range(self.d)]
        if self.d == 1:
            return (axes[0],)
        return tuple(np.meshgrid(*axes, indexing="ij"))

    def to_dict(self) -> dict:
        return {
            "counts": list(self.counts),
            "lower": list(self.lower),
            "upper": list(self.upper),
            "boundary": list(self.boundary),
        }

    @staticmethod
    def from_dict(d: dict) -> "Grid":
        return Grid(
            counts=tuple(d["counts"]),
            lower=tuple(d["lower"]),
            upper=tuple(d["upper"]),
            boundary=tuple(d.get("boundary", ())),
        )


class FluidState:
    """Cell-averaged density and momentum on a grid at one time instant.

    ``rho`` has shape ``grid.counts``; ``m`` has one extra trailing axis of
    length d.  States are immutable after construction: rho >= 0
    everywhere, every entry finite, and m = 0 wherever rho = 0.  The
    private ``_memo`` slot holds the solver's primitives of the state
    (see ``solver._waves``); it changes no field.
    """

    __slots__ = ("grid", "rho", "m", "_memo")

    def __init__(self, grid: Grid, rho, m, check: bool = True):
        rho = np.array(rho, dtype=float).reshape(grid.counts)
        m = np.array(m, dtype=float).reshape(grid.counts + (grid.d,))
        if check:
            if not np.all(np.isfinite(rho)) or not np.all(np.isfinite(m)):
                raise ValueError("fields must be finite")
            if np.any(rho < 0):
                idx = tuple(int(i) for i in np.unravel_index(int(np.argmin(rho)), rho.shape))
                raise ValueError(f"negative density at cell {idx}: {rho[idx]}")
            vac = rho == 0.0
            if np.any(vac) and np.any(m[vac] != 0.0):
                raise ValueError("momentum must vanish on the vacuum set")
        rho.setflags(write=False)
        m.setflags(write=False)
        self.grid = grid
        self.rho = rho
        self.m = m
        self._memo = None

    @staticmethod
    def constant(grid: Grid, rho0: float, u0=0.0) -> "FluidState":
        rho = np.full(grid.counts, float(rho0))
        u = np.broadcast_to(np.atleast_1d(np.asarray(u0, dtype=float)), (grid.d,))
        m = np.empty(grid.counts + (grid.d,))
        for k in range(grid.d):
            m[..., k] = rho0 * u[k]
        return FluidState(grid, rho, m)


def rel_l1_distance(s1: FluidState, s2: FluidState) -> float:
    """Relative L1 distance between two states on the same grid."""
    if s1.grid.counts != s2.grid.counts:
        raise ValueError("states live on different grids")
    num = np.sum(np.abs(s1.rho - s2.rho)) + np.sum(np.abs(s1.m - s2.m))
    den = max(np.sum(np.abs(s1.rho)) + np.sum(np.abs(s1.m)), 1.0)
    return float(num / den)


def integrate_energy(state: FluidState, law: GasLaw) -> float:
    """Mean energy: midpoint-rule integral of the energy density.

    Returns +inf exactly when some cell is vacuum with nonzero momentum.
    """
    e = energy_cellwise(state.rho, state.m, law)
    if np.any(np.isinf(e)):
        return math.inf
    return float(np.sum(e) * state.grid.cell_volume)


@dataclass(frozen=True)
class DataTriple:
    """Initial fields plus prescribed total energy E0."""

    state0: FluidState
    E0: float

    def __post_init__(self):
        if not (self.E0 >= 0) or not math.isfinite(self.E0):
            raise ValueError("total energy E0 must be finite and nonnegative")


@dataclass
class ValidationReport:
    accepted: bool
    mean_energy: float
    slack: float
    messages: list = field(default_factory=list)


def validate_initial_data(triple: DataTriple, law: GasLaw) -> ValidationReport:
    """Check membership of (state0, E0) in the admissible data class.

    Accepts iff the mean energy does not exceed E0 + 1e-12 * max(1, E0)
    (and is finite).  Vacuum consistency is already enforced by
    FluidState; an infinite mean energy can therefore only come from a
    state built with checks disabled, and is rejected with a dedicated
    diagnostic.
    """
    mean = integrate_energy(triple.state0, law)
    if math.isinf(mean):
        return ValidationReport(False, mean, -math.inf,
                                ["vacuum cell carries momentum: mean energy is infinite"])
    slack = triple.E0 - mean
    if slack < -1e-12 * max(1.0, triple.E0):
        return ValidationReport(False, mean, slack,
                                [f"mean energy {mean} exceeds E0 {triple.E0} beyond tolerance"])
    return ValidationReport(True, mean, slack)


# -- CSV codec --------------------------------------------------------

# rows formatted per write: large enough to amortise the per-call
# overhead, small enough that a block's Python floats and strings
# (~60 KB) do not raise the peak memory of a 200k-row profile write;
# 1024-row blocks measured about 0.25 MB higher peak RSS
_BLOCK_ROWS = 256

_STATE_COLUMNS = {1: ("i", "rho", "mx"), 2: ("i", "j", "rho", "mx", "my")}


def write_csv(path, names, columns) -> None:
    """Write a header line ``names`` and one row per entry of ``columns``.

    Integer columns are written as decimal integers, float columns with
    ``%.17g``, which reads back to the same double.  Each row is one
    ``%``-format of a tuple, which is faster than ``str.format``.
    """
    columns = [np.asarray(c) for c in columns]
    row = ",".join("%d" if c.dtype.kind in "iu" else "%.17g" for c in columns) + "\n"
    with open(path, "w") as f:
        f.write(",".join(names) + "\n")
        for start in range(0, len(columns[0]), _BLOCK_ROWS):
            block = [c[start:start + _BLOCK_ROWS].tolist() for c in columns]
            f.write("".join(map(row.__mod__, zip(*block))))


def read_csv(path, names=None) -> tuple:
    """Header names and the (rows, columns) float array of a CSV table.

    With ``names`` given, the header line must be exactly those names.
    """
    with open(path) as f:
        header = tuple(f.readline().strip().split(","))
        if names is not None and header != tuple(names):
            raise ValueError(f"{path}: expected header {','.join(names)!r}, "
                             f"got {','.join(header)!r}")
        with warnings.catch_warnings():
            # a header-only table is valid; it is reshaped to (0, n) below
            warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                    UserWarning)
            data = np.loadtxt(f, delimiter=",", ndmin=2)
    if not data.size:
        data = data.reshape(0, len(header))
    if data.shape[1] != len(header):
        raise ValueError(f"{path}: rows have {data.shape[1]} columns, "
                         f"the header names {len(header)}")
    return header, data


def save_state_csv(state: FluidState, path) -> None:
    """Write one row per cell: ``i[,j],rho,mx[,my]``, in row-major order."""
    g = state.grid
    index = np.indices(g.counts).reshape(g.d, -1)
    m = state.m.reshape(-1, g.d)
    write_csv(path, _STATE_COLUMNS[g.d],
              [*index, state.rho.ravel(), *(m[:, k] for k in range(g.d))])


def load_state_csv(grid: Grid, path, check: bool = True) -> FluidState:
    """Read a state written by :func:`save_state_csv` onto ``grid``.

    Rows are placed by their ``i[,j]`` columns, so their order is free,
    but each cell must be given by exactly one row with integer indices
    in range; ``check`` is passed on to :class:`FluidState`.
    """
    d = grid.d
    _, data = read_csv(path, _STATE_COLUMNS[d])
    index = data[:, :d]
    bad = ~np.all((index == np.floor(index)) & (index >= 0) & (index < grid.counts), axis=1)
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(f"{path}: data row {k + 1}: cell index {index[k].tolist()} is not "
                         f"an integer index of the {grid.counts} grid")
    cell = np.ravel_multi_index(tuple(index.T.astype(int)), grid.counts)
    rows = np.bincount(cell, minlength=math.prod(grid.counts))
    if np.any(rows != 1):
        c = int(np.argmax(rows != 1))
        where = [int(k) for k in np.unravel_index(c, grid.counts)]
        raise ValueError(f"{path}: cell {where} is given by {rows[c]} rows, not 1")
    rho = np.zeros(grid.counts)
    m = np.zeros(grid.counts + (d,))
    rho.flat[cell] = data[:, d]
    m.reshape(-1, d)[cell] = data[:, d + 1:]
    return FluidState(grid, rho, m, check=check)
