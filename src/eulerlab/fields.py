"""Structured grids, cell-averaged fluid states, and spatial quadrature.

The domain is an axis-aligned box (interval in 1D, rectangle in 2D)
split into uniform cells.  All spatial integrals use the midpoint rule:
sum of cell-center values times the cell volume.
"""

from __future__ import annotations

import functools
import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .eos import GasLaw, energy_cellwise

__all__ = [
    "Grid",
    "FluidState",
    "DataTriple",
    "integrate_energy",
    "integrate_energies",
    "validate_initial_data",
    "write_csv",
    "write_json",
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
        for key, bounds in (("lower", lower), ("upper", upper)):
            if not all(map(math.isfinite, bounds)):
                raise ValueError(f"{key} must be finite, got {list(bounds)}")
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
    everywhere, every entry finite, and m = 0 wherever rho = 0.
    """

    __slots__ = ("grid", "rho", "m")

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

    @classmethod
    def _view(cls, grid: Grid, rho: np.ndarray, m: np.ndarray) -> "FluidState":
        """A state over the given read-only arrays, without copy or check."""
        state = object.__new__(cls)
        state.grid, state.rho, state.m = grid, rho, m
        return state

    @staticmethod
    def constant(grid: Grid, rho0: float, u0=0.0) -> "FluidState":
        rho = np.full(grid.counts, float(rho0))
        u = np.broadcast_to(np.atleast_1d(np.asarray(u0, dtype=float)), (grid.d,))
        m = np.empty(grid.counts + (grid.d,))
        for k in range(grid.d):
            m[..., k] = rho0 * u[k]
        return FluidState(grid, rho, m)


def rel_l1_distance(rho1, m1, rho2, m2) -> np.ndarray:
    """Relative L1 distance between (rho1, m1) and (rho2, m2), one value per
    entry of the leading sample axis."""
    cells, mcells = tuple(range(1, rho1.ndim)), tuple(range(1, m1.ndim))
    num = np.sum(np.abs(rho1 - rho2), axis=cells) + np.sum(np.abs(m1 - m2), axis=mcells)
    den = np.maximum(np.sum(np.abs(rho1), axis=cells) + np.sum(np.abs(m1), axis=mcells), 1.0)
    return num / den


def energy_scale(*e0s) -> float:
    """max(1, |e0|) over the given initial energies: every energy tolerance's scale."""
    return max(1.0, *map(abs, e0s))


def integrate_energies(grid: Grid, rho, m, law: GasLaw) -> np.ndarray:
    """Mean energy, the midpoint-rule integral of the energy density, of each
    sample of stacked ``rho`` (n, *counts) and ``m`` (n, *counts, d); +inf
    exactly where some cell is vacuum with nonzero momentum.

    The energy density is formed one sample at a time, as in
    ``estimate_reynolds``: over the whole stack its temporaries would set
    the peak memory of building a trajectory.
    """
    means = np.empty(len(rho))
    for k, (r, mk) in enumerate(zip(rho, m)):
        e = energy_cellwise(r, mk, law)
        means[k] = math.inf if np.isinf(e).any() else np.sum(e) * grid.cell_volume
    return means


def integrate_energy(state: FluidState, law: GasLaw) -> float:
    """Mean energy of one state: :func:`integrate_energies` of one sample."""
    return float(integrate_energies(state.grid, state.rho[None], state.m[None], law)[0])


@dataclass(frozen=True)
class DataTriple:
    """Initial fields plus prescribed total energy E0."""

    state0: FluidState
    E0: float

    def __post_init__(self):
        if not (self.E0 >= 0) or not math.isfinite(self.E0):
            raise ValueError("total energy E0 must be finite and nonnegative")


def validate_initial_data(triple: DataTriple, law: GasLaw) -> None:
    """Check membership of (state0, E0) in the admissible data class:
    raises ``ValueError("initial data rejected: ...")`` when the mean
    energy is infinite, NaN or above E0 + 1e-12 * max(1, E0).  FluidState
    enforces vacuum consistency and finite fields, so a non-finite mean
    energy comes only from a state built with checks disabled; an
    infinite one has its own message.
    """
    mean = integrate_energy(triple.state0, law)
    if math.isinf(mean):
        raise ValueError("initial data rejected: vacuum cell carries momentum: "
                         "mean energy is infinite")
    if not (triple.E0 - mean >= -1e-12 * energy_scale(triple.E0)):  # NaN fails
        raise ValueError(f"initial data rejected: mean energy {mean} exceeds E0 {triple.E0} "
                         f"beyond tolerance")


# -- CSV codec --------------------------------------------------------

# rows formatted per write: large enough to amortise the per-call
# overhead, small enough that a block's Python floats and strings
# (~60 KB) do not raise the peak memory of a 200k-row profile write;
# 1024-row blocks measured about 0.25 MB higher peak RSS
_BLOCK_ROWS = 256

_STATE_COLUMNS = {1: ("i", "rho", "mx"), 2: ("i", "j", "rho", "mx", "my")}


def _constant_blocks(column) -> list:
    """Per block of ``_BLOCK_ROWS`` rows of ``column``, whether all its rows
    hold the same bits: compared as unsigned integers, so ``-0.0`` and
    ``0.0``, or two NaN payloads, never count as one value."""
    bits = column.view(f"u{column.itemsize}")
    full = len(bits) - len(bits) % _BLOCK_ROWS
    blocks = bits[:full].reshape(-1, _BLOCK_ROWS)
    same = (blocks == blocks[:, :1]).all(axis=1).tolist()
    if full < len(bits):
        same.append(bool((bits[full:] == bits[full]).all()))
    return same


def _write_rows(f, columns) -> None:
    """Write the rows of equal-length ``columns`` to ``f`` in blocks of
    ``_BLOCK_ROWS``, formatting a column that is constant within a block
    once."""
    columns = [np.asarray(c) for c in columns]
    formats = ["%d" if c.dtype.kind in "iu" else "%.17g" for c in columns]
    constant = [_constant_blocks(c) for c in columns]
    n = len(columns[0])
    for b, start in enumerate(range(0, n, _BLOCK_ROWS)):
        parts, changing = [], []
        for c, fmt, same in zip(columns, formats, constant):
            if same[b]:
                parts.append(fmt % c[start].item())
            else:
                parts.append(fmt)
                changing.append(c[start:start + _BLOCK_ROWS].tolist())
        row = ",".join(parts) + "\n"
        if changing:
            f.write("".join(map(row.__mod__, zip(*changing))))
        else:
            f.write(row * min(_BLOCK_ROWS, n - start))


def write_csv(path, names, blocks) -> None:
    """Write a header line ``names`` and the rows of ``blocks``, an iterable
    of column tuples whose rows follow one another; a caller with whole
    columns passes ``[columns]``, a streaming one a generator of slices.

    Integer columns are written as decimal integers, float columns with
    ``%.17g``, which reads back to the same double.  Rows are formatted
    in blocks of ``_BLOCK_ROWS``, each row one ``%``-format of a tuple,
    which is faster than ``str.format``.  A column whose bits do not
    change within a block is formatted once and spliced into the block's
    row format, so only the changing columns are formatted per row; a
    block with no changing column is one row repeated.
    """
    with open(path, "w") as f:
        f.write(",".join(names) + "\n")
        for columns in blocks:
            _write_rows(f, columns)
            del columns  # a streamed slice is freed before the next is made


def write_json(path, doc: dict) -> None:
    """Write ``doc`` as indented JSON with sorted keys and a final newline."""
    with open(path, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")


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
              [(*index, state.rho.ravel(), *(m[:, k] for k in range(g.d)))])


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
