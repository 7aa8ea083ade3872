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

# rows checked for constant columns at a time, and changing values formatted
# at most per call when row blocks are joined: enough that NumPy's per-call
# cost is spread over many values, few enough that a block's digit and
# character arrays stay small beside a trajectory or a profile slice
_BLOCK_ROWS = 256
_BLOCK_VALUES = 1536

_STATE_COLUMNS = {1: ("i", "rho", "mx"), 2: ("i", "j", "rho", "mx", "my")}


@functools.cache
def _digit_tables() -> tuple:
    """The exact floats 10**0 .. 10**21; the two ASCII digits of each of
    0 .. 99 as one uint16; and, as rows of 20 bytes laid out as a digit
    row of :func:`_fields`, the masks of digits i < j for j = 0 .. 17 and
    the "0"s before digit 0 for 0 .. 3 of them."""
    column = np.arange(20) - 3
    below = np.where((column >= 0) & (column < np.arange(18)[:, None]), 255, 0)
    zeros = np.where(column >= -np.arange(4)[:, None], 48, 0) * (column < 0)
    return (np.array([float(10 ** j) for j in range(22)]),
            np.frombuffer("".join(f"{j:02d}" for j in range(100)).encode(), np.uint16),
            *(t.astype(np.uint8).view("V20").ravel() for t in (below, zeros)))


def _split(v) -> tuple:
    """Veltkamp's split of ``v`` into halves of 26 bits, hi + lo = v."""
    hi = 134217729.0 * v  # 2**27 + 1
    lo = hi - v
    hi -= lo
    return hi, np.subtract(v, hi, out=lo)


def _scaled(a, k, tens) -> np.ndarray:
    """The integer nearest ``a * 10**(16 - k)``, ties to even.  Dekker's
    product gives it exactly as p + e; where the result has 17 digits, p is
    an even integer (it is at least 2**53), so the nearest is p + rint(e).
    The operations run in place, so a block holds few temporaries."""
    s = tens[16 - k]
    p = a * s
    (ah, al), (sh, sl) = _split(a), _split(s)
    e = ah * sh
    e -= p
    e += np.multiply(ah, sl, out=ah)
    e += np.multiply(al, sh, out=sh)
    e += np.multiply(al, sl, out=sl)
    d = p.astype(np.int64)
    d += np.rint(e, out=e).astype(np.int64)
    return d


def _fields(values, limits) -> tuple:
    """The ``%.17g`` text of the float64 ``values`` (rows, columns) as
    NUL-padded rows of bytes, one per value in row-major order, and the
    mask of the values so written: zero and 1e-4 <= |x| < 1e17 (``limits``
    per column), where ``%g`` writes no exponent.  A row is wide enough
    for any ``%`` text the caller writes over the others.

    The 17 digits D of |x| = D * 10**(k - 16) come from :func:`_scaled`,
    with k from log10, corrected once where log10 rounded across a power
    of ten.  A row is the sign, the digits up to k, a "0" if k < 0, the
    point, the "0"s after it if k < -1 and the digits after k up to the
    last nonzero one; the NULs left between them are dropped by the caller."""
    a = np.abs(values)
    fast = (((a >= 1e-4) | (a == 0.0)) & (a < limits)).ravel()
    a, values = a.ravel(), values.ravel()
    tens, pairs, below, zeros = _digit_tables()
    zero = fast & (a == 0.0)
    a[~fast | zero] = 1.0
    k = np.minimum(np.floor(np.log10(a)), 16).astype(np.int64)
    d = _scaled(a, k, tens)
    off = (d >= 10 ** 17).astype(np.int64) - (d < 10 ** 16)
    if off.any():
        k += off
        d = _scaled(a, k, tens)
    del a, off
    k[zero] = -1
    n, low, high = len(values), int(k.min()), max(int(k.max()), 0)
    digits = np.zeros((n, 20), np.uint8)  # digit i in column 3 + i
    lead = d // 10 ** 16
    digits[:, 3] = lead + 48
    q = d - lead * 10 ** 16
    two = digits[:, 4:].view(np.uint16)
    for g in range(7, -1, -1):
        r = q // 100
        two[:, g] = pairs[q - r * 100]
        q = r
    del d, lead, q

    def rows(table, index):
        return table[index].view(np.uint8).reshape(n, 20)

    last = 19 - np.argmax(digits[:, :2:-1] != 48, axis=1)  # the last nonzero digit
    last[zero] = 2
    upto_k = rows(below, np.maximum(k + 1, 0))
    whole = digits & upto_k
    frac = digits & rows(below, last - 2) & ~upto_k
    first = max(low + 1, 0) + 3
    if low < -1:
        frac |= rows(zeros, np.clip(-1 - k, 0, 3))
        first -= 3
    part = max(20 - first, 0 if fast.all() else 21 - high)  # a '%' text has <= 24 bytes
    out = np.zeros((n, high + 4 + part), np.uint8)
    out[:, 0] = np.where(fast & np.signbit(values), 45, 0)
    out[:, 1:high + 2] = whole[:, 3:high + 4]
    out[:, high + 2] = np.where(k < 0, 48, 0)
    out[:, high + 3] = np.where(last - 3 > k, 46, 0)
    out[:, high + 4:high + 24 - first] = frac[:, first:]
    return out, fast


def _write_block(f, columns, formats, limits, start, stop, texts) -> None:
    """Write rows ``start:stop`` of ``columns``, where ``texts`` holds the
    text of each column that is constant there and None for the others."""
    rows, changing = stop - start, [j for j, text in enumerate(texts) if text is None]
    if not changing:
        f.write((b",".join(texts) + b"\n") * rows)
        return
    values = np.stack([columns[j][start:stop] for j in changing], axis=1, dtype=float)
    fields, fast = _fields(values, limits[changing])
    fields = fields.reshape(rows, len(changing), -1)
    for i, m in zip(*np.nonzero(~fast.reshape(rows, -1))):
        text = formats[changing[m]] % columns[changing[m]][start + i].item()
        fields[i, m] = np.frombuffer(text.encode().ljust(fields.shape[2], b"\0"), np.uint8)
    pad = b"\0" * fields.shape[2]
    template = b",".join(pad if text is None else text for text in texts) + b"\n"
    chars = bytearray(rows * len(template))
    block = np.frombuffer(chars, np.uint8).reshape(rows, -1)
    block[:] = np.frombuffer(template, np.uint8)
    for m, j in enumerate(changing):
        at = sum(len(text or pad) + 1 for text in texts[:j])
        block[:, at:at + len(pad)] = fields[:, m]
    del block, fields
    f.write(chars.translate(None, b"\0"))


def _write_rows(f, columns) -> None:
    """Write the rows of equal-length ``columns`` to the binary file ``f``,
    ``_BLOCK_ROWS`` at a time.  A column whose bits (so -0.0 and 0.0, or two
    NaN payloads, differ) do not change within them is formatted once; runs
    of blocks with the same such texts are joined up to ``_BLOCK_VALUES``
    changing values, so that one call of :func:`_fields` formats many."""
    columns = [np.asarray(c) for c in columns]
    formats = ["%d" if c.dtype.kind in "iu" else "%.17g" for c in columns]
    limits = np.array([1e15 if fmt == "%d" else 1e17 for fmt in formats])  # ints: exact
    bits = [c.view(f"u{c.itemsize}") for c in columns]
    run = None  # (start, stop, texts) of the rows not yet written
    for start in range(0, len(columns[0]), _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, len(columns[0]))
        texts = [(fmt % c[start].item()).encode() if (u[start:stop] == u[start]).all() else None
                 for c, u, fmt in zip(columns, bits, formats)]
        if run and run[2] == texts and \
                (stop - run[0]) * max(texts.count(None), 1) <= _BLOCK_VALUES:
            run = (run[0], stop, texts)
            continue
        if run:
            _write_block(f, columns, formats, limits, *run)
        run = (start, stop, texts)
    if run:
        _write_block(f, columns, formats, limits, *run)


def write_csv(path, names, blocks) -> None:
    """Write a header line ``names`` and the rows of ``blocks``, an iterable
    of column tuples whose rows follow one another; a caller with whole
    columns passes ``[columns]``, a streaming one a generator of slices.

    Integer columns are written as ``%d`` and float columns as ``%.17g``,
    which reads back to the same double, byte for byte as Python's ``%``.
    Rows are written in blocks of ``_BLOCK_ROWS``.  A column whose bits do
    not change within a block is formatted once per block.  The others are
    formatted together with NumPy integer arithmetic: the 17 digits come
    exact from Dekker's error-free product, rounded half to even.  Values
    outside that path (NaN, infinities, zero excepted |x| < 1e-4 or
    |x| >= 1e17, and integers of magnitude 10**15 or more) take ``%``.
    """
    with open(path, "wb") as f:
        f.write((",".join(names) + "\n").encode())
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
