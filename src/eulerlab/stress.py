"""Discrete Reynolds stress fields.

A ReynoldsField stores one symmetric d x d matrix per cell and sample
time, interpreted as the cell-averaged density of a matrix-valued
measure: integrals against it are cell sums times the cell volume.
"""

from __future__ import annotations

import zipfile

import numpy as np
import numpy.lib.format as npy

from .eos import GasLaw, pressure
from .fields import Grid

__all__ = ["ReynoldsField", "kinetic_tensor", "convexity_gap"]


def kinetic_tensor(rho: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Cell-wise tensor m (x) m / rho, zero on the vacuum set.  Each entry
    m_i m_j / rho is formed in place in the output, pair by pair: a
    broadcast outer product would make a second tensor-sized array, and its
    broadcast division NumPy's buffers on top."""
    d = m.shape[-1]
    outer = np.empty(m.shape + (d,))
    inside = rho > 0
    for i in range(d):
        for j in range(d):
            entry = outer[..., i, j]
            np.multiply(m[..., i], m[..., j], out=entry)
            np.divide(entry, rho, out=entry, where=inside)
    outer[~inside] = 0.0
    return outer


def convexity_gap(kin_mean: np.ndarray, p_mean: np.ndarray, rho: np.ndarray,
                  m: np.ndarray, law: GasLaw) -> np.ndarray:
    """Flux convexity gap kin_mean - m (x) m / rho + (p_mean - p(rho)) I of a
    family with averaged kinetic tensor, pressure and fields (rho, m): PSD
    for convex averages.  Callers average in their own arithmetic, which
    fixes the bits (and the sign of zeros).  The gap is formed in place of
    ``kin_mean``, which is returned."""
    kin_mean -= kinetic_tensor(rho, m)
    dp = p_mean - pressure(rho, law)
    # entry by entry, with the bits of the product with the identity (dp * 0.0
    # is -0.0 or NaN for some dp), and without a tensor-sized temporary
    for (i, j), e in np.ndenumerate(np.eye(m.shape[-1])):
        kin_mean[..., i, j] += dp * e
    return kin_mean


def symmetric_min_eigenvalues(tensor: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of each symmetric matrix in a (..., d, d) array,
    d = 1 or 2 (``Grid`` allows no other)."""
    if tensor.shape[-1] == 1:
        return tensor[..., 0, 0]
    half_tr = 0.5 * (tensor[..., 0, 0] + tensor[..., 1, 1])
    half_dif = 0.5 * (tensor[..., 0, 0] - tensor[..., 1, 1])
    rad = np.sqrt(half_dif**2 + tensor[..., 0, 1] ** 2)
    return half_tr - rad


class ReynoldsField:
    """Per-time, per-cell symmetric stress matrices on a grid.

    The symmetry check, the norm scale, the smallest eigenvalue and the
    npz write run one sample at a time, so their temporaries are one
    sample's size: over the whole tensor they set the peak memory of
    ``ensemble`` and ``diagnose``.  The per-sample values are reduced by
    NumPy, so a NaN propagates.
    """

    __slots__ = ("grid", "times", "tensor")

    def __init__(self, grid: Grid, times, tensor):
        times = np.asarray(times, dtype=float)
        tensor = np.ascontiguousarray(tensor, dtype=float)  # save_npz streams its samples
        d = grid.d
        expected = (len(times),) + grid.counts + (d, d)
        if tensor.shape != expected:
            raise ValueError(f"tensor shape {tensor.shape} does not match {expected}")
        # each off-diagonal pair must agree up to round-off on the scale of the
        # finite entries; a NaN agrees with nothing, an infinity only with itself
        i, j = np.triu_indices(d, 1)
        scale = max((np.max(np.abs(s), where=np.isfinite(s), initial=1.0) for s in tensor),
                    default=1.0)
        if not all(np.isclose(s[..., i, j], s[..., j, i], rtol=0.0, atol=1e-12 * scale).all()
                   for s in tensor):
            raise ValueError("stress matrices must be symmetric")
        self.grid = grid
        self.times = times
        self.tensor = tensor

    def trace_integrals(self) -> np.ndarray:
        """Integral of the trace measure over the domain at each sample."""
        tr = np.trace(self.tensor, axis1=-2, axis2=-1)
        return np.sum(tr, axis=tuple(range(1, tr.ndim))) * self.grid.cell_volume

    def norm_scale(self) -> float:
        """Largest cell Frobenius norm, the scale for PSD tolerances; 0.0
        without samples."""
        fro = [np.sqrt(np.sum(s**2, axis=(-2, -1))).max() for s in self.tensor]
        return float(np.max(fro)) if fro else 0.0

    def min_eigenvalue(self) -> float:
        """Smallest eigenvalue over all cells and sample times."""
        return float(np.min([symmetric_min_eigenvalues(s).min() for s in self.tensor]))

    def save_npz(self, path) -> None:
        """Write the field to ``path`` byte for byte as ``np.savez(path,
        tensor=..., times=..., counts=..., lower=..., upper=...)`` would, but
        the stress one sample at a time: ``np.savez`` copies the whole stress
        into one bytes object first."""
        with zipfile.ZipFile(path, "w", allowZip64=True) as npz:
            with npz.open("tensor.npy", "w", force_zip64=True) as f:
                npy.write_array_header_1_0(f, npy.header_data_from_array_1_0(self.tensor))
                for sample in self.tensor:
                    f.write(sample.tobytes())
            for name, value in (("times", self.times), ("counts", self.grid.counts),
                                ("lower", self.grid.lower), ("upper", self.grid.upper)):
                with npz.open(f"{name}.npy", "w", force_zip64=True) as f:
                    npy.write_array(f, np.asanyarray(value))

    @staticmethod
    def load_npz(path, grid: Grid) -> "ReynoldsField":
        """Read a field written by :meth:`save_npz` onto ``grid``, which must
        have the stored cell counts and bounds."""
        with np.load(path) as data:
            stored = tuple(tuple(data[k].tolist()) for k in ("counts", "lower", "upper"))
            if stored != (grid.counts, grid.lower, grid.upper):
                raise ValueError(f"the field is stored on counts {stored[0]}, lower "
                                 f"{stored[1]}, upper {stored[2]}, not on {grid}")
            return ReynoldsField(grid, data["times"], data["tensor"])
