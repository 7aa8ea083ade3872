"""Discrete Reynolds stress fields.

A ReynoldsField stores one symmetric d x d matrix per cell and sample
time, interpreted as the cell-averaged density of a matrix-valued
measure: integrals against it are cell sums times the cell volume.
"""

from __future__ import annotations

import numpy as np

from .fields import Grid

__all__ = ["ReynoldsField", "kinetic_tensor", "symmetric_min_eigenvalues"]


def kinetic_tensor(rho: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Cell-wise tensor m (x) m / rho, zero on the vacuum set."""
    outer = m[..., :, None] * m[..., None, :]
    return np.divide(outer, rho[..., None, None], out=np.zeros_like(outer),
                     where=(rho > 0)[..., None, None])


def symmetric_min_eigenvalues(tensor: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of each symmetric matrix in a (..., d, d) array."""
    d = tensor.shape[-1]
    if d == 1:
        return tensor[..., 0, 0]
    if d == 2:
        half_tr = 0.5 * (tensor[..., 0, 0] + tensor[..., 1, 1])
        half_dif = 0.5 * (tensor[..., 0, 0] - tensor[..., 1, 1])
        rad = np.sqrt(half_dif**2 + tensor[..., 0, 1] ** 2)
        return half_tr - rad
    return np.linalg.eigvalsh(tensor)[..., 0]


class ReynoldsField:
    """Per-time, per-cell symmetric stress matrices on a grid."""

    __slots__ = ("grid", "times", "tensor")

    def __init__(self, grid: Grid, times, tensor, check: bool = True):
        times = np.asarray(times, dtype=float)
        tensor = np.asarray(tensor, dtype=float)
        d = grid.d
        expected = (len(times),) + grid.counts + (d, d)
        if tensor.shape != expected:
            raise ValueError(f"tensor shape {tensor.shape} does not match {expected}")
        if check:
            asym = np.max(np.abs(tensor - np.swapaxes(tensor, -1, -2)))
            if asym > 1e-12 * max(1.0, float(np.max(np.abs(tensor)))):
                raise ValueError("stress matrices must be symmetric")
        self.grid = grid
        self.times = times
        self.tensor = tensor

    @staticmethod
    def zeros(grid: Grid, times) -> "ReynoldsField":
        times = np.asarray(times, dtype=float)
        d = grid.d
        return ReynoldsField(grid, times, np.zeros((len(times),) + grid.counts + (d, d)))

    @property
    def n_samples(self) -> int:
        return len(self.times)

    def trace_integral(self, k: int) -> float:
        """Integral of the trace measure over the domain at sample k."""
        tr = np.trace(self.tensor[k], axis1=-2, axis2=-1)
        return float(np.sum(tr) * self.grid.cell_volume)

    def trace_integrals(self) -> np.ndarray:
        return np.array([self.trace_integral(k) for k in range(self.n_samples)])

    def norm_scale(self) -> float:
        """Largest cell Frobenius norm, the scale for PSD tolerances."""
        fro = np.sqrt(np.sum(self.tensor**2, axis=(-2, -1)))
        return float(np.max(fro)) if fro.size else 0.0

    def min_eigenvalue(self) -> float:
        """Smallest eigenvalue over all cells and sample times."""
        return float(np.min(symmetric_min_eigenvalues(self.tensor)))

    def save_npz(self, path) -> None:
        np.savez(path,
                 tensor=self.tensor,
                 times=self.times,
                 counts=np.array(self.grid.counts),
                 lower=np.array(self.grid.lower),
                 upper=np.array(self.grid.upper))

    @staticmethod
    def load_npz(path, grid: Grid | None = None) -> "ReynoldsField":
        data = np.load(path)
        if grid is None:
            grid = Grid(counts=tuple(int(n) for n in data["counts"]),
                        lower=tuple(float(x) for x in data["lower"]),
                        upper=tuple(float(x) for x in data["upper"]))
        return ReynoldsField(grid, data["times"], data["tensor"])
