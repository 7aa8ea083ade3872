"""Correctness checks of the program's outputs.

Two kinds of check decide whether an operation failed:

* invariants that need no reference: exact mass conservation of every
  bundle at every sample (the walls are reflective), and positive
  semi-definiteness of the Reynolds stress;
* comparison with the values stored for the variant in
  ``reference/<workload>.json``, exact or within a relative tolerance.

The sha256 of the deterministic outputs is compared as well, but a
mismatch is only counted: a change may move round-off legitimately, and
the count says when outputs stopped being byte-identical.

The checks read the output files with their own code and use no eulerlab
function, so a broken program cannot vouch for its own outputs.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

MASS_RTOL = 1e-12
PSD_FACTOR = 1e-10


class Observation:
    """What one operation produced, as checked values plus a digest."""

    def __init__(self):
        self.values = {}     # name -> JSON value, compared with the reference
        self.rules = {}      # name -> None (exact) or (rtol, floor)
        self.failures = []   # invariant violations
        self.digest = None

    def exact(self, name: str, value) -> None:
        self.values[name] = value
        self.rules[name] = None

    def close(self, name: str, value, rtol: float, floor: float = 0.0) -> None:
        """Numbers that must agree within rtol * max(|reference|, floor)."""
        self.values[name] = value
        self.rules[name] = (rtol, floor)

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)


def compare(obs: Observation, ref: dict) -> list:
    """Messages for every value that differs from the reference."""
    bad = []
    for name, rule in obs.rules.items():
        if name not in ref:
            bad.append(f"{name}: no reference value")
            continue
        got, want = obs.values[name], ref[name]
        if rule is None:
            if got != want:
                bad.append(f"{name}: {got!r} != reference {want!r}")
            continue
        rtol, floor = rule
        g = np.asarray(got, dtype=float)
        w = np.asarray(want, dtype=float)
        if g.shape != w.shape:
            bad.append(f"{name}: shape {g.shape} != reference {w.shape}")
            continue
        with np.errstate(invalid="ignore"):
            ok = (g == w) | (np.abs(g - w) <= rtol * np.maximum(np.abs(w), floor))
        if not np.all(ok):
            k = int(np.argmin(ok.ravel()))
            bad.append(f"{name}: {float(g.ravel()[k])!r} differs from reference "
                       f"{float(w.ravel()[k])!r} beyond rtol {rtol:g}")
    return bad


def read_json(path: str) -> dict:
    with open(path) as f:
        return json.load(f)


def bundle_masses(bundle: str) -> np.ndarray:
    """Cell sum of the density at every sample of a trajectory bundle."""
    meta = read_json(os.path.join(bundle, "meta.json"))
    col = len(meta["grid"]["counts"])  # columns i[,j],rho,...
    return np.array([
        np.sum(np.loadtxt(os.path.join(bundle, f"state_{k:06d}.csv"), delimiter=",",
                          skiprows=1, usecols=col, ndmin=1))
        for k in range(len(meta["times"]))])


def bundle_energy(bundle: str) -> list:
    return np.loadtxt(os.path.join(bundle, "energy.csv"), delimiter=",", skiprows=1,
                      usecols=1, ndmin=1).tolist()


def check_mass(obs: Observation, bundle: str, initial_mass: float) -> None:
    """Every sample holds the initial mass to MASS_RTOL."""
    masses = bundle_masses(bundle)
    tol = MASS_RTOL * initial_mass
    drift = np.abs(masses - initial_mass)
    k = int(np.argmax(drift))
    obs.require(drift[k] <= tol,
                f"{bundle}: mass {float(masses[k])!r} at sample {k} differs from the initial "
                f"{initial_mass!r} by {drift[k] / initial_mass:.3e} relative")


def min_eigenvalues(tensor: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of each symmetric 1x1 or 2x2 matrix."""
    if tensor.shape[-1] == 1:
        return tensor[..., 0, 0]
    a, b, c = tensor[..., 0, 0], tensor[..., 0, 1], tensor[..., 1, 1]
    return 0.5 * (a + c) - np.sqrt((0.5 * (a - c)) ** 2 + b * b)


def check_psd(obs: Observation, npz_path: str) -> None:
    """Reynolds min-eigenvalue >= -PSD_FACTOR * its largest cell norm."""
    with np.load(npz_path) as data:
        tensor = data["tensor"]
    lam = float(np.min(min_eigenvalues(tensor)))
    scale = float(np.max(np.sqrt(np.sum(tensor ** 2, axis=(-2, -1)))))
    obs.require(lam >= -PSD_FACTOR * max(scale, 1e-300),
                f"{npz_path}: Reynolds min eigenvalue {lam!r} below "
                f"-{PSD_FACTOR:g} x norm {scale!r}")


def digest_tree(root: str) -> str:
    """sha256 over the relative paths and contents of every file under
    root; an ``.npz`` contributes its arrays, since the zip container
    stores a write time."""
    h = hashlib.sha256()
    if os.path.isfile(root):
        paths, base = [root], os.path.dirname(root)
    else:
        paths = sorted(os.path.join(d, f) for d, _, files in os.walk(root) for f in files)
        base = root
    for path in paths:
        h.update(os.path.relpath(path, base).encode() + b"\0")
        if path.endswith(".npz"):
            with np.load(path) as data:
                for key in sorted(data.files):
                    h.update(key.encode() + data[key].tobytes())
        else:
            # in chunks: a whole 12 MB profile would inflate the peak RSS metric
            with open(path, "rb") as f:
                for chunk in iter(lambda: f.read(1 << 20), b""):
                    h.update(chunk)
        h.update(b"\0")
    return h.hexdigest()
