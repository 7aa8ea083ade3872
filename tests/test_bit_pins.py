"""sha256 pins of the ensemble, combination, selection and certificate
outputs on seeded 3-member ensembles with vacuum cells and -0.0 momentum.

The perfbench inputs carry neither vacuum nor signed zeros, so only these
pins see a change in the sign of a zero (Python ``sum`` starts from +0,
``np.sum`` does not) or in the order of a reduction.
"""

import hashlib
import json

import numpy as np
import pytest

from eulerlab.dissipative import certificate_doc, certify, compatibility, estimate_reynolds
from eulerlab.eos import GasLaw
from eulerlab.fields import FluidState, Grid, integrate_energy
from eulerlab.selection import F1, F2
from eulerlab.trajectory import Trajectory, convex_combine

LAW = GasLaw(a=1.0, gamma=1.4)
SHAPES = {"1d": (16,), "2d": (12, 10)}


def _ensemble(counts, seed, members=3, n=5):
    """Members share a vacuum set, a set of cells whose x-momentum is -0.0
    and the sign pattern of the vacuum momentum; each adds vacuum cells of
    its own.  Energy curves sit a decreasing slack above the mean energy."""
    d = len(counts)
    g = Grid(counts=counts, lower=(0.0,) * d, upper=(1.0,) * d, boundary=("reflective",) * d)
    rng = np.random.default_rng(seed)
    times = 0.25 * np.arange(n)
    shared_vac = rng.random(counts) < 0.15
    neg_zero = ~shared_vac & (rng.random(counts) < 0.2)
    vac_sign = np.where(rng.random(counts) < 0.5, -0.0, 0.0)
    out = []
    for _ in range(members):
        rho = rng.uniform(0.2, 2.0, (n,) + counts)
        m = rng.uniform(-1.0, 1.0, (n,) + counts + (d,))
        vac = shared_vac | (rng.random((n,) + counts) < 0.05)
        rho[vac] = 0.0
        m[vac] = np.broadcast_to(vac_sign[..., None], (n,) + counts + (d,))[vac]
        m[:, neg_zero, 0] = -0.0
        states = [FluidState(g, rho[k], m[k]) for k in range(n)]
        mean = np.array([integrate_energy(s, LAW) for s in states])
        slack = np.linspace(0.3, 0.0, n)
        energy = np.maximum.accumulate(mean[::-1])[::-1] + slack
        out.append(Trajectory(g, LAW, times, states, energy, e0=energy[0] + 0.1))
    return out


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=float)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _fields(traj):
    return (np.stack([s.rho for s in traj.states]), np.stack([s.m for s in traj.states]))


# a change of storage layout or loop structure must leave every digest in place
REYNOLDS_DIGESTS = {
    "1d": "15fea54861a3921d57c541234ee87e4829a17e3b0bfc80626bcbf8db7a725b30",
    "2d": "513376c9514e4b7e8eb81d7d865a15e9c8f7d4acd8f852bef52918411eb8bc9f",
}
COMBINE_DIGESTS = {
    ("1d", 0.3): "b5dfbe5beae7f1e80ea2d5b243aea851b9ac263a38651cad219d1ad0ae6f8d69",
    ("1d", 1.0): "04b1c0212a8c1d812f8156012217d3871fa79b648718a49eb543b20993dfeaf1",
    ("2d", 0.3): "6cb40f0ea3c07abc7ee7d7a28e075e12eb826ca056f6200d2437f998bdb8961a",
    ("2d", 1.0): "8f07d7eebc6529ef514ff54958a80e75ad2789653a724e924f99c120940be67a",
}
FUNCTIONAL_DIGESTS = {
    "1d": "466522f1aec2a9baee85badc604247a02838e16cffb483c51a783524051fdab5",
    "2d": "d8b219293cca6392a7ed31e3922a84df488b0315849e52ba98e057254dd3f73e",
}
CERTIFY_DIGESTS = {
    "1d": "807c3a2f08c1089b24514ed68df26623f1704a65e3febab64f5b45cdf4446dbf",
    "2d": "d8cf22ddb280935259c137f4cb1d96e86ccd8a3016dc109e83ab595e60741e0e",
}


@pytest.mark.parametrize("dim", sorted(SHAPES))
def test_estimate_reynolds_bits_pinned(dim):
    members = _ensemble(SHAPES[dim], seed=3)
    R, avg = estimate_reynolds(members)
    rho, m = _fields(avg)
    # every member holds -0.0 in some cells; the member average starts from +0
    assert (m == 0).any() and not np.signbit(m[m == 0]).any()
    assert _digest(R.tensor, R.times, rho, m, avg.mean_energies, avg.energy,
                   [avg.e0]) == REYNOLDS_DIGESTS[dim]


@pytest.mark.parametrize("lam", [0.3, 1.0])
@pytest.mark.parametrize("dim", sorted(SHAPES))
def test_convex_combine_bits_pinned(dim, lam):
    u, v, _ = _ensemble(SHAPES[dim], seed=5)
    comb, gap = convex_combine(u, v, lam)
    rho, m = _fields(comb)
    assert np.signbit(m[m == 0]).any()  # lam * -0.0 + (1 - lam) * -0.0 stays -0.0
    assert _digest(gap.tensor, rho, m, comb.mean_energies, comb.energy,
                   [comb.e0]) == COMBINE_DIGESTS[(dim, lam)]


@pytest.mark.parametrize("dim", sorted(SHAPES))
def test_selection_functionals_bits_pinned(dim):
    members = _ensemble(SHAPES[dim], seed=3)
    _, avg = estimate_reynolds(members)
    values = [[F1(tr), F2(tr, variant="full"), F2(tr, variant="momentum-only")]
              for tr in members + [avg]]
    assert _digest(values) == FUNCTIONAL_DIGESTS[dim]


@pytest.mark.parametrize("dim", sorted(SHAPES))
def test_certify_bits_pinned(dim):
    members = _ensemble(SHAPES[dim], seed=3)
    R, avg = estimate_reynolds(members)
    h = hashlib.sha256()
    for traj, stress in ((avg, R), (members[0], None)):
        cert = certify(traj, stress)
        h.update((json.dumps(certificate_doc(cert), indent=1, sort_keys=True) + "\n").encode())
        h.update(_digest([c[1] for c in cert.checks], traj.times,
                         *compatibility(traj, stress)).encode())
    assert h.hexdigest() == CERTIFY_DIGESTS[dim]
