"""sha256 pins of the ensemble, combination, selection and certificate
outputs on seeded 3-member ensembles with vacuum cells and -0.0 momentum.

The perfbench inputs carry neither vacuum nor signed zeros, so only these
pins see a change in the sign of a zero (Python ``sum`` starts from +0,
``np.sum`` does not) or in the order of a reduction.  A change of storage
layout or loop structure must leave every digest in place.
"""

import json

import numpy as np
import pytest

from eulerlab.dissipative import certificate_doc, certify, compatibility, estimate_reynolds
from eulerlab.eos import GasLaw
from eulerlab.fields import FluidState, Grid, integrate_energy
from eulerlab.selection import F1, F2
from eulerlab.trajectory import Trajectory, convex_combine
from pins import assert_pinned, sha256

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


def _tagged(*arrays):
    """Each array as float64, led by the repr of its shape."""
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=float)
        yield repr(a.shape).encode()
        yield a


def _fields(traj):
    return (np.stack([s.rho for s in traj.states]), np.stack([s.m for s in traj.states]))


@pytest.mark.parametrize("dim", sorted(SHAPES))
def test_estimate_reynolds_bits_pinned(dim):
    members = _ensemble(SHAPES[dim], seed=3)
    R, avg = estimate_reynolds(members)
    rho, m = _fields(avg)
    # every member holds -0.0 in some cells; the member average starts from +0
    assert (m == 0).any() and not np.signbit(m[m == 0]).any()
    assert_pinned(f"bit_pins.reynolds/{dim}",
                  _tagged(R.tensor, R.times, rho, m, avg.mean_energies, avg.energy, [avg.e0]))


@pytest.mark.parametrize("lam", [0.3, 1.0])
@pytest.mark.parametrize("dim", sorted(SHAPES))
def test_convex_combine_bits_pinned(dim, lam):
    u, v, _ = _ensemble(SHAPES[dim], seed=5)
    comb, gap = convex_combine(u, v, lam)
    rho, m = _fields(comb)
    assert np.signbit(m[m == 0]).any()  # lam * -0.0 + (1 - lam) * -0.0 stays -0.0
    assert_pinned(f"bit_pins.combine/{dim}-{lam}",
                  _tagged(gap.tensor, rho, m, comb.mean_energies, comb.energy, [comb.e0]))


@pytest.mark.parametrize("dim", sorted(SHAPES))
def test_selection_functionals_bits_pinned(dim):
    members = _ensemble(SHAPES[dim], seed=3)
    _, avg = estimate_reynolds(members)
    values = [[F1(tr), F2(tr, variant="full"), F2(tr, variant="momentum-only")]
              for tr in members + [avg]]
    assert_pinned(f"bit_pins.functionals/{dim}", _tagged(values))


@pytest.mark.parametrize("dim", sorted(SHAPES))
def test_certify_bits_pinned(dim):
    members = _ensemble(SHAPES[dim], seed=3)
    R, avg = estimate_reynolds(members)
    payload = []
    for traj, stress in ((avg, R), (members[0], None)):
        cert = certify(traj, stress)
        doc = json.dumps(certificate_doc(cert), indent=1, sort_keys=True) + "\n"
        arrays = _tagged([c[1] for c in cert.checks], traj.times, *compatibility(traj, stress))
        payload += [doc.encode(), sha256(arrays).encode()]
    assert_pinned(f"bit_pins.certify/{dim}", payload)
