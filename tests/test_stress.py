"""ReynoldsField accepts only a tensor of its grid's shape whose off-diagonal
pairs agree; non-finite entries are judged, not skipped.  The convexity gap
adds its pressure term entry by entry with the bits of the identity
product."""

import warnings

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerlab.dissipative import certify
from eulerlab.eos import GasLaw, pressure
from eulerlab.fields import FluidState, Grid, integrate_energy
from eulerlab.stress import ReynoldsField, convexity_gap, kinetic_tensor
from eulerlab.trajectory import Trajectory

LAW = GasLaw(a=1.0, gamma=1.4)
G2 = Grid(counts=(4, 3), lower=(0.0, 0.0), upper=(1.0, 1.0))
TIMES = [0.0, 0.5, 1.0]


def _tensor(*edits):
    """A zero stress on ``G2`` with each ``(index, value)`` of ``edits`` set."""
    tensor = np.zeros((len(TIMES),) + G2.counts + (2, 2))
    for index, value in edits:
        tensor[index] = value
    return tensor


def test_shape_of_another_grid_rejected():
    with pytest.raises(ValueError, match="does not match"):
        ReynoldsField(G2, TIMES, np.zeros((len(TIMES), 4, 3, 1, 1)))


@pytest.mark.parametrize("edits", [
    [((1, 2, 0, 0, 1), np.nan), ((1, 2, 0, 1, 0), 5.0)],
    [((1, 2, 0, 0, 1), np.nan), ((1, 2, 0, 1, 0), np.nan)],
    [((0, 0, 0, 1, 1), np.inf), ((1, 2, 0, 0, 1), 1.0), ((1, 2, 0, 1, 0), -1.0)],
    [((1, 2, 0, 0, 1), np.inf), ((1, 2, 0, 1, 0), 5.0)],
    [((2, 3, 2, 0, 1), np.nan)],
    [((2, 3, 2, 1, 0), -np.inf)],
], ids=["nan-off-diagonal", "nan-pair", "asymmetric-beside-infinite-diagonal",
        "infinite-off-diagonal", "nan-in-last-sample", "infinite-in-last-sample"])
def test_asymmetric_or_nan_pair_rejected(edits):
    with pytest.raises(ValueError, match="must be symmetric"):
        ReynoldsField(G2, TIMES, _tensor(*edits))


def test_round_off_asymmetry_accepted():
    ReynoldsField(G2, TIMES, _tensor(((1, 2, 0, 0, 1), 1.0), ((1, 2, 0, 1, 0), 1.0 + 1e-13)))


@pytest.mark.parametrize("gap, symmetric", [(0.5e-12, True), (2e-12, False)])
def test_symmetry_tolerance_is_1e_12_of_the_largest_finite_entry(gap, symmetric):
    # the scale is the largest finite |entry|: 1e3, on the middle sample
    scale = 1e3
    tensor = _tensor(((1, 1, 1, 0, 0), -scale), ((2, 0, 0, 1, 1), np.inf),
                     ((2, 3, 2, 0, 1), 1.0), ((2, 3, 2, 1, 0), 1.0 + gap * scale))
    if symmetric:
        ReynoldsField(G2, TIMES, tensor)
    else:
        with pytest.raises(ValueError, match="must be symmetric"):
            ReynoldsField(G2, TIMES, tensor)


@pytest.mark.parametrize("edits", [
    [((1, 2, 0, 0, 0), np.inf)],
    [((1, 2, 0, 1, 1), -np.inf)],
    [((1, 2, 0, 0, 1), np.inf), ((1, 2, 0, 1, 0), np.inf)],
], ids=["+inf-diagonal", "-inf-diagonal", "infinite-pair"])
def test_infinite_symmetric_entry_accepted_and_fails_psd_margin(edits):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        R = ReynoldsField(G2, TIMES, _tensor(*edits))
    s = FluidState.constant(G2, 1.0, [0.3, -0.2])
    e = integrate_energy(s, LAW)
    traj = Trajectory(G2, LAW, TIMES, [s] * len(TIMES), [e] * len(TIMES))
    cert = certify(traj, R)
    [psd] = [c for c in cert.checks if c[0] == "stress_psd_margin"]
    assert not psd[3] and not cert.passed


# signed zeros and non-finite values beside moderate ones: a pressure
# difference of -0.0, +-inf or NaN is where a product with the identity
# leaves its mark (-0.0 times 0.0 is -0.0, inf times 0.0 is NaN)
_ENTRIES = st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]) | st.floats(-4.0, 4.0)
_DENSITIES = st.sampled_from([0.0, -0.0, np.inf, np.nan]) | st.floats(0.0, 4.0)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), d=st.integers(1, 2))
def test_convexity_gap_has_the_bits_of_the_identity_product(data, d):
    cells = (3, 2)

    def draw(shape, elements=_ENTRIES):
        return data.draw(hnp.arrays(float, shape, elements=elements))

    kin_mean, p_mean = draw(cells + (d, d)), draw(cells)
    rho, m = draw(cells, _DENSITIES), draw(cells + (d,))
    with np.errstate(all="ignore"):
        expected = kin_mean - kinetic_tensor(rho, m)
        expected += (p_mean - pressure(rho, LAW))[..., None, None] * np.eye(d)
        gap = convexity_gap(kin_mean, p_mean, rho, m, LAW)
    assert gap is kin_mean
    assert gap.tobytes() == expected.tobytes()
