import math

import numpy as np
import pytest

from eulerlab.eos import GasLaw, defect_constant, energy_cellwise, pressure
from eulerlab.stress import kinetic_tensor
from pins import assert_pinned

# power-law values frozen from 50-digit arithmetic
POW_2_14 = 2.6390158215457885
POW_2_14_OVER_04 = 6.5975395538644713


def test_law_validation():
    with pytest.raises(ValueError):
        GasLaw(a=0.0, gamma=2.0)
    with pytest.raises(ValueError):
        GasLaw(a=-1.0, gamma=2.0)
    with pytest.raises(ValueError):
        GasLaw(a=1.0, gamma=1.0)
    for a, gamma in ((np.inf, 2.0), (1.0, np.inf), (np.nan, 2.0), (1.0, np.nan)):
        with pytest.raises(ValueError, match="finite"):
            GasLaw(a=a, gamma=gamma)


def test_pressure_values():
    assert pressure(3.0, GasLaw(a=1.0, gamma=2.0)) == 9.0
    assert pressure(0.0, GasLaw(a=2.5, gamma=1.7)) == 0.0
    assert pressure(2.0, GasLaw(a=1.0, gamma=1.4)) == pytest.approx(POW_2_14, rel=1e-14)


def test_pressure_monotone():
    law = GasLaw(a=0.7, gamma=1.9)
    rho = np.linspace(0.0, 5.0, 100)
    p = pressure(rho, law)
    assert np.all(np.diff(p) > 0)


def test_pressure_rejects_negative_density():
    with pytest.raises(ValueError):
        pressure(-0.1, GasLaw())
    with pytest.raises(ValueError):
        energy_cellwise(np.array([1.0, -2.0]), np.zeros((2, 1)), GasLaw())


def _potential(rho, law):
    """Pressure potential P(rho): the extended energy at zero momentum."""
    return energy_cellwise(rho, [0.0], law)


def test_pressure_potential_values():
    assert _potential(1.0, GasLaw(a=1.0, gamma=2.0)) == 1.0
    assert _potential(0.0, GasLaw()) == 0.0
    assert _potential(2.0, GasLaw(a=1.0, gamma=1.4)) == pytest.approx(
        POW_2_14_OVER_04, rel=1e-14)


def test_potential_derivative_identity():
    # P'(rho)*rho - P(rho) == p(rho), via central differences of P
    law = GasLaw(a=1.3, gamma=1.6)
    for rho in (0.5, 1.0, 2.7, 10.0):
        h = 1e-6 * rho
        dP = (_potential(rho + h, law) - _potential(rho - h, law)) / (2 * h)
        lhs = dP * rho - _potential(rho, law)
        assert lhs == pytest.approx(float(pressure(rho, law)), rel=1e-6)


def test_energy_values():
    law = GasLaw(a=1.0, gamma=2.0)
    assert energy_cellwise(1.0, [0.0], law) == 1.0
    assert energy_cellwise(0.0, [0.0], law) == 0.0
    assert energy_cellwise(0.0, [1.0, 0.0], law) == math.inf
    assert energy_cellwise(2.0, [2.0], GasLaw(a=1.0, gamma=1.4)) == pytest.approx(
        1.0 + POW_2_14_OVER_04, rel=1e-14)
    assert energy_cellwise(3.0, [-4.0, 0.5], law) == pytest.approx(16.25 / 6.0 + 9.0, rel=1e-15)
    with pytest.raises(ValueError):
        energy_cellwise(-1.0, [0.0], law)


def test_energy_cellwise_matches_scalar():
    # every cell of an array call equals the call on that cell's scalars
    law = GasLaw(a=2.0, gamma=1.4)
    rho = np.array([0.0, 0.0, 1.5, 3.0])
    m = np.array([[0.0], [2.0], [1.0], [-4.0]])
    e = energy_cellwise(rho, m, law)
    assert e[0] == 0.0
    assert e[1] == math.inf
    for k in range(len(rho)):
        assert e[k] == energy_cellwise(rho[k], m[k], law)


def test_energy_convexity_randomized():
    rng = np.random.default_rng(12345)
    law = GasLaw(a=1.0, gamma=1.4)
    for d in (1, 2) * 250:
        r1, r2 = rng.uniform(0.05, 4.0, size=2)
        m1, m2 = rng.uniform(-3.0, 3.0, size=(2, d))
        lam = rng.uniform(0.0, 1.0)
        e_mid = energy_cellwise(lam * r1 + (1 - lam) * r2, lam * m1 + (1 - lam) * m2, law)
        e_sum = lam * energy_cellwise(r1, m1, law) + (1 - lam) * energy_cellwise(r2, m2, law)
        assert e_mid <= e_sum + 1e-12 * max(1.0, abs(e_sum))


def test_energy_strict_convexity_randomized():
    rng = np.random.default_rng(54321)
    law = GasLaw(a=1.0, gamma=2.0)
    found = 0
    for d in (1, 2) * 250:
        r1, r2 = rng.uniform(0.1, 3.0, size=2)
        m1, m2 = rng.uniform(-2.0, 2.0, size=(2, d))
        if math.hypot(r1 - r2, *(m1 - m2)) < 1e-3:
            continue
        found += 1
        e_mid = energy_cellwise(0.5 * (r1 + r2), 0.5 * (m1 + m2), law)
        e_avg = 0.5 * energy_cellwise(r1, m1, law) + 0.5 * energy_cellwise(r2, m2, law)
        assert e_avg - e_mid >= 1e-10
    assert found > 400


def test_defect_constant_printed_formula():
    assert defect_constant(1, GasLaw(a=1.0, gamma=2.0)) == 0.5
    assert defect_constant(2, GasLaw(a=1.0, gamma=5.0 / 3.0)) == 0.5
    assert defect_constant(1, GasLaw(a=1.0, gamma=1.4)) == 0.5


def test_defect_constant_from_dimension_and_gamma():
    assert defect_constant(2, GasLaw(a=1.0, gamma=3.0)) == 0.25
    assert defect_constant(1, GasLaw(a=1.0, gamma=4.0)) == 1.0 / 3.0
    assert defect_constant(2, GasLaw(a=1.0, gamma=2.0)) == 0.5


def test_defect_constant_override_and_errors():
    law = GasLaw(a=1.0, gamma=2.0)
    with pytest.raises(ValueError):
        defect_constant(3, law)


def _vacuum_fields(counts):
    """Seeded raw fields: every 5th cell vacuum, every 10th with no momentum."""
    rng = np.random.default_rng(7)
    rho = rng.uniform(0.1, 3.0, counts)
    m = rng.normal(size=counts + (len(counts),))
    rho.reshape(-1)[::5] = 0.0
    m.reshape(-1, len(counts))[::10] = 0.0
    return rho, m


@pytest.mark.parametrize("counts", [(16, 12), (40,)], ids=["2d", "1d"])
@pytest.mark.parametrize("kind", ["energy", "kinetic"])
def test_cellwise_division_bits_pinned(kind, counts):
    rho, m = _vacuum_fields(counts)
    if kind == "kinetic":
        out = kinetic_tensor(rho, m)
    else:
        out = energy_cellwise(rho, m, GasLaw(a=0.7, gamma=1.9))
    assert_pinned(f"eos.cellwise_division/{kind}-{len(counts)}d", [out])
