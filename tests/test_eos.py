import hashlib
import math

import numpy as np
import pytest

from eulerlab.eos import (GasLaw, defect_constant, energy, energy_cellwise,
                          pressure, pressure_potential)
from eulerlab.stress import kinetic_tensor

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
        pressure_potential(np.array([1.0, -2.0]), GasLaw())


def test_pressure_potential_values():
    assert pressure_potential(1.0, GasLaw(a=1.0, gamma=2.0)) == 1.0
    assert pressure_potential(0.0, GasLaw()) == 0.0
    assert pressure_potential(2.0, GasLaw(a=1.0, gamma=1.4)) == pytest.approx(
        POW_2_14_OVER_04, rel=1e-14)


def test_potential_derivative_identity():
    # P'(rho)*rho - P(rho) == p(rho), via central differences of P
    law = GasLaw(a=1.3, gamma=1.6)
    for rho in (0.5, 1.0, 2.7, 10.0):
        h = 1e-6 * rho
        dP = (pressure_potential(rho + h, law) - pressure_potential(rho - h, law)) / (2 * h)
        lhs = dP * rho - pressure_potential(rho, law)
        assert lhs == pytest.approx(float(pressure(rho, law)), rel=1e-6)


def test_energy_values():
    law = GasLaw(a=1.0, gamma=2.0)
    assert energy(1.0, [0.0], law) == 1.0
    assert energy(0.0, [0.0], law) == 0.0
    assert energy(0.0, [1.0, 0.0], law) == math.inf
    assert energy(2.0, [2.0], GasLaw(a=1.0, gamma=1.4)) == pytest.approx(
        1.0 + POW_2_14_OVER_04, rel=1e-14)
    with pytest.raises(ValueError):
        energy(-1.0, [0.0], law)


def test_energy_cellwise_matches_scalar():
    law = GasLaw(a=2.0, gamma=1.4)
    rho = np.array([0.0, 0.0, 1.5, 3.0])
    m = np.array([[0.0], [2.0], [1.0], [-4.0]])
    e = energy_cellwise(rho, m, law)
    assert e[0] == 0.0
    assert e[1] == math.inf
    assert e[2] == pytest.approx(energy(1.5, [1.0], law))
    assert e[3] == pytest.approx(energy(3.0, [-4.0], law))


def test_energy_convexity_randomized():
    rng = np.random.default_rng(12345)
    law = GasLaw(a=1.0, gamma=1.4)
    for _ in range(500):
        r1, r2 = rng.uniform(0.05, 4.0, size=2)
        m1, m2 = rng.uniform(-3.0, 3.0, size=2)
        lam = rng.uniform(0.0, 1.0)
        e_mid = energy(lam * r1 + (1 - lam) * r2, [lam * m1 + (1 - lam) * m2], law)
        e_sum = lam * energy(r1, [m1], law) + (1 - lam) * energy(r2, [m2], law)
        assert e_mid <= e_sum + 1e-12 * max(1.0, abs(e_sum))


def test_energy_strict_convexity_randomized():
    rng = np.random.default_rng(54321)
    law = GasLaw(a=1.0, gamma=2.0)
    found = 0
    for _ in range(500):
        r1, r2 = rng.uniform(0.1, 3.0, size=2)
        m1, m2 = rng.uniform(-2.0, 2.0, size=2)
        if math.hypot(r1 - r2, m1 - m2) < 1e-3:
            continue
        found += 1
        e_mid = energy(0.5 * (r1 + r2), [0.5 * (m1 + m2)], law)
        e_avg = 0.5 * energy(r1, [m1], law) + 0.5 * energy(r2, [m2], law)
        assert e_avg - e_mid >= 1e-10
    assert found > 400


def test_defect_constant_printed_formula():
    assert defect_constant(1, GasLaw(a=1.0, gamma=2.0)) == 0.5
    assert defect_constant(2, GasLaw(a=1.0, gamma=5.0 / 3.0)) == 0.5
    assert defect_constant(1, GasLaw(a=1.0, gamma=1.4)) == 0.5


def test_defect_constant_override_and_errors():
    law = GasLaw(a=1.0, gamma=2.0)
    assert defect_constant(1, law, override=0.25) == 0.25
    with pytest.raises(ValueError):
        defect_constant(3, law)
    with pytest.raises(ValueError):
        defect_constant(1, law, override=-1.0)


def _vacuum_fields(counts):
    """Seeded raw fields: every 5th cell vacuum, every 10th with no momentum."""
    rng = np.random.default_rng(7)
    rho = rng.uniform(0.1, 3.0, counts)
    m = rng.normal(size=counts + (len(counts),))
    rho.reshape(-1)[::5] = 0.0
    m.reshape(-1, len(counts))[::10] = 0.0
    return rho, m


# sha256 of the output bytes on ``_vacuum_fields``: certificates and
# bundles are compared byte for byte, so the vacuum values (0, inf) and
# the division in every other cell are pinned bit for bit
VACUUM_DIGESTS = {
    ("kinetic", (40,)): "bc8c7b11683d324e4e396d018860a25e4cc51404c00a37da5c396bf6639458c5",
    ("kinetic", (16, 12)): "b9649aa9232e119b873959cf54b4f59059bd4e08459e1d34ce2952c7e2690993",
    ("energy", (40,)): "c4b27185c987b67a9503318cdf9b981f4e8c153f6dced06440cceebc89dbdf0a",
    ("energy", (16, 12)): "bb1fad425a640934442882c3d67d50e6ef79313bfe89c39492e51b7bdcc3e3ba",
}


@pytest.mark.parametrize("kind, counts", sorted(VACUUM_DIGESTS),
                         ids=[f"{k}-{len(c)}d" for k, c in sorted(VACUUM_DIGESTS)])
def test_cellwise_division_bits_pinned(kind, counts):
    rho, m = _vacuum_fields(counts)
    if kind == "kinetic":
        out = kinetic_tensor(rho, m)
    else:
        out = energy_cellwise(rho, m, GasLaw(a=0.7, gamma=1.9))
    assert hashlib.sha256(out.tobytes()).hexdigest() == VACUUM_DIGESTS[(kind, counts)]
