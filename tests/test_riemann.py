import hashlib
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from eulerlab.eos import GasLaw, pressure, sound_speed
from eulerlab.riemann import RiemannData, sample_cell_averages, solve_riemann

LAW2 = GasLaw(a=1.0, gamma=2.0)

# star state for a=1, gamma=2, (1, 0) | (0.25, 0), frozen from a 40-digit
# bisection on the wave curves
STAR_RHO = 0.5517469269185533
STAR_U = 0.7274808104991015
RAREF_HEAD = -1.4142135623730951
RAREF_TAIL = -0.3229923466244429
SHOCK_SPEED = 1.3302051016196047


def _sample(sol, xi):
    """The self-similar solution (rho, u) at the one point xi, as two floats."""
    rho, u = sol.sample_array(np.array([xi], dtype=float))
    return float(rho[0]), float(u[0])


def test_data_validation():
    with pytest.raises(ValueError):
        RiemannData(0.0, 0.0, 1.0, 0.0, LAW2)
    with pytest.raises(ValueError):
        RiemannData(1.0, 0.0, -1.0, 0.0, LAW2)


def test_equal_states_constant_solution():
    data = RiemannData(0.8, 0.3, 0.8, 0.3, LAW2)
    sol = solve_riemann(data)
    for xi in (-5.0, -0.1, 0.0, 0.4, 3.0):
        rho, u = _sample(sol, xi)
        assert rho == pytest.approx(0.8, rel=1e-11)
        assert u == pytest.approx(0.3, rel=1e-11, abs=1e-11)


def test_symmetric_collision_zero_velocity_at_center():
    data = RiemannData(1.0, 0.5, 1.0, -0.5, LAW2)
    rho, u = _sample(solve_riemann(data), 0.0)
    assert u == pytest.approx(0.0, abs=1e-10)
    assert rho > 1.0  # compression


def test_star_state_oracle():
    sol = solve_riemann(RiemannData(1.0, 0.0, 0.25, 0.0, LAW2))
    assert sol.rho_star == pytest.approx(STAR_RHO, abs=1e-10)
    assert sol.u_star == pytest.approx(STAR_U, abs=1e-10)


def test_wave_structure_sampling():
    sol = solve_riemann(RiemannData(1.0, 0.0, 0.25, 0.0, LAW2))
    # far fields
    assert _sample(sol, -10.0) == pytest.approx((1.0, 0.0))
    assert _sample(sol, 10.0) == pytest.approx((0.25, 0.0))
    # star region between rarefaction tail and shock
    rho, u = _sample(sol, 0.5 * (RAREF_TAIL + SHOCK_SPEED))
    assert rho == pytest.approx(STAR_RHO, abs=1e-10)
    assert u == pytest.approx(STAR_U, abs=1e-10)
    # inside the fan the characteristic relation xi = u - c holds
    xi = 0.5 * (RAREF_HEAD + RAREF_TAIL)
    rho, u = _sample(sol, xi)
    assert u - float(sound_speed(rho, LAW2)) == pytest.approx(xi, abs=1e-10)
    # just across the shock
    assert _sample(sol, SHOCK_SPEED - 1e-6)[0] == pytest.approx(STAR_RHO, abs=1e-8)
    assert _sample(sol, SHOCK_SPEED + 1e-6)[0] == pytest.approx(0.25, abs=1e-8)


def test_rankine_hugoniot_on_shock():
    # mass and momentum jump conditions across the right shock
    sol = solve_riemann(RiemannData(1.0, 0.0, 0.25, 0.0, LAW2))
    rs, us = sol.rho_star, sol.u_star
    rr, ur = 0.25, 0.0
    s = SHOCK_SPEED
    assert rs * (us - s) == pytest.approx(rr * (ur - s), rel=1e-9)
    lhs = rs * us * (us - s) + float(rs**2)
    rhs = rr * ur * (ur - s) + float(rr**2)
    assert lhs == pytest.approx(rhs, rel=1e-9)


def test_vacuum_error():
    with pytest.raises(ValueError, match="vacuum"):
        solve_riemann(RiemannData(0.1, -5.0, 0.1, 5.0, LAW2))


def test_two_shocks_when_colliding():
    sol = solve_riemann(RiemannData(1.0, 1.0, 1.0, -1.0, LAW2))
    assert sol.rho_star > 1.0
    assert sol.u_star == pytest.approx(0.0, abs=1e-10)


def test_two_rarefactions_when_diverging():
    sol = solve_riemann(RiemannData(1.0, -0.3, 1.0, 0.3, LAW2))
    assert sol.rho_star < 1.0
    assert sol.u_star == pytest.approx(0.0, abs=1e-10)


def test_sample_array_matches_scalar():
    sol = solve_riemann(RiemannData(1.0, 0.0, 0.25, 0.0, LAW2))
    xi = np.linspace(-2.0, 2.0, 41)
    rho, u = sol.sample_array(xi)
    for k in (0, 7, 20, 33, 40):
        r, v = _sample(sol, float(xi[k]))
        assert rho[k] == r and u[k] == v


def test_cell_averages_of_jump_datum():
    # away from the interface the averages reproduce the datum exactly;
    # the interface cell holds a mixture (approximate: the fixed Gauss
    # rule does not resolve the jump location exactly)
    sol = solve_riemann(RiemannData(1.0, 0.0, 0.25, 0.0, LAW2))
    h = 0.25
    centers = np.array([-0.375, -0.125, 0.125, 0.375]) + 0.05
    rho, m = sample_cell_averages(sol, centers, h, 0.0)
    assert rho[0] == pytest.approx(1.0, rel=1e-12)
    assert rho[-1] == pytest.approx(0.25, rel=1e-12)
    assert np.all(m == 0.0)
    # interface at 0 sits inside the cell centered at -0.075
    frac_left = (0.0 - (-0.075 - h / 2)) / h
    exact_mix = frac_left * 1.0 + (1 - frac_left) * 0.25
    assert rho[1] == pytest.approx(exact_mix, abs=0.05)
    assert 0.25 < rho[1] < 1.0


# (rho_l, u_l, rho_r, u_r): the three wave patterns of the perfbench
# riemann-exact workload, an asymmetric 2-rarefaction and a 1-shock with
# a 2-rarefaction
PINNED_DATA = {
    "2-shock": (1.0, 0.5, 1.0, -0.5),
    "2-rarefaction": (1.0, -0.5, 1.0, 0.5),
    "mixed": (1.0, 0.0, 0.25, 0.0),
    "2-rarefaction-asym": (1.2, -0.2, 0.6, 0.4),
    "1-shock": (0.5, 0.3, 1.0, 0.0),
}
PINNED_GAMMAS = {"1.4": 1.4, "5/3": 5.0 / 3.0, "2": 2.0, "3": 3.0}
# sha256 of sample_array's (rho, u) bytes over linspace(-3, 3, 6001),
# recorded with the per-point scalar sampler this one replaced
PINNED_SAMPLE_DIGESTS = {
    ("2-shock", "1.4"): "e500347828995833fb3483da8758fa5342044cde4cee0c3a34757c3a3f12182a",
    ("2-shock", "5/3"): "d97c09843b05006157508f555c67c1792e3f05a99e77dc91e67fb9454e864044",
    ("2-shock", "2"): "2966dcb452880ffe7188f389b6b1575670ba463bdf1cbc25cc9e0aa0f9d6b892",
    ("2-shock", "3"): "fcf179ceb06053294f8c9bf5700f484f2468decc7336085ae6bb1db66d40e84a",
    ("2-rarefaction", "1.4"): "5e0c78284a0e7438941ecc9046b3e186b41b5cfd146c0023e4d7b569dc40af46",
    ("2-rarefaction", "5/3"): "45da08e707b7300d195c375fe2ba5253d3e6c61e37c9b0ac79b95aad56ccebf9",
    ("2-rarefaction", "2"): "5010e19c4dd4250dc712faeaee06b0470821ecd99f2fbc50a98b94e1d74ac140",
    ("2-rarefaction", "3"): "508b6f756b1769eabe5b1f8dbbbf33c4f79c0323940724756a48f6e096ffc69c",
    ("mixed", "1.4"): "2077efdbafe7db95ee80c7b2569e8d3a66e03ff5960e37dd1b79d4a231c46198",
    ("mixed", "5/3"): "9f0b364697fc070bd3d9bba7bd091af7bbba41e6a8f3c7d9dcc535e5eb0bd04a",
    ("mixed", "2"): "43cc10ca478a2054b02b6aedad97f9ff87848db7c6b0d3e5b0b6604c32fa0a91",
    ("mixed", "3"): "56840bf4e2c0588ea3b9193dcfe42770f3bd105deb83b4ef81775b4973fc9d42",
    ("2-rarefaction-asym", "1.4"): "bd3455f5e1e53fd451c0ebf2b88ed3171b420eef821480237ef51a01c0b3e11c",
    ("2-rarefaction-asym", "5/3"): "f279b3a60c397b9a531651af3ac59d175589c2b51e3fdd24bbb16cdeaa499b83",
    ("2-rarefaction-asym", "2"): "5118f294f673045d84eb53f7ab82980975d56509b63ef2715cbf3e1138b64a72",
    ("2-rarefaction-asym", "3"): "e2262366bbdec5d0a4f7252450364f3b5e44588da167512ee1f79974ff0a676c",
    ("1-shock", "1.4"): "f407d0337f65e34f16f27760c0a93010a1a3f7e3a436b5750f542a3786a2ab25",
    ("1-shock", "5/3"): "b4667ff021e973c6f5a2e3a81027a423d99ee42c920fbcf0d4d23afbd93ec9f4",
    ("1-shock", "2"): "ff2da69ebdf363b036633582f13890d30da20b697c48fccf4677aea51e79a145",
    ("1-shock", "3"): "2481ac6d996fadca65f8d08486d8e159ed2dcf8ae6d9c685e08d30a08420f5a8",
}


@pytest.mark.parametrize("name, gamma", sorted(PINNED_SAMPLE_DIGESTS),
                         ids=[f"{n}-{g}" for n, g in sorted(PINNED_SAMPLE_DIGESTS)])
def test_sample_array_bits_pinned(name, gamma):
    law = GasLaw(a=1.0, gamma=PINNED_GAMMAS[gamma])
    sol = solve_riemann(RiemannData(*PINNED_DATA[name], law))
    rho, u = sol.sample_array(np.linspace(-3.0, 3.0, 6001))
    digest = hashlib.sha256(rho.tobytes() + u.tobytes()).hexdigest()
    assert digest == PINNED_SAMPLE_DIGESTS[(name, gamma)]


@st.composite
def riemann_solutions(draw):
    law = GasLaw(a=draw(st.floats(0.5, 2.0)), gamma=draw(st.floats(1.1, 3.0)))
    data = RiemannData(draw(st.floats(0.1, 3.0)), draw(st.floats(-2.0, 2.0)),
                       draw(st.floats(0.1, 3.0)), draw(st.floats(-2.0, 2.0)), law)
    try:
        sol = solve_riemann(data)
    except ValueError:  # vacuum-forming data
        assume(False)
    assume(sol.rho_star > 1e-3 * min(data.rho_l, data.rho_r))
    return sol


def _waves(sol):
    """(sign, rho0, u0) of the 1-wave and the 2-wave with their outer states."""
    d = sol.data
    return ((-1.0, d.rho_l, d.u_l), (1.0, d.rho_r, d.u_r))


@settings(max_examples=80, deadline=None)
@given(sol=riemann_solutions())
# a weak shock (rho_star / rho - 1 about 2e-6) whose speed, taken from the
# mass jump, was off by enough to put a probe on the wrong side
@example(sol=solve_riemann(RiemannData(2.9444224824510674, 0.6018484977526934,
                                       2.9444224824510674, 0.601825712389837,
                                       GasLaw(a=1.075516331392825, gamma=2.994698877999501))))
def test_rankine_hugoniot_at_every_shock(sol):
    law, rs, us = sol.data.law, sol.rho_star, sol.u_star
    for sign, r0, u0 in _waves(sol):
        if rs <= r0 * (1.0 + 1e-6):
            continue
        # the speed from the wave curve's mass flux j: the mass jump
        # (rs us - r0 u0) / (rs - r0) is ill-conditioned for a weak shock
        dp = float(pressure(rs, law)) - float(pressure(r0, law))
        s = u0 + sign * math.sqrt(dp / (1.0 / r0 - 1.0 / rs)) / r0
        flux = lambda r, v: r * v * (v - s) + float(pressure(r, law))
        scale = max(abs(flux(rs, us)), abs(flux(r0, u0)), 1.0)
        assert rs * (us - s) == pytest.approx(r0 * (u0 - s), abs=1e-8 * scale)
        assert flux(rs, us) == pytest.approx(flux(r0, u0), abs=1e-8 * scale)
        # the sampled profile jumps from the star state to the outer state at s
        eps = 1e-7 * (1.0 + abs(s))
        assert _sample(sol, s - sign * eps) == pytest.approx((rs, us), rel=1e-9, abs=1e-9)
        assert _sample(sol, s + sign * eps) == (r0, u0)


@settings(max_examples=80, deadline=None)
@given(sol=riemann_solutions())
def test_fan_characteristics_and_continuity(sol):
    law, rs, us = sol.data.law, sol.rho_star, sol.u_star
    for sign, r0, u0 in _waves(sol):
        if rs >= r0:
            continue
        head = u0 + sign * float(sound_speed(r0, law))
        tail = us + sign * float(sound_speed(rs, law))
        xi = np.linspace(head, tail, 9)[1:-1]
        rho, u = sol.sample_array(xi)
        # u -/+ c = xi inside the fan
        assert np.allclose(u + sign * sound_speed(rho, law), xi, rtol=0.0, atol=1e-9)
        # rho is continuous at the head and at the tail
        eps = 1e-9 * (1.0 + abs(head) + abs(tail))
        for edge, value in ((head, r0), (tail, rs)):
            rho_edge, _ = sol.sample_array(np.array([edge - eps, edge + eps]))
            assert rho_edge == pytest.approx([value, value], rel=1e-6)


@settings(max_examples=80, deadline=None)
@given(sol=riemann_solutions(),
       xi=st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=20))
def test_sample_equals_sample_array(sol, xi):
    rho, u = sol.sample_array(np.array(xi))
    for k, x in enumerate(xi):
        assert _sample(sol, x) == (rho[k], u[k])


# the range of densities and velocities a random sweep of the CLI's
# ``riemann`` configs covered when it found the wave-edge assertion failing
_SWEEP_DENSITIES = st.floats(math.log10(1.3e-12), 36.0).map(lambda e: 10.0**e)


@settings(max_examples=300, deadline=None)
@given(a=st.floats(-3.0, 3.0).map(lambda e: 10.0**e), gamma=st.floats(1.01, 5.0),
       rho_l=_SWEEP_DENSITIES, rho_r=_SWEEP_DENSITIES,
       u_l=st.floats(-1e5, 1e5), u_r=st.floats(-1e5, 1e5),
       scale=st.floats(-3.0, 47.0).map(lambda e: 10.0**e))
# a failing datum of that sweep: about one datum in a thousand drawn here
# fails like it, too few for the search alone to find it every time
@example(a=0.0440, gamma=3.8255, rho_l=2.03e33, u_l=-0.00299, rho_r=1.49e-6, u_r=1.112,
         scale=1.0)
def test_extreme_data_raise_only_value_error(a, gamma, rho_l, u_l, rho_r, u_r, scale):
    data = RiemannData(rho_l, u_l, rho_r, u_r, GasLaw(a=a, gamma=gamma))
    try:
        sol = solve_riemann(data)
    except ValueError:
        return
    sol.sample_array(np.append(np.linspace(-scale, scale, 21), sol.u_star))


@pytest.mark.parametrize("speed, brackets", [(1e10, True), (1e20, False)])
def test_colliding_streams_bracket_up_to_1e12_times_the_larger_density(speed, brackets):
    # streams meeting at +-speed (a 1, gamma 2) compress to a star density of
    # about speed; the bracket grows to 1e12 times the larger side density
    data = RiemannData(1.0, speed, 1.0, -speed, LAW2)
    if brackets:
        assert 1e9 < solve_riemann(data).rho_star < 1e12
    else:
        with pytest.raises(ValueError, match="failed to bracket the intermediate density"):
            solve_riemann(data)
