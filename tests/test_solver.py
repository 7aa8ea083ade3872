import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import eulerlab.solver as solver_mod
from eulerlab.eos import GasLaw
from eulerlab.fields import DataTriple, FluidState, Grid, integrate_energy
from eulerlab.riemann import RiemannData, solve_riemann
from eulerlab.solver import FLUX_KINDS, CFLViolation, SchemeSpec, run, stable_dt, step
from pins import assert_pinned

LAW2 = GasLaw(a=1.0, gamma=2.0)


def periodic_grid(n=32, lo=-1.0, hi=1.0):
    return Grid(counts=(n,), lower=(lo,), upper=(hi,), boundary=("periodic",))


def riemann_state(grid, rho_l, u_l, rho_r, u_r, interface=0.0):
    x = grid.centers(0)
    rho = np.where(x < interface, rho_l, rho_r)
    u = np.where(x < interface, u_l, u_r)
    return FluidState(grid, rho, (rho * u)[:, None])


def _stack(specs, *states, law=LAW2):
    """The solver's stack of ``states`` under ``law``, member i in row i
    with scheme ``specs[i]``."""
    U = solver_mod._pack(np.stack([s.rho for s in states]), np.stack([s.m for s in states]))
    return solver_mod._Members(states[0].grid, law, tuple(specs), U, np.arange(len(states)))


def _state(stack, j=0):
    """Member ``j`` of ``stack`` as a ``FluidState``."""
    return FluidState(stack.grid, stack.U[0, j], np.moveaxis(stack.U[1:, j], 0, -1), check=False)


def _lone_step(s, spec, law=LAW2, dt=None):
    """``s`` after one step as a stack of one, by its stable dt unless
    ``dt`` is given."""
    stack = _stack([spec], s, law=law)
    return _state(step(stack, stable_dt(stack) if dt is None else dt))


def test_scheme_spec_validation():
    with pytest.raises(ValueError):
        SchemeSpec(flux="roe")
    with pytest.raises(ValueError):
        SchemeSpec(nu=-0.1)
    with pytest.raises(ValueError):
        SchemeSpec(cfl=0.0)
    with pytest.raises(ValueError):
        SchemeSpec(cfl=1.5)


@pytest.mark.parametrize("flux", ["llf", "hll"])
def test_constant_state_preserved(flux):
    g = periodic_grid(16)
    s = FluidState.constant(g, 1.4, 0.2)
    spec = SchemeSpec(flux=flux, nu=0.3)
    out = _lone_step(s, spec)
    assert np.allclose(out.rho, s.rho, rtol=0, atol=1e-14)
    assert np.allclose(out.m, s.m, rtol=0, atol=1e-14)


def test_cfl_violation_raises():
    g = periodic_grid(16)
    s = _stack([SchemeSpec()], FluidState.constant(g, 1.0, 0.5))
    with pytest.raises(CFLViolation):
        step(s, 10.0 * stable_dt(s))


@pytest.mark.parametrize("flux", ["llf", "hll"])
def test_periodic_conservation(flux):
    rng = np.random.default_rng(5)
    g = periodic_grid(32)
    rho = rng.uniform(0.5, 1.5, 32)
    m = rng.uniform(-0.5, 0.5, (32, 1))
    s = FluidState(g, rho, m)
    spec = SchemeSpec(flux=flux, nu=0.2)
    mass0, mom0 = s.rho.sum(), s.m.sum()
    for _ in range(20):
        s = _lone_step(s, spec)
    assert abs(s.rho.sum() - mass0) <= 1e-12 * abs(mass0)
    assert abs(s.m.sum() - mom0) <= 1e-12 * max(abs(mom0), 1.0)


def test_reflective_conserves_mass_not_momentum():
    g = Grid(counts=(32,), lower=(-1.0,), upper=(1.0,), boundary=("reflective",))
    s = riemann_state(g, 1.0, 0.5, 0.5, 0.0)
    spec = SchemeSpec()
    mass0, mom0 = s.rho.sum(), s.m.sum()
    for _ in range(60):
        s = _lone_step(s, spec)
    assert abs(s.rho.sum() - mass0) <= 1e-12 * abs(mass0)
    assert abs(s.m.sum() - mom0) > 1e-6  # walls exert pressure


def test_conservation_2d_periodic():
    rng = np.random.default_rng(9)
    g = Grid(counts=(12, 10), lower=(0.0, 0.0), upper=(1.0, 1.0),
             boundary=("periodic", "periodic"))
    s = FluidState(g, rng.uniform(0.5, 1.5, (12, 10)), rng.uniform(-0.3, 0.3, (12, 10, 2)))
    spec = SchemeSpec(flux="hll", nu=0.1)
    mass0 = s.rho.sum()
    mom0 = s.m.sum(axis=(0, 1))
    for _ in range(10):
        s = _lone_step(s, spec)
    assert abs(s.rho.sum() - mass0) <= 1e-12 * abs(mass0)
    assert np.all(np.abs(s.m.sum(axis=(0, 1)) - mom0) <= 1e-12)


def test_llf_energy_nonincreasing_per_step():
    rng = np.random.default_rng(21)
    g = periodic_grid(48)
    rho = rng.uniform(0.5, 1.5, 48)
    m = rng.uniform(-0.7, 0.7, (48, 1))
    s = FluidState(g, rho, m)
    spec = SchemeSpec(flux="llf", nu=0.1)
    e = integrate_energy(s, LAW2)
    for _ in range(40):
        s = _lone_step(s, spec)
        e_new = integrate_energy(s, LAW2)
        assert e_new <= e + 1e-10 * e
        e = e_new


def test_negative_density_error_names_cell(monkeypatch):
    # the schemes are positivity preserving under the CFL guard, so the
    # no-clipping error path is exercised by lifting the guard
    g = periodic_grid(8)
    rho = np.full(8, 1e-6)
    rho[4] = 1.0  # dense cell between near-vacuum neighbours drains fast
    s = FluidState(g, rho, np.zeros((8, 1)))
    monkeypatch.setattr(solver_mod, "stable_dt", lambda *a, **k: math.inf)
    with pytest.raises(ValueError, match=r"negative density .* cell \(4"):
        _lone_step(s, SchemeSpec(flux="llf"), dt=0.2)


def test_nan_dt_raises_cfl_violation():
    s = FluidState.constant(periodic_grid(16), 1.0, 0.5)
    with pytest.raises(CFLViolation):
        _lone_step(s, SchemeSpec(), dt=math.nan)


def test_nan_stable_bound_raises_cfl_violation():
    # a NaN density makes stable_dt NaN; the guard must not wave dt through
    rho = np.ones(16)
    rho[3] = math.nan
    s = FluidState(periodic_grid(16), rho, np.zeros((16, 1)), check=False)
    with pytest.raises(CFLViolation):
        _lone_step(s, SchemeSpec(), dt=1e-3)


def test_non_finite_update_names_cell():
    # p(1e200) overflows to inf, so the fluxes around cell 5 become inf and
    # the update turns non-finite; cell 4 is the first one hit
    rho = np.ones(8)
    rho[5] = 1e200
    s = FluidState(periodic_grid(8), rho, np.zeros((8, 1)))
    spec = SchemeSpec()
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match=r"non-finite state .* cell \(4,\)"):
            _lone_step(s, spec)


def test_shock_speed_matches_jump_conditions():
    # single right-moving shock: left state on the 2-shock curve of the
    # right state, so the exact solution is one discontinuity
    rho_r, u_r = 0.5, 0.0
    rho_l = 1.0
    p = lambda r: r**2
    u_l = u_r + math.sqrt((p(rho_l) - p(rho_r)) * (rho_l - rho_r) / (rho_l * rho_r))
    s_exact = (rho_l * u_l - rho_r * u_r) / (rho_l - rho_r)

    g = periodic_grid(400, -1.0, 3.0)
    stack = _stack([SchemeSpec(flux="llf")], riemann_state(g, rho_l, u_l, rho_r, u_r))
    t = 0.0
    t_end = 0.5
    while t < t_end:
        dt = min(stable_dt(stack)[0], t_end - t)
        stack = step(stack, dt)
        t += dt
    state = _state(stack)
    x = g.centers(0)
    mid = 0.5 * (rho_l + rho_r)
    # scan away from the periodic wraparound waves at the domain edges
    window = (x > 0.3) & (x < 2.0)
    k = int(np.where(window & (state.rho < mid))[0][0])
    x_shock = x[k]
    assert abs(x_shock - s_exact * t_end) <= 5 * g.spacing[0]


def test_run_constant_state():
    g = periodic_grid(16)
    s = FluidState.constant(g, 1.0, 0.0)
    triple = DataTriple(s, integrate_energy(s, LAW2))
    [traj] = run(triple, [SchemeSpec()], LAW2, t_end=1.0, sample_dt=0.25)
    assert traj.n_samples == 5
    assert np.allclose(traj.energy, traj.energy[0])
    for st in traj.states:
        assert np.allclose(st.rho, 1.0)


def test_run_requires_divisible_sample_dt():
    g = periodic_grid(16)
    s = FluidState.constant(g, 1.0, 0.0)
    triple = DataTriple(s, integrate_energy(s, LAW2))
    with pytest.raises(ValueError, match="divide"):
        run(triple, [SchemeSpec()], LAW2, t_end=1.0, sample_dt=0.3)


def test_run_budget_mode_constant_energy_curve():
    g = Grid(counts=(64,), lower=(-1.0,), upper=(1.0,), boundary=("reflective",))
    s = riemann_state(g, 1.0, 0.0, 0.25, 0.0)
    triple = DataTriple(s, integrate_energy(s, LAW2))
    [traj] = run(triple, [SchemeSpec(nu=0.2)], LAW2, 0.4, 0.1, energy_mode="budget")
    assert np.allclose(traj.energy, traj.energy[0])
    assert traj.defects()[-1] > 0  # the scheme dissipated energy


def test_run_l1_convergence_to_exact_riemann():
    data = RiemannData(1.0, 0.0, 0.25, 0.0, LAW2)
    sol = solve_riemann(data)
    errs = []
    for n in (64, 128):
        g = Grid(counts=(n,), lower=(-1.0,), upper=(1.0,), boundary=("reflective",))
        state = riemann_state(g, 1.0, 0.0, 0.25, 0.0)
        triple = DataTriple(state, integrate_energy(state, LAW2))
        [traj] = run(triple, [SchemeSpec(flux="llf")], LAW2, 0.2, 0.2)
        x = g.centers(0)
        rho_ex, _ = sol.sample_array(x / 0.2)
        errs.append(np.sum(np.abs(traj.states[-1].rho - rho_ex)) * g.spacing[0])
    assert errs[1] < errs[0]
    assert errs[1] < 0.7 * errs[0]


def test_smooth_acoustic_energy_decay_refines():
    # low-amplitude right-moving simple wave on a periodic domain:
    # scheme dissipation shrinks as the grid refines
    losses = []
    for n in (64, 128):
        g = periodic_grid(n, 0.0, 1.0)
        x = g.centers(0)
        rho = 1.0 + 0.01 * np.sin(2 * math.pi * x)
        c = np.sqrt(2.0 * rho)
        u = 2.0 * (c - math.sqrt(2.0))
        s = FluidState(g, rho, (rho * u)[:, None])
        e0 = integrate_energy(s, LAW2)
        [traj] = run(DataTriple(s, e0), [SchemeSpec(flux="llf")], LAW2, 0.5, 0.25)
        losses.append(e0 - traj.mean_energies[-1])
    assert losses[0] > losses[1] > 0
    assert losses[1] <= 0.75 * losses[0]


def _pinned_state(boundary, counts):
    d = len(counts)
    g = Grid(counts=counts, lower=(0.0,) * d, upper=(1.0,) * d, boundary=(boundary,) * d)
    rng = np.random.default_rng(2024)
    return FluidState(g, rng.uniform(0.5, 1.5, counts), rng.uniform(-0.4, 0.4, counts + (d,)))


@pytest.mark.parametrize("counts", [(12, 10), (16,)], ids=["2d", "1d"])
@pytest.mark.parametrize("flux, boundary",
                         itertools.product(FLUX_KINDS, ("periodic", "reflective")))
def test_step_bits_pinned(flux, boundary, counts):
    s = _pinned_state(boundary, counts)
    spec = SchemeSpec(flux=flux, nu=0.15)
    for _ in range(5):
        s = _lone_step(s, spec)
    assert_pinned(f"solver.step/{flux}-{boundary}-{len(counts)}d", [s.rho, s.m])


def _vacuum_wall_state(counts):
    """Reflective state with vacuum on every wall (all of the first row),
    half of the vacuum cells holding -0.0 momentum, and -0.0 momentum along
    the last axis (tangential in 2D) in the row next to the vacuum row."""
    d = len(counts)
    g = Grid(counts=counts, lower=(0.0,) * d, upper=(1.0,) * d, boundary=("reflective",) * d)
    rng = np.random.default_rng(31)
    rho = rng.uniform(0.5, 1.5, counts)
    m = rng.uniform(-0.4, 0.4, counts + (d,))
    rho[0] = 0.0
    if d == 1:
        rho[-1] = 0.0
    else:
        rho[-1, ::2] = 0.0
        rho[1::3, 0] = 0.0
        rho[::3, -1] = 0.0
    m[rho == 0.0] = 0.0
    m[1, ..., -1] = -0.0
    m[(rho == 0.0) & (np.indices(counts).sum(axis=0) % 2 == 0)] = -0.0
    return FluidState(g, rho, m)


# five steps from ``_vacuum_wall_state``: a vacuum ghost cell must carry
# velocity +0.0.  With -0.0 there, the LLF tangential flux at the wall
# flips the sign of a zero momentum in the first vacuum row after one step
# (the 2D LLF pins fail); HLL fluxes there are +0.0 either way
@pytest.mark.parametrize("counts", [(12, 10), (16,)], ids=["2d", "1d"])
@pytest.mark.parametrize("nu", [0.0, 0.15], ids=["nu0.0", "nu0.15"])
@pytest.mark.parametrize("flux", FLUX_KINDS)
def test_step_bits_pinned_vacuum_walls(flux, nu, counts):
    s = _vacuum_wall_state(counts)
    spec = SchemeSpec(flux=flux, nu=nu)
    payload = []
    for _ in range(5):
        s = _lone_step(s, spec)
        payload += [s.rho, s.m]
    assert_pinned(f"solver.step_vacuum_walls/{flux}-nu{nu}-{len(counts)}d", payload)



@st.composite
def fluid_states(draw, boundary):
    d = draw(st.integers(1, 2))
    counts = tuple(draw(st.integers(2, 9)) for _ in range(d))
    g = Grid(counts=counts, lower=(0.0,) * d, upper=(1.0,) * d, boundary=(boundary,) * d)
    rho = draw(hnp.arrays(float, counts, elements=st.floats(0.1, 2.0)))
    m = draw(hnp.arrays(float, counts + (d,), elements=st.floats(-1.0, 1.0)))
    return FluidState(g, rho, m)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), flux=st.sampled_from(FLUX_KINDS),
       boundary=st.sampled_from(("periodic", "reflective")), nu=st.floats(0.0, 0.5))
def test_step_conserves_mass_and_periodic_momentum(data, flux, boundary, nu):
    s = data.draw(fluid_states(boundary))
    spec = SchemeSpec(flux=flux, nu=nu)
    out = _lone_step(s, spec)
    assert abs(out.rho.sum() - s.rho.sum()) <= 1e-12 * s.rho.sum()
    if boundary == "periodic":
        cells = tuple(range(s.grid.d))
        scale = max(np.abs(s.m).sum(), 1.0)
        assert np.all(np.abs(out.m.sum(axis=cells) - s.m.sum(axis=cells)) <= 1e-12 * scale)


@settings(max_examples=30, deadline=None)
@given(counts=st.sampled_from([(2,), (7,), (2, 2), (5, 3)]), rho0=st.floats(0.01, 10.0),
       flux=st.sampled_from(FLUX_KINDS), nu=st.floats(0.0, 0.5))
def test_reflective_rest_state_is_steady(counts, rho0, flux, nu):
    d = len(counts)
    g = Grid(counts=counts, lower=(0.0,) * d, upper=(1.0,) * d, boundary=("reflective",) * d)
    s = FluidState.constant(g, rho0, 0.0)
    spec = SchemeSpec(flux=flux, nu=nu)
    out = _lone_step(s, spec)
    assert np.array_equal(out.rho, s.rho)
    assert np.array_equal(out.m, s.m)


# -- primitives computed once per state ------------------------------------

@pytest.mark.parametrize("counts", [(16,), (12, 10)])
def test_stable_dt_same_on_fresh_and_cached_state(counts):
    spec = SchemeSpec(nu=0.15)
    s = _pinned_state("reflective", counts)
    stack = _stack([spec], s)
    first = stable_dt(stack)
    assert stable_dt(stack) == first
    assert stable_dt(_stack([spec], FluidState(s.grid, s.rho, s.m))) == first


def test_step_guards_hold_after_cached_stable_dt():
    spec = SchemeSpec()
    s = _stack([spec], _pinned_state("reflective", (16,)))
    with pytest.raises(CFLViolation):
        step(s, 1.01 * stable_dt(s))
    stable_dt(s)
    with pytest.raises(CFLViolation):
        step(s, math.nan)


def test_cached_speeds_are_not_reused_for_another_law():
    spec = SchemeSpec(nu=0.15)
    law3 = GasLaw(a=1.0, gamma=3.0)
    s = _pinned_state("reflective", (12, 10))
    dt2 = stable_dt(_stack([spec], s))
    dt3 = stable_dt(_stack([spec], s, law=law3))
    assert dt3 != dt2
    assert dt3 == stable_dt(_stack([spec], _pinned_state("reflective", (12, 10)), law=law3))
    stable_dt(_stack([spec], s))
    out = _lone_step(s, spec, law3, dt3)
    fresh = _lone_step(_pinned_state("reflective", (12, 10)), spec, law3, dt3)
    assert out.rho.tobytes() + out.m.tobytes() == fresh.rho.tobytes() + fresh.m.tobytes()


@pytest.mark.parametrize("t_end, energy_mode, message", [
    (0.1, "exact", "energy_mode must be one of"),
    (0.0, "envelope", "t_end and sample_dt must be positive"),
    (-0.1, "envelope", "t_end and sample_dt must be positive"),
], ids=["energy-mode", "zero-t_end", "negative-t_end"])
def test_run_rejects_bad_march_arguments(t_end, energy_mode, message):
    s = FluidState.constant(periodic_grid(8), 1.0, 0.0)
    with pytest.raises(ValueError, match=message):
        run(DataTriple(s, integrate_energy(s, LAW2)), [SchemeSpec()], LAW2, t_end, 0.05,
            energy_mode=energy_mode)
