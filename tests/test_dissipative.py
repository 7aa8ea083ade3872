import numpy as np
import pytest

from eulerlab.eos import GasLaw
from eulerlab.fields import DataTriple, FluidState, Grid, integrate_energy
from eulerlab.riemann import RiemannData, sample_cell_averages, solve_riemann
from eulerlab.solver import SchemeSpec, run
from eulerlab.stress import ReynoldsField
from eulerlab.trajectory import Trajectory
from eulerlab.dissipative import (CertificateTolerances, TestFunction, certify,
                                  check_compatibility, continuity_residual,
                                  default_dictionary, energy_defect,
                                  estimate_reynolds, momentum_residual)

LAW2 = GasLaw(a=1.0, gamma=2.0)


def grid_1d(n=64, lo=-1.0, hi=1.0, boundary="periodic"):
    return Grid(counts=(n,), lower=(lo,), upper=(hi,), boundary=(boundary,))


def constant_traj(g, rho, u, times):
    s = FluidState.constant(g, rho, u)
    e = integrate_energy(s, LAW2)
    return Trajectory(g, LAW2, times, [s] * len(times), np.full(len(times), e))


def riemann_sampled_traj(n, t_end=0.4, law=LAW2):
    """Cell-averaged sampling of the exact two-wave solution."""
    sol = solve_riemann(RiemannData(1.0, 0.0, 0.25, 0.0, law))
    g = grid_1d(n)
    h = g.spacing[0]
    x = g.centers(0)
    times = np.linspace(0.0, t_end, n // 2 + 1)
    states = []
    for t in times:
        rho, m = sample_cell_averages(sol, x, h, float(t))
        states.append(FluidState(g, rho, m[:, None]))
    energy = np.full(len(times), integrate_energy(states[0], law))
    return Trajectory(g, law, times, states, energy, rtol=4 * h)


# -- test function machinery ---------------------------------------------

def test_default_dictionary_counts():
    g = grid_1d(32)
    members = default_dictionary(g, 1.0)
    scalars = [p for p in members if p.direction is None]
    vectors = [p for p in members if p.direction is not None]
    assert len(scalars) == 24
    assert len(vectors) == 24


def test_dictionary_supports_are_interior():
    for g in (grid_1d(32), Grid(counts=(16, 12), lower=(0.0, 0.0), upper=(1.0, 2.0))):
        for phi in default_dictionary(g, 2.0):
            phi.check_interior(g, 2.0)  # must not raise
            lo, hi = phi.t_support
            assert 0.0 < lo < hi < 2.0


def test_dictionary_vector_directions_cycle():
    g = Grid(counts=(8, 8), lower=(0.0, 0.0), upper=(1.0, 1.0))
    dirs = {p.direction for p in default_dictionary(g, 1.0) if p.direction is not None}
    assert dirs == {0, 1}


def test_support_outside_horizon_errors():
    g = grid_1d(16)
    traj = constant_traj(g, 1.0, 0.0, np.linspace(0, 0.5, 6))
    phi = TestFunction(0.5, 0.2, (0.0,), (0.3,))
    with pytest.raises(ValueError, match="horizon"):
        continuity_residual(traj, phi)


def test_scalar_vector_mismatch_errors():
    g = grid_1d(16)
    traj = constant_traj(g, 1.0, 0.0, np.linspace(0, 1, 6))
    scalar = TestFunction(0.5, 0.2, (0.0,), (0.3,))
    vector = TestFunction(0.5, 0.2, (0.0,), (0.3,), direction=0)
    with pytest.raises(ValueError):
        continuity_residual(traj, vector)
    with pytest.raises(ValueError):
        momentum_residual(traj, scalar, None)


def test_cell_integrals_telescope():
    # summed gradient integrals vanish identically for interior bumps
    g = Grid(counts=(20, 14), lower=(-1.0, 0.0), upper=(1.0, 1.0))
    phi = TestFunction(0.5, 0.2, (0.1, 0.6), (0.4, 0.2))
    P, G = phi.cell_integrals(g)
    assert abs(G[..., 0].sum()) < 1e-15
    assert abs(G[..., 1].sum()) < 1e-15
    assert P.sum() > 0


# -- residuals -------------------------------------------------------------

def test_constant_state_residuals_vanish():
    g = grid_1d(32)
    traj = constant_traj(g, 1.3, 0.4, np.linspace(0, 1, 11))
    worst_c = worst_m = 0.0
    for phi in default_dictionary(g, 1.0):
        if phi.direction is None:
            worst_c = max(worst_c, abs(continuity_residual(traj, phi)))
        else:
            worst_m = max(worst_m, abs(momentum_residual(traj, phi, None)))
    assert worst_c <= 1e-12
    assert worst_m <= 1e-12


def test_steady_rest_state_momentum_residual():
    g = grid_1d(32)
    traj = constant_traj(g, 1.0, 0.0, np.linspace(0, 1, 11))
    phi = TestFunction(0.5, 0.3, (0.0,), (0.5,), direction=0)
    assert abs(momentum_residual(traj, phi, None)) <= 1e-13


def test_manufactured_linear_solution_refines():
    # rho = 1 + a*t, m = -a*x solves the continuity equation exactly;
    # the residual is pure quadrature error and shrinks under refinement
    alpha = 0.3

    def build(n, nt):
        g = grid_1d(n, 0.0, 1.0)
        x = g.centers(0)
        times = np.linspace(0.0, 1.0, nt)
        states = [FluidState(g, np.full(n, 1 + alpha * t), (-alpha * x)[:, None])
                  for t in times]
        e0 = max(integrate_energy(s, LAW2) for s in states) + 1.0
        return Trajectory(g, LAW2, times, states,
                          np.full(nt, e0), check=False)

    phi = TestFunction(0.5, 0.35, (0.5,), (0.35,))
    coarse = abs(continuity_residual(build(16, 9), phi))
    fine = abs(continuity_residual(build(32, 17), phi))
    assert coarse < 2e-4
    assert fine < 0.45 * coarse  # at least first-order decay of quadrature error


def test_exact_riemann_residual_first_order():
    D = default_dictionary(grid_1d(64), 0.4)
    res = []
    for n in (64, 128):
        traj = riemann_sampled_traj(n)
        worst = 0.0
        for phi in D:
            if phi.direction is None:
                worst = max(worst, abs(continuity_residual(traj, phi)))
            else:
                worst = max(worst, abs(momentum_residual(traj, phi, None)))
        res.append(worst)
    assert res[1] < res[0]


def test_momentum_residual_grid_mismatch_errors():
    g = grid_1d(16)
    traj = constant_traj(g, 1.0, 0.0, np.linspace(0, 1, 6))
    other = grid_1d(24)
    R = ReynoldsField.zeros(other, traj.times)
    phi = TestFunction(0.5, 0.2, (0.0,), (0.3,), direction=0)
    with pytest.raises(ValueError, match="match"):
        momentum_residual(traj, phi, R)


# -- ensemble averaging -----------------------------------------------------

def test_identical_members_zero_stress():
    g = grid_1d(16)
    traj = constant_traj(g, 1.0, 0.3, np.linspace(0, 1, 5))
    R, avg = estimate_reynolds([traj, traj, traj])
    assert R.norm_scale() <= 1e-15
    assert avg.same_content(traj)


def test_single_member_zero_stress():
    g = grid_1d(16)
    traj = constant_traj(g, 0.8, -0.2, np.linspace(0, 1, 5))
    R, avg = estimate_reynolds([traj])
    assert R.norm_scale() == 0.0
    assert avg.same_content(traj)


def test_two_member_opposite_momenta():
    g = Grid(counts=(4, 4), lower=(0.0, 0.0), upper=(1.0, 1.0))
    rho = np.ones((4, 4))
    mp_ = np.zeros((4, 4, 2))
    mp_[..., 0] = 1.0
    sp = FluidState(g, rho, mp_)
    sm = FluidState(g, rho, -mp_)
    e = integrate_energy(sp, LAW2)
    times = [0.0, 1.0]
    u = Trajectory(g, LAW2, times, [sp] * 2, [e, e])
    v = Trajectory(g, LAW2, times, [sm] * 2, [e, e])
    R, avg = estimate_reynolds([u, v])
    assert np.allclose(R.tensor[0, 2, 2], [[1.0, 0.0], [0.0, 0.0]], atol=1e-14)
    assert np.allclose(avg.states[0].m, 0.0)


def test_member_grid_mismatch_errors():
    u = constant_traj(grid_1d(16), 1.0, 0.0, np.linspace(0, 1, 5))
    v = constant_traj(grid_1d(24), 1.0, 0.0, np.linspace(0, 1, 5))
    with pytest.raises(ValueError, match="grids"):
        estimate_reynolds([u, v])


def test_members_with_different_laws_rejected():
    g = grid_1d(16)
    u = constant_traj(g, 1.0, 0.2, np.linspace(0, 1, 5))
    law = GasLaw(a=1.0, gamma=1.4)
    s = FluidState.constant(g, 1.0, 0.2)
    v = Trajectory(g, law, u.times, [s] * 5, np.full(5, integrate_energy(s, law)))
    with pytest.raises(ValueError, match="gas laws"):
        estimate_reynolds([u, v])


def test_ensemble_psd_randomized():
    rng = np.random.default_rng(42)
    g = grid_1d(12, 0.0, 1.0)
    times = np.linspace(0, 1, 4)
    for _ in range(30):
        members = []
        for _ in range(rng.integers(2, 5)):
            states = [FluidState(g, rng.uniform(0.2, 2.0, 12),
                                 rng.uniform(-1, 1, (12, 1))) for _ in times]
            mean = np.array([integrate_energy(s, LAW2) for s in states])
            e = np.full(len(times), mean.max() + 0.1)
            members.append(Trajectory(g, LAW2, times, states, e, check=False))
        R, avg = estimate_reynolds(members)
        assert R.min_eigenvalue() >= -1e-10 * max(R.norm_scale(), 1e-30)


def test_ensemble_defect_dominates_trace():
    # averaged member energies vs energy of the averaged state: the gap
    # must dominate r * integral of trace(R) at every sample time
    rng = np.random.default_rng(43)
    g = grid_1d(12, 0.0, 1.0)
    times = np.linspace(0, 1, 4)
    for _ in range(20):
        members = []
        for _ in range(3):
            states = [FluidState(g, rng.uniform(0.2, 2.0, 12),
                                 rng.uniform(-1, 1, (12, 1))) for _ in times]
            mean = np.array([integrate_energy(s, LAW2) for s in states])
            e = np.full(len(times), mean.max())
            members.append(Trajectory(g, LAW2, times, states, e,
                                      rtol=1e-9, check=False))
        R, avg = estimate_reynolds(members)
        mean_of_members = sum(m.mean_energies for m in members) / 3
        gap = mean_of_members - avg.mean_energies
        for k in range(len(times)):
            assert gap[k] >= 0.5 * R.trace_integral(k) - 1e-10


# -- defect and compatibility ------------------------------------------------

def test_energy_defect_examples():
    g = grid_1d(16)
    s = FluidState.constant(g, 1.0, 0.0)
    e = integrate_energy(s, LAW2)
    times = [0.0, 0.5, 1.0]
    exact = Trajectory(g, LAW2, times, [s] * 3, np.full(3, e))
    assert energy_defect(exact, 0.5) == 0.0
    offset = Trajectory(g, LAW2, times, [s] * 3, np.full(3, e + 0.5))
    assert energy_defect(offset, 0.0) == pytest.approx(0.5)


def test_energy_defect_propagates_nan():
    g = grid_1d(16)
    s = FluidState.constant(g, 1.0, 0.0)
    rho = np.ones(16)
    rho[5] = np.nan
    bad = FluidState(g, rho, np.zeros((16, 1)), check=False)
    e = integrate_energy(s, LAW2)
    traj = Trajectory(g, LAW2, [0.0, 0.5], [s, bad], [e, e], check=False)
    assert energy_defect(traj, 0.0) == 0.0
    assert np.isnan(energy_defect(traj, 0.5))


def test_compatibility_arithmetic():
    g = grid_1d(16)
    s = FluidState.constant(g, 1.0, 0.0)
    e = integrate_energy(s, LAW2)
    times = [0.0, 1.0]

    zero = Trajectory(g, LAW2, times, [s] * 2, np.full(2, e))
    rep = check_compatibility(zero, None, t=0.0)
    assert rep.slack == 0.0 and rep.passed

    traj = Trajectory(g, LAW2, times, [s] * 2, np.full(2, e + 1.0))
    # uniform stress with integral trace 1.0 and 3.0 on the domain |O| = 2
    for trace_target, want_pass in ((1.0, True), (3.0, False)):
        density = trace_target / 2.0
        tensor = np.full((2, 16, 1, 1), density)
        R = ReynoldsField(g, times, tensor)
        rep = check_compatibility(traj, R, t=0.0)
        assert rep.defect == pytest.approx(1.0)
        assert rep.trace_integral == pytest.approx(trace_target)
        assert rep.slack == pytest.approx(1.0 - 0.5 * trace_target)
        assert rep.passed is want_pass


def test_compatibility_respects_override():
    g = grid_1d(16)
    s = FluidState.constant(g, 1.0, 0.0)
    e = integrate_energy(s, LAW2)
    traj = Trajectory(g, LAW2, [0.0, 1.0], [s] * 2, np.full(2, e + 1.0))
    tensor = np.full((2, 16, 1, 1), 1.5)
    R = ReynoldsField(g, [0.0, 1.0], tensor)
    assert not check_compatibility(traj, R, t=0.0).passed
    assert check_compatibility(traj, R, t=0.0, r_override=0.25).passed


# -- certification ------------------------------------------------------------

def test_certify_constant_state_passes():
    g = grid_1d(32)
    traj = constant_traj(g, 1.0, 0.0, np.linspace(0, 1, 9))
    cert = certify(traj, tolerances=CertificateTolerances(
        residual=1e-12, energy_monotone=1e-12, defect_negative=1e-12,
        psd_factor=1e-10, slack=1e-12))
    assert cert.passed
    assert cert.check("continuity_residual")[1] <= 1e-12


def test_certify_flags_increasing_energy():
    g = grid_1d(16)
    s = FluidState.constant(g, 1.0, 0.0)
    e = integrate_energy(s, LAW2)
    bad = Trajectory(g, LAW2, [0.0, 0.5, 1.0], [s] * 3,
                     [e + 0.1, e + 0.3, e + 0.3], check=False)
    cert = certify(bad)
    assert not cert.passed
    assert not cert.check("energy_monotone")[3]


def test_certify_flags_negative_defect():
    g = grid_1d(16)
    s = FluidState.constant(g, 1.0, 0.0)
    e = integrate_energy(s, LAW2)
    bad = Trajectory(g, LAW2, [0.0, 1.0], [s] * 2, [e - 0.2, e - 0.2], check=False)
    cert = certify(bad)
    assert not cert.check("defect_nonnegative")[3]


def test_certify_ensemble_average_with_stress():
    g = grid_1d(64, boundary="reflective")
    x = g.centers(0)
    rho = np.where(x < 0, 1.0, 0.25)
    st = FluidState(g, rho, np.zeros((64, 1)))
    triple = DataTriple(st, integrate_energy(st, LAW2))
    members = [run(triple, SchemeSpec(nu=nu), LAW2, 0.4, 0.05) for nu in (0.4, 0.2, 0.1)]
    R, avg = estimate_reynolds(members)
    cert = certify(avg, R)
    assert cert.passed, [c for c in cert.checks if not c[3]]


def test_momentum_residual_improves_with_stress():
    # a wide viscosity spread makes the averaged trajectory visibly miss
    # the plain momentum balance; the estimated stress absorbs part of it
    g = grid_1d(128, boundary="reflective")
    x = g.centers(0)
    rho = np.where(x < 0, 1.0, 0.25)
    st = FluidState(g, rho, np.zeros((128, 1)))
    triple = DataTriple(st, integrate_energy(st, LAW2))
    members = [run(triple, SchemeSpec(nu=nu), LAW2, 0.6, 0.6 / 16)
               for nu in (3.0, 0.02)]
    R, avg = estimate_reynolds(members)
    vectors = [p for p in default_dictionary(g, 0.6) if p.direction is not None]
    with_R = max(abs(momentum_residual(avg, p, R)) for p in vectors)
    without = max(abs(momentum_residual(avg, p, None)) for p in vectors)
    assert with_R < without
    cert = certify(avg, R)
    assert any("without the stress" in note for note in cert.notes)


def test_certify_2d_constant_state():
    g = Grid(counts=(12, 10), lower=(0.0, 0.0), upper=(1.0, 1.0))
    s = FluidState.constant(g, 1.2, (0.3, -0.1))
    e = integrate_energy(s, LAW2)
    traj = Trajectory(g, LAW2, np.linspace(0, 1, 6), [s] * 6, np.full(6, e))
    cert = certify(traj, ReynoldsField.zeros(g, traj.times),
                   tolerances=CertificateTolerances(
                       residual=1e-11, energy_monotone=1e-12,
                       defect_negative=1e-12, psd_factor=1e-10, slack=1e-12))
    assert cert.passed, [c for c in cert.checks if not c[3]]


def test_2d_convex_combination_certifies():
    rng = np.random.default_rng(77)
    g = Grid(counts=(8, 8), lower=(0.0, 0.0), upper=(1.0, 1.0))
    times = np.linspace(0, 1, 4)

    def mk():
        states = [FluidState(g, rng.uniform(0.3, 1.5, (8, 8)),
                             rng.uniform(-0.8, 0.8, (8, 8, 2))) for _ in times]
        mean = np.array([integrate_energy(s, LAW2) for s in states])
        return Trajectory(g, LAW2, times, states,
                          np.full(4, mean.max() + 0.2), check=False)

    from eulerlab.trajectory import convex_combine
    comb, stress = convex_combine(mk(), mk(), 0.35)
    assert stress.min_eigenvalue() >= -1e-10 * max(stress.norm_scale(), 1.0)
    r = 0.5  # printed constant, d = 2, within the certified gamma range
    slacks = comb.defects() - r * stress.trace_integrals()
    assert np.min(slacks) >= -1e-10 * max(1.0, comb.e0)


def test_initial_window_small_defect():
    # a certified trajectory with zero initial defect keeps the defect
    # below any delta > 0 for at least one full sample step
    g = grid_1d(48, boundary="reflective")
    x = g.centers(0)
    rho = np.where(x < 0, 1.0, 0.4)
    st = FluidState(g, rho, np.zeros((48, 1)))
    triple = DataTriple(st, integrate_energy(st, LAW2))
    members = [run(triple, SchemeSpec(nu=nu), LAW2, 0.4, 0.05, energy_mode="budget")
               for nu in (0.5, 0.05)]
    from eulerlab.trajectory import stopping_time
    _, avg = estimate_reynolds(members)
    assert avg.defects()[0] <= 1e-12
    for delta in (1e-4, 1e-3, 1e-2):
        assert stopping_time(avg, delta) >= avg.times[1]
