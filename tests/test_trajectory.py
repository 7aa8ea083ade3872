import math

import numpy as np
import pytest

from eulerlab.eos import GasLaw
from eulerlab.fields import DataTriple, FluidState, Grid, integrate_energy
from eulerlab.solver import SchemeSpec, run
from eulerlab.trajectory import (Trajectory, compare_admissible, compare_local,
                                 concatenate, convex_combine, defect_reset,
                                 improve, load_bundle, min_energy_merge,
                                 save_bundle, shift, stopping_time, weighted_norm)

LAW2 = GasLaw(a=1.0, gamma=2.0)


def unit_grid(n=8):
    return Grid(counts=(n,), lower=(0.0,), upper=(1.0,))


def constant_traj(times, rho=1.0, u=0.0, energy=None, e0=None, grid=None):
    g = grid or unit_grid()
    s = FluidState.constant(g, rho, u)
    times = np.asarray(times, dtype=float)
    if energy is None:
        energy = np.full(len(times), integrate_energy(s, LAW2))
    return Trajectory(g, LAW2, times, [s] * len(times), energy, e0=e0)


def random_step_traj(rng, grid=None, n_times=6, t_end=1.5):
    """Random valid trajectory: positive fields, energy curve built
    backwards so it is non-increasing and dominates the mean energy."""
    g = grid or unit_grid()
    times = np.linspace(0.0, t_end, n_times)
    states = []
    for _ in range(n_times):
        rho = rng.uniform(0.3, 2.0, g.counts)
        m = rng.uniform(-1.0, 1.0, g.counts + (g.d,))
        states.append(FluidState(g, rho, m))
    mean = np.array([integrate_energy(s, LAW2) for s in states])
    energy = np.empty(n_times)
    energy[-1] = mean[-1] + rng.uniform(0, 0.5)
    for k in range(n_times - 2, -1, -1):
        energy[k] = max(mean[k], energy[k + 1]) + rng.uniform(0, 0.5)
    return Trajectory(g, LAW2, times, states, energy, e0=energy[0] + rng.uniform(0, 0.3))


# -- construction invariants -------------------------------------------

def test_rejects_increasing_energy():
    with pytest.raises(ValueError, match="increases"):
        constant_traj([0.0, 0.5, 1.0], energy=np.array([1.0, 1.2, 1.0]))


def test_rejects_energy_below_mean():
    g = unit_grid()
    s = FluidState.constant(g, 1.0, 0.0)  # mean energy 1
    with pytest.raises(ValueError, match="below the mean"):
        Trajectory(g, LAW2, [0.0, 1.0], [s, s], [1.0, 0.5])


def test_rejects_initial_upward_jump():
    with pytest.raises(ValueError, match="jumps up"):
        constant_traj([0.0, 1.0], energy=np.array([2.0, 2.0]), e0=1.5)


def test_rejects_unsorted_times():
    g = unit_grid()
    s = FluidState.constant(g, 1.0, 0.0)
    with pytest.raises(ValueError):
        Trajectory(g, LAW2, [0.0, 0.5, 0.5], [s] * 3, [1.0, 1.0, 1.0])


def test_defects_and_left_values():
    traj = constant_traj([0.0, 1.0], energy=np.array([1.5, 1.2]), e0=2.0)
    assert traj.energy_left_at(0) == 2.0
    assert traj.energy_left_at(1) == 1.5
    assert traj.defects() == pytest.approx([0.5, 0.2])


# -- weighted norm ------------------------------------------------------

def test_weighted_norm_zero_fields():
    g = unit_grid()
    vac = FluidState(g, np.zeros(8), np.zeros((8, 1)))
    traj = Trajectory(g, LAW2, [0.0, 1.0], [vac, vac], [0.0, 0.0])
    assert weighted_norm(traj, 4.0 / 3.0) == 0.0


def test_weighted_norm_constant_value():
    # rho = 1, m = 0, E = 1 on the unit domain: integrand 2, norm 2^(3/4)
    traj = constant_traj([0.0, 0.5, 1.0])
    assert weighted_norm(traj, 4.0 / 3.0) == pytest.approx(1.6817928305074291, rel=1e-13)


def test_weighted_norm_homogeneity():
    rng = np.random.default_rng(2)
    traj = random_step_traj(rng)
    s = 0.37
    scaled = Trajectory(
        traj.grid, traj.law, traj.times,
        [FluidState(traj.grid, s * st.rho, s * st.m) for st in traj.states],
        s * traj.energy, e0=s * traj.e0, check=False)
    q = 1.25
    assert weighted_norm(scaled, q) == pytest.approx(s * weighted_norm(traj, q), rel=1e-12)


def test_weighted_norm_q_range():
    traj = constant_traj([0.0, 1.0])
    with pytest.raises(ValueError, match="range"):
        weighted_norm(traj, 1.0)
    with pytest.raises(ValueError, match="range"):
        weighted_norm(traj, 1.5)  # above 2*gamma/(gamma+1) = 4/3 for gamma=2


# -- shift and concatenation ---------------------------------------------

def test_shift_identity_at_zero():
    rng = np.random.default_rng(3)
    traj = random_step_traj(rng)
    assert shift(traj, 0.0).same_content(traj)


def test_shift_constant_keeps_values():
    traj = constant_traj([0.0, 0.5, 1.0])
    sh = shift(traj, 0.5)
    assert sh.t_end == pytest.approx(0.5)
    assert np.allclose(sh.energy, traj.energy[1:])


def test_shift_requires_sample_time():
    traj = constant_traj([0.0, 0.5, 1.0])
    with pytest.raises(ValueError, match="sample time"):
        shift(traj, 0.3)


def test_shift_semigroup():
    rng = np.random.default_rng(4)
    traj = random_step_traj(rng, n_times=9, t_end=2.0)
    a = shift(shift(traj, 0.5), 0.75)
    b = shift(traj, 1.25)
    assert a.same_content(b)


def test_shift_initial_energy_is_left_value():
    traj = constant_traj([0.0, 0.5, 1.0], energy=np.array([3.0, 2.0, 1.5]), e0=3.5)
    sh = shift(traj, 0.5)
    assert sh.e0 == 3.0  # E(T) from the left, not E(T+)
    assert sh.energy[0] == 2.0


def test_self_concatenation_is_identity():
    rng = np.random.default_rng(5)
    traj = random_step_traj(rng, n_times=7)
    T = float(traj.times[3])
    joined = concatenate(traj, shift(traj, T), T)
    assert joined.same_content(traj)


def test_concatenation_drops_energy_to_mean():
    g = unit_grid()
    s = FluidState.constant(g, 1.0, 0.0)  # mean energy 1
    u = Trajectory(g, LAW2, [0.0, 0.5, 1.0], [s] * 3, [2.0, 2.0, 2.0])
    v = Trajectory(g, LAW2, [0.0, 0.5], [s] * 2, [1.0, 1.0])
    joined = concatenate(u, v, 0.5)
    assert joined.energy_left_at(1) == 2.0
    assert joined.energy[1] == 1.0  # defect-sized downward jump at T


def test_concatenation_rejects_energy_above_window():
    g = unit_grid()
    s = FluidState.constant(g, 1.0, 0.0)
    u = Trajectory(g, LAW2, [0.0, 0.5, 1.0], [s] * 3, [2.0, 2.0, 2.0])
    v = Trajectory(g, LAW2, [0.0, 0.5], [s] * 2, [2.5, 2.5])
    with pytest.raises(ValueError, match="window"):
        concatenate(u, v, 0.5)


def test_concatenation_rejects_field_mismatch():
    u = constant_traj([0.0, 0.5, 1.0], rho=1.0, energy=np.array([2.0] * 3))
    v = constant_traj([0.0, 0.5], rho=1.3, energy=np.array([2.0] * 2))
    with pytest.raises(ValueError, match="mismatch"):
        concatenate(u, v, 0.5)


def test_concatenation_rejects_different_law():
    g = unit_grid()
    s = FluidState.constant(g, 1.0, 0.0)  # mean energy 1 at gamma 2, 1/2 at gamma 3
    u = Trajectory(g, LAW2, [0.0, 0.5, 1.0], [s] * 3, [2.0, 2.0, 2.0])
    v = Trajectory(g, GasLaw(a=1.0, gamma=3.0), [0.0, 0.5], [s] * 2, [1.0, 1.0])
    with pytest.raises(ValueError, match="gas laws"):
        concatenate(u, v, 0.5)


def test_concatenation_associativity():
    rng = np.random.default_rng(6)
    traj = random_step_traj(rng, n_times=9, t_end=2.0)
    v = shift(traj, 0.5)
    w = shift(traj, 1.5)
    left = concatenate(concatenate(traj, v, 0.5), w, 1.5)
    right = concatenate(traj, concatenate(v, shift(v, 1.0), 1.0), 0.5)
    assert left.same_content(right)


# -- convex combination ---------------------------------------------------

def test_convex_combine_lambda_one_returns_u():
    rng = np.random.default_rng(7)
    u = random_step_traj(rng)
    v = random_step_traj(rng)
    comb, stress = convex_combine(u, v, 1.0)
    assert comb.same_content(u)
    assert stress.norm_scale() == 0.0


def test_convex_combine_equal_members_zero_stress():
    rng = np.random.default_rng(8)
    u = random_step_traj(rng)
    comb, stress = convex_combine(u, u, 0.4)
    assert stress.norm_scale() <= 1e-14


def test_convex_combine_opposite_momenta_unit_density():
    # rho = 1 on both sides, momenta +e_x and -e_x: the kinetic gap is
    # diag(1, 0) per cell and the pressure gap vanishes
    g = Grid(counts=(2, 2), lower=(0.0, 0.0), upper=(1.0, 1.0))
    rho = np.ones((2, 2))
    mp_ = np.zeros((2, 2, 2))
    mp_[..., 0] = 1.0
    mm = np.zeros((2, 2, 2))
    mm[..., 0] = -1.0
    sp = FluidState(g, rho, mp_)
    sm = FluidState(g, rho, mm)
    e = integrate_energy(sp, LAW2)
    times = [0.0, 1.0]
    u = Trajectory(g, LAW2, times, [sp, sp], [e, e])
    v = Trajectory(g, LAW2, times, [sm, sm], [e, e])
    comb, stress = convex_combine(u, v, 0.5)
    expected = np.array([[1.0, 0.0], [0.0, 0.0]])
    assert np.allclose(stress.tensor[0, 0, 0], expected, atol=1e-14)
    assert np.allclose(stress.tensor[1], np.broadcast_to(expected, (2, 2, 2, 2)))
    assert np.allclose(comb.states[0].m, 0.0)


def test_convex_combine_psd_and_compatibility():
    from eulerlab.dissipative import check_compatibility
    rng = np.random.default_rng(9)
    for _ in range(25):
        u = random_step_traj(rng)
        v = random_step_traj(rng)
        lam = rng.uniform(0, 1)
        comb, stress = convex_combine(u, v, lam)
        assert stress.min_eigenvalue() >= -1e-10 * max(stress.norm_scale(), 1e-30)
        for t in comb.times:
            rep = check_compatibility(comb, stress, t=float(t))
            assert rep.slack >= -1e-10 * max(1.0, comb.e0)


def test_convex_combine_mismatch_errors():
    u = constant_traj([0.0, 1.0])
    v = constant_traj([0.0, 0.5, 1.0])
    with pytest.raises(ValueError, match="sample times"):
        convex_combine(u, v, 0.5)


# -- order relations -------------------------------------------------------

def test_compare_admissible_cases():
    u = constant_traj([0.0, 1.0], energy=np.array([1.0, 1.0]))
    v = constant_traj([0.0, 1.0], energy=np.array([2.0, 2.0]))
    assert compare_admissible(u, v).relation == "less"
    assert compare_admissible(v, u).relation == "greater"
    assert compare_admissible(u, u).relation == "equal"
    a = constant_traj([0.0, 1.0], energy=np.array([2.0, 1.0]), e0=2.0)
    b = constant_traj([0.0, 1.0], energy=np.array([1.9, 1.4]), e0=2.0)
    assert compare_admissible(a, b).relation == "incomparable"


def test_compare_local_equal_and_incomparable():
    rng = np.random.default_rng(10)
    u = random_step_traj(rng)
    assert compare_local(u, u).relation == "equal"
    v = random_step_traj(rng)  # different fields already at t = 0
    assert compare_local(u, v).relation == "incomparable"


def test_compare_local_prefix_drop():
    g = unit_grid()
    s = FluidState.constant(g, 1.0, 0.0)
    times = [0.0, 0.5, 1.0, 1.5]
    u = Trajectory(g, LAW2, times, [s] * 4, [3.0, 3.0, 2.0, 2.0])
    v = Trajectory(g, LAW2, times, [s] * 4, [3.0, 3.0, 3.0, 3.0])
    res = compare_local(u, v)
    assert res.relation == "less"
    assert res.T == pytest.approx(1.0)
    assert res.delta == math.inf  # strict gap persists to the horizon
    assert compare_local(v, u).relation == "greater"


def test_compare_local_witness_window_closes():
    g = unit_grid()
    s = FluidState.constant(g, 1.0, 0.0)
    times = [0.0, 0.5, 1.0, 1.5]
    u = Trajectory(g, LAW2, times, [s] * 4, [3.0, 2.0, 2.0, 2.0])
    v = Trajectory(g, LAW2, times, [s] * 4, [3.0, 3.0, 2.0, 2.0])
    res = compare_local(u, v)
    assert res.relation == "less"
    # curves agree on the window (0, 0.5], split on (0.5, 1.0], rejoin after
    assert res.T == pytest.approx(0.5)
    assert res.delta == pytest.approx(0.5)


def test_local_order_irreflexive_asymmetric():
    rng = np.random.default_rng(11)
    for _ in range(20):
        u = random_step_traj(rng)
        assert compare_local(u, u).relation == "equal"
        v = Trajectory(u.grid, u.law, u.times, u.states,
                       u.energy - np.linspace(0, 0.1, u.n_samples),
                       e0=u.e0, check=False)
        r_uv = compare_local(v, u)
        r_vu = compare_local(u, v)
        if r_uv.relation == "less":
            assert r_vu.relation == "greater"


# -- stopping time, reset, improve ----------------------------------------

def test_stopping_time_cases():
    g = unit_grid()
    s = FluidState.constant(g, 1.0, 0.0)  # mean energy 1
    times = [0.0, 0.5, 1.0]
    no_defect = Trajectory(g, LAW2, times, [s] * 3, [1.0, 1.0, 1.0])
    assert stopping_time(no_defect, 0.3) == math.inf

    # mean energy drops from 1 to 0.81 while E stays flat, so the defect
    # steps up from 0.5 to 0.69 at t = 0.5
    s2 = FluidState.constant(g, 0.9, 0.0)
    stepped = Trajectory(g, LAW2, times, [s, s2, s2], [1.5, 1.5, 1.5])
    assert stopping_time(stepped, 0.4) == 0.0
    assert stopping_time(stepped, 0.6) == 0.5
    assert stopping_time(stepped, 2.0) == math.inf


def test_defect_reset_zeroes_defect():
    g = unit_grid()
    s = FluidState.constant(g, 1.0, 0.0)
    times = [0.0, 0.5, 1.0]
    traj = Trajectory(g, LAW2, times, [s] * 3, [1.4, 1.4, 1.4])
    cont = Trajectory(g, LAW2, [0.0, 0.5], [s] * 2, [1.0, 1.0])
    out = defect_reset(traj, 0.5, cont)
    k = out.index_of(0.5)
    assert out.defects()[k] == pytest.approx(0.0, abs=1e-12)


def test_defect_reset_identity_when_no_defect():
    g = unit_grid()
    s = FluidState.constant(g, 1.0, 0.0)
    traj = Trajectory(g, LAW2, [0.0, 0.5, 1.0], [s] * 3, [1.0, 1.0, 1.0])
    out = defect_reset(traj, 0.5, shift(traj, 0.5))
    assert out.same_content(traj)


def test_nan_state_rejected():
    g = unit_grid()
    s = FluidState.constant(g, 1.0, 0.0)
    rho = np.ones(g.counts)
    rho[3] = np.nan
    bad = FluidState(g, rho, np.zeros(g.counts + (1,)), check=False)
    with pytest.raises(ValueError, match=r"t=0.5 has non-finite mean energy nan"):
        Trajectory(g, LAW2, [0.0, 0.5, 1.0], [s, bad, s], [1.4, 1.4, 1.4])


def test_defect_reset_requires_mean_energy_start():
    g = unit_grid()
    s = FluidState.constant(g, 1.0, 0.0)
    traj = Trajectory(g, LAW2, [0.0, 0.5, 1.0], [s] * 3, [1.4, 1.4, 1.4])
    cont = Trajectory(g, LAW2, [0.0, 0.5], [s] * 2, [1.2, 1.2])
    with pytest.raises(ValueError, match="mean energy"):
        defect_reset(traj, 0.5, cont)


def test_improve_constructed_defect():
    g = unit_grid()
    s = FluidState.constant(g, 1.0, 0.0)
    times = [0.0, 0.5, 1.0, 1.5]
    traj = Trajectory(g, LAW2, times, [s] * 4, [2.0, 2.0, 2.0, 2.0])
    cont = Trajectory(g, LAW2, [0.0, 0.5, 1.0], [s] * 3, [1.0, 1.0, 1.0])
    competitor, order = improve(traj, 0.5, cont)
    assert order.relation == "less"
    assert order.T == pytest.approx(0.5)
    k = competitor.index_of(0.5)
    assert traj.energy[k] - competitor.energy[k] == pytest.approx(1.0)


def test_improve_rejects_zero_defect():
    g = unit_grid()
    s = FluidState.constant(g, 1.0, 0.0)
    traj = Trajectory(g, LAW2, [0.0, 0.5, 1.0], [s] * 3, [1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="nothing to improve"):
        improve(traj, 0.5, shift(traj, 0.5))


def test_improve_on_solver_reset_continuation():
    # end to end: ensemble average with a real defect, solver continuation
    from eulerlab.dissipative import estimate_reynolds
    g = Grid(counts=(48,), lower=(-1.0,), upper=(1.0,), boundary=("reflective",))
    x = g.centers(0)
    rho = np.where(x < 0, 1.5, 0.3)
    st = FluidState(g, rho, np.zeros((48, 1)))
    triple = DataTriple(st, integrate_energy(st, LAW2))
    members = [run(triple, SchemeSpec(nu=nu), LAW2, 0.6, 0.1, energy_mode="budget")
               for nu in (1.0, 0.1)]
    _, base = estimate_reynolds(members)
    k = int(np.argmax(base.defects()[:-1]))
    T = float(base.times[k])
    mean_t = float(base.mean_energies[k])
    cont = run(DataTriple(base.states[k], mean_t), SchemeSpec(nu=0.1), LAW2,
               0.6 - T, 0.1)
    competitor, order = improve(base, T, cont)
    assert order.relation == "less"
    assert order.T == pytest.approx(T)


# -- min-energy merge ------------------------------------------------------

def test_merge_lower_curve_wins():
    g = unit_grid()
    s = FluidState.constant(g, 1.0, 0.0)
    times = [0.0, 0.5, 1.0]
    u = Trajectory(g, LAW2, times, [s] * 3, [1.2, 1.2, 1.2])
    v = Trajectory(g, LAW2, times, [s] * 3, [1.5, 1.5, 1.5])
    mu, mv = min_energy_merge(u, v, 0.0)
    assert np.allclose(mu.energy, [1.2, 1.2, 1.2])
    assert np.allclose(mv.energy, [1.2, 1.2, 1.2])


def test_merge_crossing_curves():
    g = unit_grid()
    s = FluidState.constant(g, 1.0, 0.0)
    times = [0.0, 0.5, 1.0, 1.5]
    u = Trajectory(g, LAW2, times, [s] * 4, [2.0, 1.6, 1.3, 1.3], e0=2.0)
    v = Trajectory(g, LAW2, times, [s] * 4, [2.0, 1.8, 1.2, 1.1], e0=2.0)
    mu, mv = min_energy_merge(u, v, 0.5)
    assert np.allclose(mu.energy, [2.0, 1.6, 1.2, 1.1])
    assert np.all(np.diff(mu.energy) <= 1e-14)


def test_merge_preserves_prefix_energy():
    g = unit_grid()
    s = FluidState.constant(g, 1.0, 0.0)
    times = [0.0, 0.5, 1.0]
    u = Trajectory(g, LAW2, times, [s] * 3, [2.0, 1.5, 1.5])
    v = Trajectory(g, LAW2, times, [s] * 3, [1.8, 1.8, 1.2], e0=2.0)
    mu, mv = min_energy_merge(u, v, 0.5)
    assert mu.energy[0] == 2.0
    assert mv.energy[0] == 1.8
    assert mu.energy[1] == mv.energy[1] == 1.5


def test_merge_rejects_field_mismatch():
    u = constant_traj([0.0, 0.5, 1.0], rho=1.0)
    v = constant_traj([0.0, 0.5, 1.0], rho=1.2, energy=np.full(3, 1.5))
    with pytest.raises(ValueError, match="differ"):
        min_energy_merge(u, v, 0.5)


def test_merged_outputs_pass_certification():
    from eulerlab.dissipative import certify
    g = unit_grid()
    s = FluidState.constant(g, 1.0, 0.0)
    times = np.linspace(0.0, 1.0, 5)
    u = Trajectory(g, LAW2, times, [s] * 5, [1.5, 1.4, 1.3, 1.3, 1.3])
    v = Trajectory(g, LAW2, times, [s] * 5, [1.5, 1.45, 1.25, 1.25, 1.2])
    mu, mv = min_energy_merge(u, v, 0.25)
    for merged in (mu, mv):
        cert = certify(merged)
        assert cert.passed


# -- disk bundles -----------------------------------------------------------

def test_bundle_roundtrip(tmp_path):
    rng = np.random.default_rng(12)
    traj = random_step_traj(rng)
    save_bundle(traj, tmp_path / "bundle")
    loaded = load_bundle(tmp_path / "bundle")
    assert loaded.same_content(traj, tol=1e-15)
    assert loaded.law == traj.law
    assert loaded.grid.counts == traj.grid.counts


def test_bundle_load_unchecked_tolerates_bad_energy(tmp_path):
    traj = constant_traj([0.0, 0.5, 1.0])
    save_bundle(traj, tmp_path / "b")
    # hand-edit the energy curve upwards
    path = tmp_path / "b" / "energy.csv"
    lines = path.read_text().splitlines()
    lines[2] = "0.5,5.0"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError):
        load_bundle(tmp_path / "b")
    loaded = load_bundle(tmp_path / "b", check=False)
    assert loaded.energy[1] == 5.0
