import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from eulerlab.dissipative import compatibility, estimate_reynolds
from eulerlab.eos import GasLaw
from eulerlab.fields import DataTriple, FluidState, Grid, integrate_energies, integrate_energy
from eulerlab.selection import F1, F2, CandidateSet, check_order_coherence
from eulerlab.solver import SchemeSpec, run
from eulerlab.trajectory import (Trajectory, compare_local, concatenate,
                                 convex_combine, defect_reset, improve, load_bundle,
                                 require_shared, save_bundle, shift, stopping_time)
from paper_checks import (check_shift_identity, compare_admissible, min_energy_merge,
                          same_content, weighted_norm)

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


def _same_bits(a, b):
    """Whether a and b hold the same times, fields, energies and e0, bit for bit."""
    return a.e0 == b.e0 and all(np.array_equal(x, y) for x, y in [
        (a.times, b.times), (a.rho, b.rho), (a.m, b.m), (a.energy, b.energy)])


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


@pytest.mark.parametrize("gap, accepted", [(0.5e-9, True), (2e-9, False)])
@pytest.mark.parametrize("energy, message", [
    (lambda gap: [4.0 + 4.0 * gap] * 2, "jumps up at t=0"),
    (lambda gap: [3.0, 3.0 + 4.0 * gap], "increases across knot"),
    (lambda gap: [4.0, 1.0 - 4.0 * gap], "falls below the mean energy"),
], ids=["initial-jump", "increase", "below-mean"])
def test_energy_checks_allow_1e_9_of_the_energy_scale(energy, message, gap, accepted):
    # e0 = 4 gives the scale max(1, |e0|) = 4; the unit-density state has
    # mean energy 1
    make = lambda: constant_traj([0.0, 0.5], energy=np.array(energy(gap)), e0=4.0)
    if accepted:
        make()
    else:
        with pytest.raises(ValueError, match=message):
            make()


def test_rejects_unsorted_times():
    g = unit_grid()
    s = FluidState.constant(g, 1.0, 0.0)
    with pytest.raises(ValueError):
        Trajectory(g, LAW2, [0.0, 0.5, 0.5], [s] * 3, [1.0, 1.0, 1.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", [0, 1, 2])
def test_rejects_non_finite_times(bad, where):
    g = unit_grid()
    s = FluidState.constant(g, 1.0, 0.0)
    times = [0.0, 0.5, 1.0]
    times[where] = bad
    with pytest.raises(ValueError, match="sample times must be finite"):
        Trajectory(g, LAW2, times, [s] * 3, [1.0, 1.0, 1.0])


@pytest.mark.parametrize("times, message", [
    ([0.0, 1.0, 0.5], "strictly increasing"),
    ([0.5, 1.0, 1.5], "must start at 0"),
    ([], "equal positive length"),
], ids=["swapped", "late-start", "no-sample"])
def test_unchecked_trajectory_still_needs_increasing_times_from_0(times, message):
    # check=False waives the invariants a diagnosis reports, not the sample
    # structure every reading of the curve relies on
    g = unit_grid()

    def unchecked(times):
        n = len(times)
        fields = (np.ones((n,) + g.counts), np.zeros((n,) + g.counts + (1,)))
        return Trajectory(g, LAW2, times, fields, np.full(n, 2.0), e0=2.0, check=False)

    with pytest.raises(ValueError, match=message):
        unchecked(times)
    # a non-finite time is still left to the diagnosis
    assert math.isnan(unchecked([0.0, math.nan, 1.0]).times[1])


def test_stacked_fields_kept_without_copy_and_read_only():
    rng = np.random.default_rng(2)
    g = Grid(counts=(4, 3), lower=(0.0, 0.0), upper=(1.0, 1.0))
    rho = rng.uniform(0.5, 1.5, (3, 4, 3))
    m = rng.uniform(-1.0, 1.0, (3, 4, 3, 2))
    mean = integrate_energies(g, rho, m, LAW2)
    traj = Trajectory(g, LAW2, [0.0, 0.5, 1.0], (rho, m), np.full(3, mean.max()))
    assert traj.rho is rho and traj.m is m
    assert not (rho.flags.writeable or m.flags.writeable)
    states = traj.states
    assert all(np.shares_memory(st.rho, rho) and np.shares_memory(st.m, m) for st in states)
    assert np.array_equal(states[2].m, m[2]) and states[2].grid is g
    assert np.shares_memory(shift(traj, 0.5).rho, rho)
    listed = Trajectory(g, LAW2, traj.times, states, traj.energy)
    assert _same_bits(listed, traj) and not np.shares_memory(listed.rho, rho)
    with pytest.raises(ValueError, match="not samples"):
        Trajectory(g, LAW2, traj.times, (rho, m[..., :1]), traj.energy)


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
    assert same_content(shift(traj, 0.0), traj)


def test_shift_constant_keeps_values():
    traj = constant_traj([0.0, 0.5, 1.0])
    sh = shift(traj, 0.5)
    assert sh.t_end == pytest.approx(0.5)
    assert np.allclose(sh.energy, traj.energy[1:])


def test_shift_requires_sample_time():
    traj = constant_traj([0.0, 0.5, 1.0])
    with pytest.raises(ValueError, match="sample time"):
        shift(traj, 0.3)


def test_nan_is_not_a_sample_time():
    traj = constant_traj([0.0, 0.5, 1.0])
    for call in (traj.index_of, lambda t: shift(traj, t),
                 lambda t: concatenate(traj, traj, t)):
        with pytest.raises(ValueError, match="not a sample time"):
            call(math.nan)


@pytest.mark.parametrize("factor, same", [(0.5, True), (2.0, False)])
@pytest.mark.parametrize("horizon", [0.1, 1e7])
def test_sample_times_agree_within_1e_9_of_the_horizon(horizon, factor, same):
    # one sample time within 1e-9 * max(1, horizon): 1e-9 at 0.1, 1e-2 at 1e7
    off = factor * 1e-9 * max(1.0, horizon)
    times = np.array([0.0, 0.5 * horizon, horizon])
    u = constant_traj(times)
    moved = constant_traj(times + [0.0, off, 0.0])
    if same:
        require_shared(u, moved)
        assert u.index_of(0.5 * horizon + off) == 1
        assert constant_traj(times + [off, 0.0, 0.0]).times[0] == off
    else:
        with pytest.raises(ValueError, match="sample times do not match"):
            require_shared(u, moved)
        with pytest.raises(ValueError, match="not a sample time"):
            u.index_of(0.5 * horizon + off)
        with pytest.raises(ValueError, match="must start at 0"):
            constant_traj(times + [off, 0.0, 0.0])


def test_shift_semigroup():
    rng = np.random.default_rng(4)
    traj = random_step_traj(rng, n_times=9, t_end=2.0)
    a = shift(shift(traj, 0.5), 0.75)
    b = shift(traj, 1.25)
    assert same_content(a, b)


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
    assert same_content(joined, traj)


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


@pytest.mark.parametrize("dist, joins", [(0.5e-10, True), (2e-10, False)])
def test_concatenation_junction_tolerance_is_1e_10_relative_l1(dist, joins):
    # v starts from u's state at T but one of the 8 unit-density cells
    # differs by 8 * dist, a relative L1 distance of dist
    u = constant_traj([0.0, 0.5, 1.0], energy=np.full(3, 2.0))
    g = u.grid
    rho = np.ones(g.counts)
    rho[3] += 8.0 * dist
    s = FluidState(g, rho, np.zeros(g.counts + (1,)))
    v = Trajectory(g, LAW2, [0.0, 0.5], [s] * 2, [2.0, 2.0])
    if joins:
        assert concatenate(u, v, 0.5).rho[1, 3] == rho[3]
    else:
        with pytest.raises(ValueError, match="fields mismatch at the junction"):
            concatenate(u, v, 0.5)


@pytest.mark.parametrize("gap, joins", [(0.5e-9, True), (2e-9, False)])
def test_concatenation_energy_window_allows_1e_9_of_the_energy_scale(gap, joins):
    # v starts gap * scale above E_u(T) = 2, with scale = max(1, |e0|) = 4
    g = unit_grid()
    s = FluidState.constant(g, 1.0, 0.0)
    u = Trajectory(g, LAW2, [0.0, 0.5, 1.0], [s] * 3, [2.0] * 3, e0=4.0)
    v = Trajectory(g, LAW2, [0.0, 0.5], [s] * 2, [2.0] * 2, e0=2.0 + 4.0 * gap)
    if joins:
        assert concatenate(u, v, 0.5).energy_left_at(1) == 2.0
    else:
        with pytest.raises(ValueError, match="outside the admissible window"):
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
    assert same_content(left, right)


# -- convex combination ---------------------------------------------------

def test_convex_combine_lambda_one_returns_u():
    rng = np.random.default_rng(7)
    u = random_step_traj(rng)
    v = random_step_traj(rng)
    comb, stress = convex_combine(u, v, 1.0)
    assert same_content(comb, u)
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
    rng = np.random.default_rng(9)
    for _ in range(25):
        u = random_step_traj(rng)
        v = random_step_traj(rng)
        lam = rng.uniform(0, 1)
        comb, stress = convex_combine(u, v, lam)
        assert stress.min_eigenvalue() >= -1e-10 * max(stress.norm_scale(), 1e-30)
        assert np.min(compatibility(comb, stress)[2]) >= -1e-10 * max(1.0, comb.e0)


def _different_grid_calls():
    u = constant_traj([0.0, 1.0])
    v = constant_traj([0.0, 1.0], grid=unit_grid(6))
    return [
        lambda: convex_combine(u, v, 0.5),
        lambda: compare_admissible(u, v),
        lambda: compare_local(u, v),
        lambda: min_energy_merge(u, v, 0.0),
        lambda: estimate_reynolds([u, v]),
        lambda: CandidateSet([u, v]),
        lambda: concatenate(u, v, 1.0),
        lambda: check_order_coherence(u, v),
    ]


@pytest.mark.parametrize("which", range(8))
def test_every_pairing_rejects_different_grids(which):
    with pytest.raises(ValueError, match="grids do not match"):
        _different_grid_calls()[which]()


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


@pytest.mark.parametrize("factor, relation", [(0.5, "equal"), (2.0, "incomparable")])
def test_compare_local_equality_is_1e_9_of_the_energy_scale_and_relative_l1(factor, relation):
    # from sample 1 on, one pair differs by factor * 1e-9 * scale in energy
    # (scale = max(1, |e0|) = 4) and another by factor * 1e-9 in the relative
    # L1 distance of the fields: within the equality tolerance each pair is
    # equal, beyond it (and under the strict 1e-6 * scale) incomparable
    g = unit_grid()
    s = FluidState.constant(g, 1.0, 0.0)
    moved = FluidState.constant(g, 1.0 + factor * 1e-9, 0.0)
    times = [0.0, 0.5, 1.0]
    u = Trajectory(g, LAW2, times, [s] * 3, [3.0] * 3, e0=4.0)
    lower = Trajectory(g, LAW2, times, [s] * 3, [3.0] + [3.0 - factor * 4e-9] * 2, e0=4.0)
    apart = Trajectory(g, LAW2, times, [s, moved, moved], [3.0] * 3, e0=4.0)
    assert compare_local(u, lower).relation == relation
    assert compare_local(u, apart).relation == relation


@pytest.mark.parametrize("gap, relation", [(1e-5, "less"), (0.5e-6, "incomparable")])
def test_compare_local_strict_gap_is_1e_6_of_the_energy_scale(gap, relation):
    # after an equal prefix, u drops below v by gap * scale on the last
    # sample (scale = max(1, |e0|) = 4): beyond the strict tolerance
    # 1e-6 * scale it leads, under it (and above the equality tolerance
    # 1e-9 * scale) the two are incomparable
    times = [0.0, 0.5, 1.0]
    u = constant_traj(times, energy=np.array([3.0, 3.0, 3.0 - gap * 4.0]), e0=4.0)
    v = constant_traj(times, energy=np.full(3, 3.0), e0=4.0)
    assert compare_local(u, v).relation == relation


@pytest.mark.parametrize("other", [
    dict(times=[0.0, 0.5], energy=np.full(2, 2.0)),
    dict(times=[0.0, 0.5, 1.1]),
    dict(e0=3.5),
    dict(energy=np.array([2.0, 2.0, 1.9])),
    dict(rho=1.1),
], ids=["sample-count", "sample-time", "e0", "energy", "field"])
def test_same_content_tells_each_difference(other):
    same = dict(times=[0.0, 0.5, 1.0], energy=np.full(3, 2.0), e0=3.0)
    base, changed = constant_traj(**same), constant_traj(**{**same, **other})
    assert same_content(base, base)
    assert not same_content(base, changed) and not same_content(changed, base)


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


def test_stopping_time_needs_a_defect_strictly_above_delta():
    # a defect equal to delta does not stop; the next float above it does
    g = unit_grid()
    s, s2 = FluidState.constant(g, 1.0, 0.0), FluidState.constant(g, 0.9, 0.0)
    stepped = Trajectory(g, LAW2, [0.0, 0.5, 1.0], [s, s2, s2], [1.5, 1.5, 1.5])
    peak = float(np.max(stepped.defects()))
    assert stopping_time(stepped, peak) == math.inf
    assert stopping_time(stepped, math.nextafter(peak, 0.0)) == 0.5


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
    assert same_content(out, traj)


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


@pytest.mark.parametrize("gap, resets", [(0.5e-9, True), (2e-9, False)])
def test_defect_reset_start_tolerance_is_1e_9_of_the_energy_scale(gap, resets):
    # the continuation starts gap * scale above the mean energy 1 (scale 4)
    g = unit_grid()
    s = FluidState.constant(g, 1.0, 0.0)
    traj = Trajectory(g, LAW2, [0.0, 0.5, 1.0], [s] * 3, [1.4, 1.4, 1.4], e0=4.0)
    cont = Trajectory(g, LAW2, [0.0, 0.5], [s] * 2, [1.0 + 4.0 * gap] * 2)
    if resets:
        assert defect_reset(traj, 0.5, cont).energy[1] == cont.e0
    else:
        with pytest.raises(ValueError, match="must start at the mean energy"):
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


@pytest.mark.parametrize("defect, improves", [(2e-12, False), (8e-12, True)])
def test_improve_threshold_scales_with_e0(defect, improves):
    # "nothing to improve" below 1e-12 * max(1, |E0|), which is 4e-12 at E0 = 4
    g = unit_grid()
    s = FluidState.constant(g, 1.0, 0.0)
    mean = float(integrate_energy(s, LAW2))
    traj = Trajectory(g, LAW2, [0.0, 0.5, 1.0], [s] * 3, [mean + defect] * 3, e0=4.0)
    cont = Trajectory(g, LAW2, [0.0, 0.5], [s] * 2, [mean] * 2)
    if improves:
        competitor, _ = improve(traj, 0.5, cont)
        assert competitor.defects()[1] == 0.0
    else:
        with pytest.raises(ValueError, match="nothing to improve"):
            improve(traj, 0.5, cont)


def test_improve_on_solver_reset_continuation():
    # end to end: ensemble average with a real defect, solver continuation
    from eulerlab.dissipative import estimate_reynolds
    g = Grid(counts=(48,), lower=(-1.0,), upper=(1.0,), boundary=("reflective",))
    x = g.centers(0)
    rho = np.where(x < 0, 1.5, 0.3)
    st = FluidState(g, rho, np.zeros((48, 1)))
    triple = DataTriple(st, integrate_energy(st, LAW2))
    members = run(triple, [SchemeSpec(nu=nu) for nu in (1.0, 0.1)], LAW2, 0.6, 0.1,
                  energy_mode="budget")
    _, base = estimate_reynolds(members)
    k = int(np.argmax(base.defects()[:-1]))
    T = float(base.times[k])
    mean_t = float(base.mean_energies[k])
    [cont] = run(DataTriple(base.states[k], mean_t), [SchemeSpec(nu=0.1)], LAW2,
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
    assert _same_bits(loaded, traj)
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


# -- properties on generated trajectories ----------------------------------

@st.composite
def stacked_fields(draw, g, n):
    """(rho, m) stacks with vacuum cells, whose momentum is +0.0 or -0.0."""
    shape = (n,) + g.counts
    rho = draw(hnp.arrays(float, shape, elements=st.floats(0.25, 2.0)))
    m = draw(hnp.arrays(float, shape + (g.d,), elements=st.floats(-1.0, 1.0)))
    vac = draw(hnp.arrays(bool, shape))
    return np.where(vac, 0.0, rho), np.where(vac[..., None], 0.0 * m, m)


def _curve_above(g, fields, slack, law):
    """Non-increasing energy curve: running maximum of the later mean
    energies plus a non-increasing slack."""
    mean = integrate_energies(g, *fields, law)
    return np.maximum.accumulate(mean[::-1])[::-1] + np.sort(slack)[::-1]


@st.composite
def grids(draw):
    counts = draw(st.sampled_from([(2,), (3,), (5,), (2, 2), (3, 2), (2, 3)]))
    d = len(counts)
    return Grid(counts=counts, lower=(0.0,) * d, upper=(1.0,) * d)


slacks = st.lists(st.sampled_from([0.0, 0.25, 1.0]), min_size=6, max_size=6)


@st.composite
def trajectories(draw, g=None, n=None, law=LAW2):
    g = g or draw(grids())
    n = n or draw(st.integers(1, 5))
    fields = draw(stacked_fields(g, n))
    energy = _curve_above(g, fields, draw(slacks)[:n], law)
    return Trajectory(g, law, 0.25 * np.arange(n), fields, energy,
                      e0=energy[0] + draw(st.sampled_from([0.0, 0.5])))


@st.composite
def continuations(draw, u, k):
    """A trajectory that starts from u's fields at sample k and scales them
    down, with initial energy inside the admissible window of u at t_k."""
    scale = np.sort(draw(st.lists(st.floats(0.5, 1.0), min_size=0, max_size=3)))[::-1]
    scale = np.concatenate([[1.0], scale]).reshape((-1,) + (1,) * u.grid.d)
    fields = (scale * u.rho[k], scale[..., None] * u.m[k])
    mean = integrate_energies(u.grid, *fields, LAW2)  # non-increasing
    lo, hi = u.mean_energies[k], u.energy_left_at(k)
    e0 = lo + draw(st.floats(0.0, 1.0)) * max(hi - lo, 0.0)
    share = np.sort(draw(st.lists(st.floats(0.0, 1.0), min_size=len(scale),
                                  max_size=len(scale))))[::-1]
    energy = np.maximum(mean + share * (e0 - mean[0]), mean)
    return Trajectory(u.grid, LAW2, 0.25 * np.arange(len(scale)), fields, energy, e0=e0)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), lam=st.floats(0.0, 1.0), gamma=st.floats(1.1, 6.0))
def test_convex_combine_gap_psd_with_nonnegative_slack(data, lam, gamma):
    g = data.draw(grids())
    n = data.draw(st.integers(1, 5))
    law = GasLaw(a=1.0, gamma=gamma)
    u, v = data.draw(trajectories(g, n, law)), data.draw(trajectories(g, n, law))
    comb, gap = convex_combine(u, v, lam)
    assert gap.min_eigenvalue() >= -1e-12 * max(gap.norm_scale(), 1.0)
    assert np.min(compatibility(comb, gap)[2]) >= -1e-12 * max(1.0, comb.e0)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_concatenation_associative_on_generated_trajectories(data):
    u = data.draw(trajectories())
    k1 = data.draw(st.integers(0, u.n_samples - 1))
    v = data.draw(continuations(u, k1))
    k2 = data.draw(st.integers(0, v.n_samples - 1))
    w = data.draw(continuations(v, k2))
    T1, T2 = float(u.times[k1]), float(v.times[k2])
    left = concatenate(concatenate(u, v, T1), w, T1 + T2)
    right = concatenate(u, concatenate(v, w, T2), T1)
    assert same_content(left, right)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_shift_identity_on_generated_trajectories(data):
    traj = data.draw(trajectories())
    T = float(traj.times[data.draw(st.integers(0, traj.n_samples - 1))])
    for functional in (None, "full"):
        assert check_shift_identity(traj, T, functional) <= 1e-12 * max(1.0, traj.e0)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_improve_on_positive_defect_is_less_with_smaller_f1(data):
    u = data.draw(trajectories())
    positive = np.flatnonzero(u.defects() > 1e-3 * max(1.0, u.e0))
    assume(positive.size > 0)
    k = int(data.draw(st.sampled_from(positive)))
    # reset continuation: u's fields at T scaled down so that its mean
    # energy starts at u's and then stays at or below u's energy tail
    mean_k = u.mean_energies[k]
    scale = np.minimum(1.0, u.energy[k:] / mean_k) if mean_k > 0 else np.ones(u.n_samples - k)
    scale = scale.reshape((-1,) + (1,) * u.grid.d)
    fields = (scale * u.rho[k], scale[..., None] * u.m[k])
    mean = integrate_energies(u.grid, *fields, LAW2)
    cont = Trajectory(u.grid, LAW2, 0.25 * np.arange(len(scale)), fields, mean, e0=mean_k)
    competitor, order = improve(u, float(u.times[k]), cont)
    assert order.relation == "less"
    assert F1(competitor) < F1(u)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), lam=st.floats(0.05, 0.95))
def test_f2_full_strictly_convex_on_generated_fields(data, lam):
    g = data.draw(grids())
    n = data.draw(st.integers(1, 5))
    u, v = data.draw(trajectories(g, n)), data.draw(trajectories(g, n))
    assume(max(np.max(np.abs(u.rho - v.rho)), np.max(np.abs(u.m - v.m))) > 0.1)
    mid, _ = convex_combine(u, v, lam)
    chord = lam * F2(u) + (1.0 - lam) * F2(v)
    assert F2(mid) < chord * (1.0 - 1e-12)


# -- argument checks ---------------------------------------------------------------

@pytest.mark.parametrize("times, energy, message", [
    ([0.0, 0.5, 1.0], [1.0, 1.0], "must have equal positive length"),
    ([0.1, 0.5], [1.0, 1.0], "sample times must start at 0"),
    ([0.0, 0.5], [1.0, math.nan], "energy curve must be finite"),
    ([0.0, 0.5], [1.0, math.inf], "energy curve must be finite"),
], ids=["length", "start", "nan-energy", "inf-energy"])
def test_trajectory_rejects_bad_samples(times, energy, message):
    s = FluidState.constant(unit_grid(), 1.0, 0.0)
    with pytest.raises(ValueError, match=message):
        Trajectory(s.grid, LAW2, times, [s] * len(times), energy)


@pytest.mark.parametrize("lam", [-0.1, 1.5, math.nan])
def test_convex_combine_rejects_lambda_outside_the_unit_interval(lam):
    u = constant_traj([0.0, 1.0])
    with pytest.raises(ValueError, match="lambda must lie in"):
        convex_combine(u, u, lam)


@pytest.mark.parametrize("delta", [0.0, -1.0, math.nan])
def test_stopping_time_rejects_non_positive_delta(delta):
    with pytest.raises(ValueError, match="delta must be positive"):
        stopping_time(constant_traj([0.0, 1.0]), delta)


def test_load_bundle_rejects_short_energy_csv(tmp_path):
    save_bundle(constant_traj([0.0, 0.5, 1.0]), tmp_path / "b")
    energy = tmp_path / "b" / "energy.csv"
    energy.write_text("".join(energy.read_text().splitlines(keepends=True)[:-1]))
    with pytest.raises(ValueError, match="energy.csv rows do not match the sample times"):
        load_bundle(tmp_path / "b")
