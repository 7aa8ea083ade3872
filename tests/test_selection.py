import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from eulerlab.eos import GasLaw
from eulerlab.fields import FluidState, Grid, integrate_energy
from eulerlab.trajectory import (Trajectory, compare_admissible, compare_local,
                                 convex_combine, shift, weighted_norm)
from eulerlab.selection import (CandidateSet, F1, F2, check_concatenation_inequality,
                                check_order_coherence, check_shift_identity,
                                default_lambda_grid, is_absolute_minimizer,
                                laplace_energy, lerch_equal, select)

LAW2 = GasLaw(a=1.0, gamma=2.0)

# closed-form transform values frozen from 50-digit arithmetic
F1_STEP_2_TO_1 = 1.6321205588285577   # 2 - exp(-1)
LAPLACE_STEP = 1.2642411176571154     # 2 (1 - exp(-1))


def unit_grid(n=6):
    return Grid(counts=(n,), lower=(0.0,), upper=(1.0,))


def curve_traj(times, values, e0=None, rho=1.0, u=0.0, grid=None, check=True):
    g = grid or unit_grid()
    s = FluidState.constant(g, rho, u)
    return Trajectory(g, LAW2, np.asarray(times, float), [s] * len(times),
                      np.asarray(values, float), e0=e0, check=check)


def random_traj(rng, grid=None, n_times=6, t_end=1.5, e_base=4.0):
    g = grid or unit_grid()
    times = np.linspace(0.0, t_end, n_times)
    states = []
    for _ in range(n_times):
        rho = rng.uniform(0.3, 1.8, g.counts)
        m = rng.uniform(-1.0, 1.0, g.counts + (g.d,))
        states.append(FluidState(g, rho, m))
    mean = np.array([integrate_energy(s, LAW2) for s in states])
    energy = np.empty(n_times)
    energy[-1] = max(mean[-1], 0.0) + rng.uniform(0, 0.4)
    for k in range(n_times - 2, -1, -1):
        energy[k] = max(mean[k], energy[k + 1]) + rng.uniform(0, 0.4)
    energy = np.minimum(energy, e_base)
    energy = np.maximum.accumulate(energy[::-1])[::-1]
    energy = np.maximum(energy, mean)
    return Trajectory(g, LAW2, times, states, energy, e0=e_base, check=False)


# -- F1 ---------------------------------------------------------------------

def test_f1_constant():
    traj = curve_traj([0.0, 0.7, 1.3], [2.0, 2.0, 2.0])
    assert F1(traj) == pytest.approx(2.0, rel=1e-14)


def test_f1_step_curve():
    traj = curve_traj([0.0, 1.0], [2.0, 1.0])
    assert F1(traj) == pytest.approx(F1_STEP_2_TO_1, rel=1e-13)


def test_f1_affine_under_convex_combination():
    rng = np.random.default_rng(1)
    g = unit_grid()
    times = np.linspace(0, 1, 5)
    def mk():
        states = [FluidState(g, rng.uniform(0.3, 1.5, 6), rng.uniform(-1, 1, (6, 1)))
                  for _ in times]
        mean = np.array([integrate_energy(s, LAW2) for s in states])
        e = np.full(5, mean.max() + rng.uniform(0.1, 0.5))
        return Trajectory(g, LAW2, times, states, e, check=False)
    u, v = mk(), mk()
    lam = 0.3
    comb, _ = convex_combine(u, v, lam)
    assert F1(comb) == pytest.approx(lam * F1(u) + (1 - lam) * F1(v), rel=1e-13)


# -- F2 ---------------------------------------------------------------------

def test_f2_zero_trajectory():
    g = unit_grid()
    vac = FluidState(g, np.zeros(6), np.zeros((6, 1)))
    traj = Trajectory(g, LAW2, [0.0, 1.0], [vac] * 2, [0.0, 0.0])
    assert F2(traj, "full") == 0.0
    assert F2(traj, "momentum-only") == 0.0


def test_f2_momentum_only_constant():
    # |m| = 0.5 on the unit domain, q = 4/3: integral is 0.5^{4/3}
    traj = curve_traj([0.0, 1.0], [1.5, 1.5], rho=1.0, u=0.5, check=True)
    got = F2(traj, "momentum-only", q=4.0 / 3.0)
    assert got == pytest.approx(0.5 ** (4.0 / 3.0), rel=1e-13)


def test_f2_full_equals_weighted_norm_power():
    rng = np.random.default_rng(2)
    traj = random_traj(rng)
    q = 1.3
    assert F2(traj, "full", q=q) == pytest.approx(weighted_norm(traj, q) ** q, rel=1e-12)


def test_f2_q_range_enforced():
    traj = curve_traj([0.0, 1.0], [1.5, 1.5])
    with pytest.raises(ValueError, match="range"):
        F2(traj, "full", q=1.4)  # above 4/3 for gamma = 2
    with pytest.raises(ValueError):
        F2(traj, "full", q=1.0)


# -- select -------------------------------------------------------------------

def test_select_orders_by_f1():
    u = curve_traj([0.0, 1.0], [1.0, 1.0], e0=2.0)
    v = curve_traj([0.0, 1.0], [2.0, 2.0], e0=2.0)
    report = select(CandidateSet([v, u]))
    assert report.selected == 1
    assert report.survivors == [1]
    assert report.f2_values[0] is None


def _two_phase_traj(u1, e=2.0):
    """Members sharing the rest state at t=0, diverging afterwards."""
    g = unit_grid()
    s0 = FluidState.constant(g, 1.0, 0.0)
    s1 = FluidState.constant(g, 1.0, u1)
    return Trajectory(g, LAW2, [0.0, 0.5, 1.0], [s0, s1, s1], [e] * 3)


def test_select_f1_tie_broken_by_f2():
    # equal energy curves, different momentum size after t = 0
    u = _two_phase_traj(0.5)
    v = _two_phase_traj(-0.9)
    report = select(CandidateSet([v, u]))
    assert sorted(report.survivors) == [0, 1]
    assert report.selected == 1
    assert not report.tie_flagged


def test_select_singleton():
    u = curve_traj([0.0, 1.0], [1.0, 1.0])
    report = select(CandidateSet([u]))
    assert report.selected == 0
    assert not report.tie_flagged


def test_select_momentum_tie_flagged_deterministically():
    # mirrored momenta have identical momentum-only F2: lowest index wins
    u = _two_phase_traj(0.5)
    v = _two_phase_traj(-0.5)
    report = select(CandidateSet([u, v]), variant="momentum-only")
    assert report.tie_flagged
    assert report.tied == [0, 1]
    assert report.selected == 0


def test_select_determinism_under_permutation():
    rng = np.random.default_rng(3)
    base = [random_traj(rng) for _ in range(5)]
    # give them a common initial state and energy so the set is valid
    g = base[0].grid
    s0 = base[0].states[0]
    members = []
    for tr in base:
        states = [s0] + tr.states[1:]
        e = np.minimum(tr.energy, tr.e0)
        e[0] = max(e[0], integrate_energy(s0, LAW2))
        e = np.minimum.accumulate(e)
        e = np.maximum(e, [integrate_energy(st, LAW2) for st in states])
        members.append(Trajectory(g, LAW2, tr.times, states, e, e0=4.0, check=False))
    ref = select(CandidateSet(members))
    chosen = members[ref.selected]
    for perm_seed in range(5):
        perm = np.random.default_rng(perm_seed).permutation(len(members))
        permuted = [members[i] for i in perm]
        rep = select(CandidateSet(permuted))
        assert not rep.tie_flagged
        assert permuted[rep.selected] is chosen


def test_step1_survivors_match_pointwise_order():
    # pointwise-dominated energy curves can never survive over the
    # dominating member: F1 is monotone in the curve ordering
    rng = np.random.default_rng(4)
    for _ in range(20):
        u = random_traj(rng)
        drop = rng.uniform(0.05, 0.3, u.n_samples)
        lower = np.maximum(u.energy - drop, u.mean_energies)
        lower = np.minimum.accumulate(lower)
        lower = np.maximum(lower, u.mean_energies)
        v = Trajectory(u.grid, u.law, u.times, u.states, lower, e0=u.e0, check=False)
        if compare_admissible(v, u).relation == "less":
            assert F1(v) <= F1(u) + 1e-12


def test_f2_full_strict_convexity_midpoint():
    rng = np.random.default_rng(5)
    q = 4.0 / 3.0
    margins = []
    for _ in range(30):
        u = random_traj(rng)
        v = random_traj(rng)
        # rescale the larger one so both share the same F2 value
        fu, fv = F2(u, "full", q=q), F2(v, "full", q=q)
        if fv > fu:
            u, v, fu, fv = v, u, fv, fu
        s = (fv / fu) ** (1.0 / q)
        u = Trajectory(u.grid, u.law, u.times,
                       [FluidState(u.grid, s * st.rho, s * st.m) for st in u.states],
                       s * u.energy, e0=s * u.e0, check=False)
        assert F2(u, "full", q=q) == pytest.approx(fv, rel=1e-10)
        mid, _ = convex_combine(u, v, 0.5)
        margin = fv - F2(mid, "full", q=q)
        assert margin > 0
        margins.append(margin)
    assert min(margins) > 1e-8


# -- Laplace transforms --------------------------------------------------------

def test_laplace_constant_curves():
    traj = curve_traj([0.0, 1.0], [1.0, 1.0])
    assert laplace_energy(traj, 2.0) == pytest.approx(0.5, rel=1e-14)
    e0 = 3.7
    traj2 = curve_traj([0.0, 0.4, 1.1], [e0] * 3, e0=e0)
    for lam in (0.5, 1.0, 7.0):
        assert laplace_energy(traj2, lam) == pytest.approx(e0 / lam, rel=1e-13)


def test_laplace_step_curve():
    traj = curve_traj([0.0, 1.0], [2.0, 0.0], check=False)
    assert laplace_energy(traj, 1.0) == pytest.approx(LAPLACE_STEP, rel=1e-13)


def test_laplace_requires_positive_rate():
    traj = curve_traj([0.0, 1.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        laplace_energy(traj, 0.0)


# -- absolute minimizers --------------------------------------------------------

def test_minimizer_singleton():
    u = curve_traj([0.0, 1.0], [1.0, 1.0])
    v = is_absolute_minimizer(u, CandidateSet([u]))
    assert v.is_minimizer and v.lambda_lower == []


def test_minimizer_uniform_domination():
    cand = curve_traj([0.0, 1.0], [1.0, 1.0], e0=2.0)
    comp = curve_traj([0.0, 1.0], [2.0, 2.0], e0=2.0)
    v = is_absolute_minimizer(cand, CandidateSet([cand, comp]))
    assert v.is_minimizer
    assert v.lambda_lower == [pytest.approx(0.5)]  # holds from the grid minimum


def test_minimizer_crossing_curves_bracket_log2():
    # transforms 1/lam vs 2(1-exp(-lam))/lam cross at lam = ln 2
    cand = curve_traj([0.0, 1.0], [1.0, 1.0], e0=2.0)
    comp = curve_traj([0.0, 1.0], [2.0, 0.0], e0=2.0, check=False)
    cs = CandidateSet([cand, comp])
    v = is_absolute_minimizer(cand, cs)
    assert v.is_minimizer
    grid = default_lambda_grid()
    lam_lower = v.lambda_lower[0]
    k = int(np.argmin(np.abs(grid - lam_lower)))
    assert lam_lower >= math.log(2.0) - 1e-12
    assert k > 0 and grid[k - 1] < math.log(2.0)
    assert not is_absolute_minimizer(comp, cs).is_minimizer


def test_minimizer_grid_must_span():
    u = curve_traj([0.0, 1.0], [1.0, 1.0])
    with pytest.raises(ValueError, match="span"):
        is_absolute_minimizer(u, CandidateSet([u]), lambda_grid=np.array([2.0, 50.0]))


def test_at_most_one_minimizer_mechanism():
    # two members both certified minimal must have transform-equal energy
    # curves; distinct fields then break the strict-convexity midpoint test
    cand = curve_traj([0.0, 1.0], [1.0, 1.0], e0=2.0)
    twin = curve_traj([0.0, 0.5, 1.0], [1.0, 1.0, 1.0], e0=2.0)
    # different knot layout, same curve: both are minimizers and Lerch
    # certifies the curves equal
    assert lerch_equal(cand, twin)
    v1 = is_absolute_minimizer(cand, CandidateSet([cand, cand]))
    assert v1.is_minimizer

    # same energy curve but different fields after t = 0: the midpoint
    # strictly improves F2, so both cannot be the selected minimizer
    a = _two_phase_traj(0.6, e=2.0)
    b = _two_phase_traj(-0.6, e=2.0)
    va = is_absolute_minimizer(a, CandidateSet([a, b]))
    vb = is_absolute_minimizer(b, CandidateSet([a, b]))
    assert va.is_minimizer and vb.is_minimizer  # energy curves tie
    assert lerch_equal(a, b)
    mid, _ = convex_combine(a, b, 0.5)
    q = 4.0 / 3.0
    assert F2(mid, "full", q=q) < F2(a, "full", q=q) - 1e-6
    assert F2(mid, "full", q=q) < F2(b, "full", q=q) - 1e-6


# -- Lerch test -------------------------------------------------------------------

def test_lerch_identical_curves():
    rng = np.random.default_rng(6)
    u = random_traj(rng)
    assert lerch_equal(u, u)


def test_lerch_redundant_knots():
    u = curve_traj([0.0, 1.0], [2.0, 1.0], e0=2.0)
    v = curve_traj([0.0, 0.25, 0.5, 1.0], [2.0, 2.0, 2.0, 1.0], e0=2.0)
    assert lerch_equal(u, v)


def test_lerch_detects_early_difference():
    u = curve_traj([0.0, 0.5, 1.0], [2.0, 1.0, 1.0], e0=2.0)
    v = curve_traj([0.0, 0.5, 1.0], [1.0, 1.0, 1.0], e0=2.0)
    assert not lerch_equal(u, v)


# -- shift / concatenation identities ------------------------------------------------

def test_shift_identity_trivial_cases():
    rng = np.random.default_rng(7)
    traj = random_traj(rng)
    assert check_shift_identity(traj, 0.0, "F1") <= 1e-14
    const = curve_traj([0.0, 0.5, 1.0], [1.5] * 3)
    for T in (0.0, 0.5, 1.0):
        assert check_shift_identity(const, T, "F1") <= 1e-12 * math.exp(T)


def test_shift_identity_randomized_all_functionals():
    rng = np.random.default_rng(8)
    for _ in range(100):
        traj = random_traj(rng, n_times=rng.integers(3, 9))
        k = rng.integers(0, traj.n_samples)
        T = float(traj.times[k])
        for f in ("F1", "F2-full", "F2-momentum"):
            res = check_shift_identity(traj, T, f)
            scale = max(1.0, math.exp(T) * abs(F1(traj)))
            assert res <= 1e-10 * scale


def test_concatenation_self_slack_zero():
    rng = np.random.default_rng(9)
    for _ in range(100):
        traj = random_traj(rng, n_times=rng.integers(3, 9))
        k = rng.integers(0, traj.n_samples)
        T = float(traj.times[k])
        slack = check_concatenation_inequality(traj, shift(traj, T), T, "F1")
        assert abs(slack) <= 1e-10 * max(1.0, abs(F1(traj)))


def test_concatenation_improving_tail_gains():
    g = unit_grid()
    s = FluidState.constant(g, 1.0, 0.0)
    times = [0.0, 0.5, 1.0]
    u = Trajectory(g, LAW2, times, [s] * 3, [2.0, 2.0, 2.0])
    v = Trajectory(g, LAW2, [0.0, 0.5], [s] * 2, [1.0, 1.0])
    slack = check_concatenation_inequality(u, v, 0.5, "F1")
    assert slack > 0


# -- order coherence -----------------------------------------------------------------

def test_order_coherence_on_local_less():
    g = unit_grid()
    s = FluidState.constant(g, 1.0, 0.0)
    times = np.linspace(0.0, 2.0, 9)
    hi = Trajectory(g, LAW2, times, [s] * 9, np.full(9, 3.0))
    lo_vals = np.full(9, 3.0)
    lo_vals[4:] = 1.5
    lo = Trajectory(g, LAW2, times, [s] * 9, lo_vals)
    order = compare_local(lo, hi)
    assert order.relation == "less"
    threshold, violations = check_order_coherence(lo, hi, order)
    assert violations == []
    grid = default_lambda_grid()
    assert any(lam >= threshold for lam in grid)  # the check was not vacuous


def test_order_coherence_randomized_corpus():
    rng = np.random.default_rng(10)
    checked = 0
    for _ in range(40):
        u = random_traj(rng, n_times=8, t_end=2.0)
        k = rng.integers(1, 7)
        drop = rng.uniform(0.2, 0.8)
        vals = u.energy.copy()
        vals[k:] = np.maximum(vals[k:] - drop, 0.0)
        vals = np.minimum.accumulate(vals)
        vals = np.maximum(vals, u.mean_energies)
        if np.any(vals[k:] >= u.energy[k:] - 1e-6):
            continue
        lower = Trajectory(u.grid, u.law, u.times, u.states, vals, e0=u.e0, check=False)
        order = compare_local(lower, u)
        if order.relation != "less":
            continue
        checked += 1
        _, violations = check_order_coherence(lower, u, order)
        assert violations == []
    assert checked >= 10


# -- properties on generated trajectories ----------------------------------

def _curve_above(states, slack):
    """Non-increasing energy curve: the running maximum of the later mean
    energies plus a non-increasing slack."""
    mean = np.array([integrate_energy(s, LAW2) for s in states])
    return np.maximum.accumulate(mean[::-1])[::-1] + slack


@st.composite
def trajectory_pairs(draw):
    """Two trajectories on one grid and time line.  ``v`` repeats the first
    ``shared`` fields of ``u`` and possibly its energy slack, so pairs range
    over equal, prefix-sharing and unrelated trajectories."""
    n, cells = draw(st.integers(2, 5)), draw(st.integers(2, 4))
    g = unit_grid(cells)
    times = 0.25 * np.arange(n)

    def fields():
        rho = draw(hnp.arrays(float, (n, cells), elements=st.floats(0.25, 2.0)))
        m = draw(hnp.arrays(float, (n, cells, 1), elements=st.floats(-1.0, 1.0)))
        return [FluidState(g, r, mk) for r, mk in zip(rho, m)]

    def slack():
        values = draw(st.lists(st.sampled_from([0.0, 0.5, 2.0]), min_size=n, max_size=n))
        return np.sort(values)[::-1]

    su, sl = fields(), slack()
    shared = draw(st.integers(0, n))
    sv = su[:shared] + fields()[shared:]
    if not draw(st.booleans()):
        sl = slack()
    u = Trajectory(g, LAW2, times, su, _curve_above(su, sl))
    return u, Trajectory(g, LAW2, times, sv, _curve_above(sv, sl))


@settings(max_examples=40, deadline=None)
@given(pair=trajectory_pairs())
def test_orders_irreflexive(pair):
    for u in pair:
        for compare in (compare_local, compare_admissible):
            assert compare(u, u).relation == "equal"  # so never less than itself


@settings(max_examples=80, deadline=None)
@given(pair=trajectory_pairs())
def test_orders_asymmetric(pair):
    u, v = pair
    for compare in (compare_local, compare_admissible):
        uv, vu = compare(u, v).relation, compare(v, u).relation
        assert not (uv == vu and uv in ("less", "greater"))


@settings(max_examples=60, deadline=None)
@given(pair=trajectory_pairs(), lam=st.floats(0.0, 1.0))
def test_f1_affine_under_generated_convex_combinations(pair, lam):
    u, v = pair
    w, _ = convex_combine(u, v, lam)
    assert F1(w) == pytest.approx(lam * F1(u) + (1.0 - lam) * F1(v), rel=1e-12, abs=1e-12)
