import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from eulerlab.eos import GasLaw
from eulerlab.fields import FluidState, Grid, integrate_energies, integrate_energy
from eulerlab.trajectory import (Trajectory, compare_local, concatenate, convex_combine,
                                 shift)
from eulerlab.selection import (CandidateSet, F1, F2, check_order_coherence,
                                _RATES, default_q, is_absolute_minimizer,
                                laplace_energy, select)
from paper_checks import (check_concatenation_inequality, check_shift_identity,
                          compare_admissible, lerch_equal, weighted_norm)

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


@pytest.mark.parametrize("gamma, q", [(1.4, 2.8 / 2.4), (2.0, 4.0 / 3.0), (3.0, 4.0 / 3.0)])
def test_default_q_is_q_max_capped_at_4_3(gamma, q):
    # q_max = 2 gamma / (gamma + 1) is 7/6, 4/3 and 3/2 here
    assert default_q(GasLaw(a=1.0, gamma=gamma)) == q


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


@pytest.mark.parametrize("gap, tied", [(0.5e-9, True), (2e-9, False)])
def test_select_step1_ties_within_1e_9_of_the_least_f1(gap, tied):
    # F1 of a constant curve is its value; the step-1 tie tolerance is
    # 1e-9 * |min F1|, here 3e-9
    low = curve_traj([0.0, 1.0], [3.0, 3.0], e0=4.0)
    high = curve_traj([0.0, 1.0], [3.0 * (1.0 + gap)] * 2, e0=4.0)
    report = select(CandidateSet([low, high]))
    assert report.survivors == ([0, 1] if tied else [0])


@pytest.mark.parametrize("gap, tied", [(0.5e-9, True), (2e-9, False)])
def test_select_step2_ties_within_1e_9_of_the_least_f2(gap, tied):
    # equal energy curves survive step 1 together; momentum-only F2 scales
    # as |u|^q with q = 4/3, so u * (1 + gap)^(3/4) raises it by the factor
    # 1 + gap against the step-2 tie tolerance 1e-9 * |min F2|
    low = _two_phase_traj(0.5)
    high = _two_phase_traj(0.5 * (1.0 + gap) ** 0.75)
    report = select(CandidateSet([low, high]), variant="momentum-only")
    assert report.survivors == [0, 1]
    assert report.f2_values[1] / report.f2_values[0] - 1.0 == pytest.approx(gap, rel=1e-4)
    assert report.tied == ([0, 1] if tied else [0])


@pytest.mark.parametrize("dist, accepted", [(0.5e-9, True), (2e-9, False)])
def test_candidate_set_fields_tolerance_is_1e_9_relative_l1(dist, accepted):
    # one of the 6 unit-density cells of the second member's first sample
    # differs by 6 * dist, a relative L1 distance of dist
    base = curve_traj([0.0, 1.0], [3.0, 3.0], e0=4.0)
    g = base.grid
    rho = np.ones(g.counts)
    rho[2] += 6.0 * dist
    s = FluidState.constant(g, 1.0, 0.0)
    other = Trajectory(g, LAW2, [0.0, 1.0], [FluidState(g, rho, s.m), s], [3.0, 3.0], e0=4.0)
    if accepted:
        CandidateSet([base, other])
    else:
        with pytest.raises(ValueError, match="member 1 starts from different fields"):
            CandidateSet([base, other])


@pytest.mark.parametrize("gap, accepted", [(0.5e-12, True), (2e-12, False)])
def test_candidate_set_e0_tolerance_is_1e_12_of_the_energy_scale(gap, accepted):
    # e0 = 4 gives the scale 4
    base = curve_traj([0.0, 1.0], [3.0, 3.0], e0=4.0)
    other = curve_traj([0.0, 1.0], [3.0, 3.0], e0=4.0 + 4.0 * gap)
    if accepted:
        CandidateSet([base, other])
    else:
        with pytest.raises(ValueError, match="member 1 starts from a different total energy"):
            CandidateSet([base, other])


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


@pytest.mark.parametrize("gap, lam, minimizer",
                         [(2e-12, 128.0, False), (0.5e-12, 0.5, True)])
def test_minimizer_tolerance_is_1e_12_of_the_energy_scale(gap, lam, minimizer):
    # a constant energy excess eps transforms to eps / lam, largest at the
    # grid's lowest rate 0.5 and least at its top rate 128.  The candidate
    # may sit above its competitor by 1e-12 * max(1, |E0|), here 4e-12: a
    # gap of 2e-12 * 4 at the top rate is too much, one of at most
    # 0.5e-12 * 4 at every rate is within it
    times = [0.0, 0.5, 1.0]
    eps = gap * 4.0 * lam
    cand = curve_traj(times, [3.0 + eps] * 3, e0=4.0)
    comp = curve_traj(times, [3.0] * 3, e0=4.0)
    verdict = is_absolute_minimizer(cand, CandidateSet([cand, comp]))
    assert verdict.is_minimizer is minimizer
    assert verdict.lambda_lower == [0.5 if minimizer else None]


def test_minimizer_crossing_curves_bracket_log2():
    # transforms 1/lam vs 2(1-exp(-lam))/lam cross at lam = ln 2
    cand = curve_traj([0.0, 1.0], [1.0, 1.0], e0=2.0)
    comp = curve_traj([0.0, 1.0], [2.0, 0.0], e0=2.0, check=False)
    cs = CandidateSet([cand, comp])
    v = is_absolute_minimizer(cand, cs)
    assert v.is_minimizer
    lam_lower = v.lambda_lower[0]
    k = int(np.argmin(np.abs(_RATES - lam_lower)))
    assert lam_lower >= math.log(2.0) - 1e-12
    assert k > 0 and _RATES[k - 1] < math.log(2.0)
    assert not is_absolute_minimizer(comp, cs).is_minimizer


# Probes of the grid verdict: 8 constant cells, 11 samples 0.05 apart and
# E0 3; each curve holds 3 and drops to a level from a sample on.  The
# (level, sample) pairs of u and v: in the miss u is eventually lower, in
# the false pass v is, but the two gaps change sign past the top rate 128
PROBES = {"miss": ((3.0 - 1e-6, 1), (2.5, 3)), "false-pass": ((2.5, 3), (3.0 - 1e-9, 1))}


def _probe_pair(probe):
    def curve(level, k):
        values = np.full(11, 3.0)
        values[k:] = level
        return curve_traj(np.linspace(0.0, 0.5, 11), values, e0=3.0, grid=unit_grid(8))
    return tuple(curve(*c) for c in PROBES[probe])


def _exact_gap(u, v, lam):
    """Transform of E_u - E_v at rate lam in 50-digit decimal arithmetic."""
    with localcontext(prec=50):
        lam = Decimal(lam)
        et = [(-lam * Decimal(float(t))).exp() for t in u.times] + [Decimal(0)]
        return float(sum((et[k] - et[k + 1]) / lam * (Decimal(float(a)) - Decimal(float(b)))
                         for k, (a, b) in enumerate(zip(u.energy, v.energy))))


@pytest.mark.parametrize("probe, gaps", [("miss", (4.94e-12, -1.08e-14)),
                                         ("false-pass", (-1.79e-11, 1.07e-17))])
def test_probe_gaps_change_sign_past_the_top_rate(probe, gaps):
    # the sign at 256 is that of the first sample where the curves differ,
    # which the gap keeps at every larger rate
    u, v = _probe_pair(probe)
    assert _RATES[-1] == 128.0
    assert [_exact_gap(u, v, lam) for lam in (128.0, 256.0)] == pytest.approx(gaps, rel=5e-3)


@pytest.mark.xfail(strict=True, reason="the rate grid stops at 128, before the gap's last "
                   "sign change; a verdict from the first difference's sign passes")
@pytest.mark.parametrize("probe, minimizer", [("miss", True), ("false-pass", False)])
def test_minimizer_verdict_follows_the_sign_past_the_grid(probe, minimizer):
    u, v = _probe_pair(probe)
    assert is_absolute_minimizer(u, CandidateSet([u, v])).is_minimizer is minimizer


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
    assert check_shift_identity(traj, 0.0) <= 1e-14
    const = curve_traj([0.0, 0.5, 1.0], [1.5] * 3)
    for T in (0.0, 0.5, 1.0):
        assert check_shift_identity(const, T) <= 1e-12 * math.exp(T)


def test_shift_identity_randomized_all_functionals():
    rng = np.random.default_rng(8)
    for _ in range(100):
        traj = random_traj(rng, n_times=rng.integers(3, 9))
        k = rng.integers(0, traj.n_samples)
        T = float(traj.times[k])
        for f in (None, "full", "momentum-only"):
            res = check_shift_identity(traj, T, f)
            scale = max(1.0, math.exp(T) * abs(F1(traj)))
            assert res <= 1e-10 * scale


def test_concatenation_self_slack_zero():
    rng = np.random.default_rng(9)
    for _ in range(100):
        traj = random_traj(rng, n_times=rng.integers(3, 9))
        k = rng.integers(0, traj.n_samples)
        T = float(traj.times[k])
        slack = check_concatenation_inequality(traj, shift(traj, T), T)
        assert abs(slack) <= 1e-10 * max(1.0, abs(F1(traj)))


def test_concatenation_improving_tail_gains():
    g = unit_grid()
    s = FluidState.constant(g, 1.0, 0.0)
    times = [0.0, 0.5, 1.0]
    u = Trajectory(g, LAW2, times, [s] * 3, [2.0, 2.0, 2.0])
    v = Trajectory(g, LAW2, [0.0, 0.5], [s] * 2, [1.0, 1.0])
    slack = check_concatenation_inequality(u, v, 0.5)
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
    assert compare_local(lo, hi).relation == "less"
    threshold, violations = check_order_coherence(lo, hi)
    assert violations == []
    assert any(lam >= threshold for lam in _RATES)  # the check was not vacuous


def test_order_coherence_ignores_the_prefix_before_T():
    # compare_local calls prefixes within 1e-9 x scale equal; a 1e-10 lead
    # before T must not outweigh the e^(-lambda T)-weighted gap after it
    g = unit_grid()
    s = FluidState.constant(g, 0.5)
    times = np.linspace(0.0, 2.0, 9)
    lo_vals = np.where(times < 1.0, 3.0 + 1e-10, 1.5)
    lo = Trajectory(g, LAW2, times, [s] * 9, lo_vals)
    hi = Trajectory(g, LAW2, times, [s] * 9, np.full(9, 3.0))
    order = compare_local(lo, hi)
    assert (order.relation, order.T) == ("less", 1.0)
    threshold, violations = check_order_coherence(lo, hi)
    assert violations == []
    assert sum(lam >= threshold for lam in _RATES) >= 10


@pytest.mark.parametrize("t_end, n, k, end, rounds", [
    (1e5, 10, 2, 5, "below"),   # T + delta falls 7.3e-12 short of times[5]
    (0.8, 12, 3, 11, "above"),  # T + delta passes the last sample by 1.1e-16
])
def test_order_coherence_window_ends_at_its_sample_within_the_rule(t_end, n, k, end, rounds):
    # compare_local's witness window runs from sample k to sample end, where
    # hi drops; T + delta misses times[end] by round-off, but the check reads
    # the window as the sample indices k..end - 1, so the gap is 1 on each of
    # those windows and nothing past them: no window is dropped, and no unit
    # of constant extension (where the greater curve has dropped below) is
    # added
    g = unit_grid()
    s = FluidState.constant(g, 1.0, 0.0)  # mean energy 1
    times = (t_end / (n - 1)) * np.arange(n)
    hi = Trajectory(g, LAW2, times, [s] * n, np.where(times < times[end], 3.0, 1.5))
    lo = Trajectory(g, LAW2, times, [s] * n, np.where(times < times[k], 3.0, 2.0))
    order = compare_local(lo, hi)
    assert (order.relation, order.T) == ("less", times[k])
    t_hi = order.T + order.delta
    assert (t_hi > times[end]) == (rounds == "above") and t_hi != times[end]
    gap = 0.0
    for i in range(k, end):
        gap += (3.0 - 2.0) * (times[i + 1] - times[i])
    threshold, _ = check_order_coherence(lo, hi)
    assert threshold == 2.0 * 3.0 / gap
    assert threshold == pytest.approx(2.0 * 3.0 / (times[end] - times[k]), rel=1e-12)


def test_order_coherence_window_to_the_horizon_takes_one_unit_of_extension():
    # lo stays 1 below hi from sample 3 on, so the witness window runs past
    # the horizon: the gap sums the windows from sample 3 and one unit of
    # constant extension beyond the last sample
    g = unit_grid()
    s = FluidState.constant(g, 1.0, 0.0)  # mean energy 1
    times = np.linspace(0.0, 2.0, 9)
    hi = Trajectory(g, LAW2, times, [s] * 9, np.full(9, 3.0))
    lo = Trajectory(g, LAW2, times, [s] * 9, np.where(times < times[3], 3.0, 2.0))
    assert compare_local(lo, hi).delta == math.inf
    gap = 0.0
    for i in range(3, 8):
        gap += (3.0 - 2.0) * (times[i + 1] - times[i])
    gap += (3.0 - 2.0) * 1.0
    threshold, violations = check_order_coherence(lo, hi)
    assert threshold == 2.0 * 3.0 / gap and violations == []


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
        if compare_local(lower, u).relation != "less":
            continue
        checked += 1
        _, violations = check_order_coherence(lower, u)
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


# -- the semigroup property of the selection -----------------------------------

@st.composite
def split_candidates(draw):
    """Two to four candidates on one grid and time line that agree exactly in
    fields up to a sample time T = t_k and in energy before it, and part
    after.  A candidate may repeat another's later fields or energy slack,
    so exact F1 and F2 ties occur.  Each curve is a shared floor (the
    running maximum of every candidate's later mean energies) plus its own
    non-increasing slack; returns the candidates and T."""
    n, cells = draw(st.integers(3, 6)), draw(st.integers(2, 4))
    k = draw(st.integers(1, n - 2))
    g = unit_grid(cells)

    def fields(count):
        return (draw(hnp.arrays(float, (count, cells), elements=st.floats(0.25, 2.0))),
                draw(hnp.arrays(float, (count, cells, 1), elements=st.floats(-1.0, 1.0))))

    def slack(count):
        values = draw(st.lists(st.sampled_from([0.0, 0.5, 2.0]), min_size=count,
                               max_size=count))
        return np.sort(values)[::-1]

    head = fields(k + 1)
    tails, slacks = [], []
    for i in range(draw(st.integers(2, 4))):
        repeat = i > 0 and draw(st.booleans())
        tails.append(tails[draw(st.integers(0, i - 1))] if repeat else fields(n - k - 1))
        slacks.append(slacks[draw(st.integers(0, i - 1))] if i and draw(st.booleans())
                      else slack(n - k))
    rho = [np.concatenate([head[0], t[0]]) for t in tails]
    m = [np.concatenate([head[1], t[1]]) for t in tails]
    means = np.array([integrate_energies(g, r, mk, LAW2) for r, mk in zip(rho, m)])
    floor = np.maximum.accumulate(means.max(axis=0)[::-1])[::-1]
    # the shared head lies above every candidate's energy at t_k
    head_energy = floor[:k] + max(sl[0] for sl in slacks) + slack(k)
    times = 0.25 * np.arange(n)
    members = [Trajectory(g, LAW2, times, (r, mk),
                          np.concatenate([head_energy, floor[k:] + sl]), e0=head_energy[0])
               for r, mk, sl in zip(rho, m, slacks)]
    return members, float(times[k])


def _separated(values):
    """Every two values are equal or further apart than 1000 times select's
    default tie tolerance."""
    values = [v for v in values if v is not None]
    tol = 1e-6 * max(abs(min(values)), 1e-30)
    return all(a == b or abs(a - b) > tol for a in values for b in values)


@settings(max_examples=80, deadline=None)
@given(case=split_candidates(), variant=st.sampled_from(["full", "momentum-only"]))
def test_selection_commutes_with_shift(case, variant):
    # candidates that agree up to T differ only in their shifted tails, and
    # shifting scales every F1 and F2 gap by e^T
    members, T = case
    reports = [select(CandidateSet(c), variant=variant)
               for c in (members, [shift(u, T) for u in members])]
    assume(all(_separated(r.f1_values) and _separated(r.f2_values) for r in reports))
    assert reports[0].survivors == reports[1].survivors
    assert reports[0].selected == reports[1].selected


@st.composite
def heads_and_tails(draw):
    """Heads h_1..h_a on samples 0..k from one state to one state at
    T = t_k, and tails v_1..v_b from that state, whose shared e0 lies in
    every head's concatenation window.  Energies are a shared floor (the
    running maximum of the later mean energies) plus a non-increasing
    slack from {0, 0.5, 2}, so exact ties occur and every gap is far from
    the order's tolerances; returns the heads, the tails and T."""
    k, n, cells = draw(st.integers(1, 3)), draw(st.integers(2, 4)), draw(st.integers(2, 4))
    g = unit_grid(cells)

    def fields(count):
        return (draw(hnp.arrays(float, (count, cells), elements=st.floats(0.25, 2.0))),
                draw(hnp.arrays(float, (count, cells, 1), elements=st.floats(-1.0, 1.0))))

    def slack(count):
        values = draw(st.lists(st.sampled_from([0.0, 0.5, 2.0]), min_size=count,
                               max_size=count))
        return np.sort(values)[::-1]

    def energies(stacks, floor_min=0.0):
        means = np.array([integrate_energies(g, r, mk, LAW2) for r, mk in stacks])
        floor = np.maximum(np.maximum.accumulate(means.max(axis=0)[::-1])[::-1], floor_min)
        return [floor + slack(len(floor)) for _ in stacks]

    start, junction = fields(1), fields(1)
    tails = []
    for _ in range(draw(st.integers(2, 3))):
        rest = fields(n - 1)
        tails.append(tuple(np.concatenate([a, b]) for a, b in zip(junction, rest)))
    tail_energy = energies(tails)
    e_T = max(e[0] for e in tail_energy)
    heads = []
    for _ in range(draw(st.integers(1, 3))):
        inner = fields(k - 1)
        heads.append(tuple(np.concatenate(parts) for parts in zip(start, inner, junction)))
    head_energy = energies([(r[:k], mk[:k]) for r, mk in heads], floor_min=e_T)
    e0 = max(e[0] for e in head_energy)
    dt = 0.25
    heads = [Trajectory(g, LAW2, dt * np.arange(k + 1), fld, np.append(e, e_T), e0=e0)
             for fld, e in zip(heads, head_energy)]
    tails = [Trajectory(g, LAW2, dt * np.arange(n), fld, e, e0=e_T)
             for fld, e in zip(tails, tail_energy)]
    return heads, tails, dt * k


_FUNCTIONALS = {"F1": F1, "F2 full": lambda u: F2(u, "full"),
                "F2 momentum-only": lambda u: F2(u, "momentum-only")}


@settings(max_examples=60, deadline=None)
@given(case=heads_and_tails())
def test_functionals_split_at_the_junction_of_a_concatenation(case):
    # F(concatenate(h, v, T)) = (the part of h before T) + e^(-T) F(v); the
    # head's part is F(h) less e^(-T) times F of its one-sample rest at T
    heads, tails, T = case
    for name, f in _FUNCTIONALS.items():
        for h in heads:
            head = f(h) - math.exp(-T) * f(shift(h, T))
            for v in tails:
                whole, part = f(concatenate(h, v, T)), math.exp(-T) * f(v)
                assert whole == pytest.approx(head + part, rel=1e-12,
                                              abs=1e-12 * max(abs(head), abs(part))), name


@settings(max_examples=60, deadline=None)
@given(case=heads_and_tails(), variant=st.sampled_from(["full", "momentum-only"]))
def test_selection_restarts_at_a_junction(case, variant):
    # the selection among all concatenations c_ij picks the best head and,
    # after T, the member that the selection among the tails picks
    heads, tails, T = case
    joined = [concatenate(h, v, T) for h in heads for v in tails]
    report = select(CandidateSet(joined), variant=variant)
    among_tails = select(CandidateSet(tails), variant=variant)
    assume(all(_separated(r.f1_values) and _separated(r.f2_values)
               for r in (report, among_tails)))
    i, j = divmod(report.selected, len(tails))
    rest, best = shift(joined[report.selected], T), tails[among_tails.selected]
    assert rest.energy.tobytes() == best.energy.tobytes()
    assert rest.rho.tobytes() == best.rho.tobytes() and rest.m.tobytes() == best.m.tobytes()
    head_f1 = [F1(h) - math.exp(-T) * F1(shift(h, T)) for h in heads]
    assert _separated(head_f1) and head_f1[i] == min(head_f1)


@settings(max_examples=60, deadline=None)
@given(case=heads_and_tails())
def test_local_order_of_concatenations_is_that_of_their_tails(case):
    heads, tails, T = case
    for h in heads:
        for v in tails:
            for w in tails:
                joined = compare_local(concatenate(h, v, T), concatenate(h, w, T))
                alone = compare_local(v, w)
                assert joined.relation == alone.relation
                if alone.T is not None:
                    assert joined.T == T + alone.T and joined.delta == alone.delta


@settings(max_examples=80, deadline=None)
@given(case=split_candidates())
def test_order_coherence_on_generated_less_pairs(case):
    members, _ = case
    for u in members:
        for v in members:
            if compare_local(u, v).relation == "less":
                _, violations = check_order_coherence(u, v)
                assert violations == []


# -- argument checks ---------------------------------------------------------------

def test_candidate_set_rejects_no_member():
    with pytest.raises(ValueError, match="must be non-empty"):
        CandidateSet([])


def test_candidate_set_rejects_another_total_energy():
    a = curve_traj([0.0, 1.0], [3.0, 3.0], e0=3.0)
    b = curve_traj([0.0, 1.0], [3.0, 3.0], e0=4.0)
    with pytest.raises(ValueError, match="member 1 starts from a different total energy"):
        CandidateSet([a, b])


def test_f2_rejects_unknown_variant():
    with pytest.raises(ValueError, match="variant must be one of"):
        F2(curve_traj([0.0, 1.0], [3.0, 3.0]), variant="kinetic")


def test_absolute_minimizer_needs_a_member():
    a, outsider = curve_traj([0.0, 1.0], [3.0, 3.0]), curve_traj([0.0, 1.0], [3.0, 3.0])
    with pytest.raises(ValueError, match="must be a member of the set"):
        is_absolute_minimizer(outsider, CandidateSet([a]))


def _not_less_pairs():
    # sample 1 on: 5e-7 below, within the strict tolerance 1e-6 * scale (scale 3)
    # and beyond the equality tolerance 1e-9 * scale; a caller-supplied
    # "less" order with T 0.5 and delta inf once took this pair to the
    # threshold 8.0e6 with no violations
    near = curve_traj([0.0, 0.5, 1.0], [3.0, 3.0 - 5e-7, 3.0 - 5e-7], e0=3.0)
    a = curve_traj([0.0, 0.5, 1.0], [3.0, 3.0, 3.0], e0=3.0)
    lower = curve_traj([0.0, 0.5, 1.0], [3.0, 2.0, 2.0], e0=3.0)
    return {"incomparable": (near, a), "equal": (a, a), "greater": (a, lower)}


@pytest.mark.parametrize("relation", ["incomparable", "equal", "greater"])
def test_order_coherence_rejects_a_pair_that_is_not_less(relation):
    u, v = _not_less_pairs()[relation]
    assert compare_local(u, v).relation == relation
    with pytest.raises(ValueError, match=f"local order 'less', got '{relation}'"):
        check_order_coherence(u, v)
