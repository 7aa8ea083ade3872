"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Every tolerance is pinned here; nothing is deferred to later
calibration.
"""

import json
import math
import time

import numpy as np
import pytest

from eulerlab.cli import main
from eulerlab.eos import GasLaw, defect_constant
from eulerlab.fields import DataTriple, FluidState, Grid, integrate_energy
from eulerlab.riemann import RiemannData, sample_cell_averages, solve_riemann
from eulerlab.solver import SchemeSpec, run
from eulerlab.trajectory import (Trajectory, compare_local, convex_combine,
                                 improve, shift)
from eulerlab.dissipative import (continuity_residual, default_dictionary,
                                  estimate_reynolds, momentum_residual)
from eulerlab.selection import (CandidateSet, F1, F2, check_order_coherence,
                                _RATES, is_absolute_minimizer,
                                laplace_energy, select)
from paper_checks import check_concatenation_inequality, check_shift_identity

LAW2 = GasLaw(a=1.0, gamma=2.0)

# local-order pairs produced while the suite runs; criterion 10 sweeps them
_LESS_PAIRS = []


def _report(num, text):
    print(f"[PASS] criterion {num}: {text}")


def _random_step_trajectory(rng, grid, times, headroom=0.5):
    states = []
    for _ in times:
        rho = rng.uniform(0.3, 2.0, grid.counts)
        m = rng.uniform(-1.0, 1.0, grid.counts + (grid.d,))
        states.append(FluidState(grid, rho, m))
    mean = np.array([integrate_energy(s, LAW2) for s in states])
    energy = np.empty(len(times))
    energy[-1] = mean[-1] + rng.uniform(0, headroom)
    for k in range(len(times) - 2, -1, -1):
        energy[k] = max(mean[k], energy[k + 1]) + rng.uniform(0, headroom)
    return Trajectory(grid, LAW2, times, states, energy,
                      e0=energy[0] + rng.uniform(0, headroom))


def test_criterion_01_compatibility_smooth_acoustic():
    t0 = time.monotonic()
    defects = {}
    e0_fine = None
    for n in (64, 128, 256):
        g = Grid(counts=(n,), lower=(0.0,), upper=(1.0,), boundary=("periodic",))
        x = g.centers(0)
        rho = 1.0 + 0.01 * np.sin(2 * math.pi * x)
        c = np.sqrt(2.0 * rho)
        u = 2.0 * (c - math.sqrt(2.0))
        s = FluidState(g, rho, (rho * u)[:, None])
        E0 = integrate_energy(s, LAW2)
        [traj] = run(DataTriple(s, E0), [SchemeSpec(flux="llf")], LAW2,
                     t_end=0.5, sample_dt=0.05, energy_mode="budget")
        defects[n] = float(np.max(traj.defects()))
        e0_fine = E0
    order1 = math.log2(defects[64] / defects[128])
    order2 = math.log2(defects[128] / defects[256])
    assert order1 >= 0.8 and order2 >= 0.8
    assert defects[256] <= 1e-2 * e0_fine
    elapsed = time.monotonic() - t0
    assert elapsed <= 30.0
    _report(1, f"defect orders {order1:.2f}, {order2:.2f} >= 0.8; "
               f"D(256) = {defects[256]:.2e} <= 1e-2*E0 ({elapsed:.1f}s)")


def _riemann_sampled(n, t_end=0.4):
    sol = solve_riemann(RiemannData(1.0, 0.0, 0.25, 0.0, LAW2))
    g = Grid(counts=(n,), lower=(-1.0,), upper=(1.0,))
    h = g.spacing[0]
    x = g.centers(0)
    times = np.linspace(0.0, t_end, n // 2 + 1)
    states = []
    for t in times:
        rho, m = sample_cell_averages(sol, x, h, float(t))
        states.append(FluidState(g, rho, m[:, None]))
    energy = np.full(len(times), integrate_energy(states[0], LAW2))
    return Trajectory(g, LAW2, times, states, energy)


def test_criterion_02_weak_form_residual_first_order():
    t0 = time.monotonic()
    dictionary = default_dictionary(Grid(counts=(128,), lower=(-1.0,), upper=(1.0,)), 0.4)
    worst = {}
    for n in (128, 256, 512):
        traj = _riemann_sampled(n)
        cont = continuity_residual(traj, [p for p in dictionary if p.direction is None])
        mom = momentum_residual(traj, [p for p in dictionary if p.direction is not None], None)
        worst[n] = max(np.max(np.abs(cont)), np.max(np.abs(mom)))
    ratio1 = worst[128] / worst[256]
    ratio2 = worst[256] / worst[512]
    assert 1.5 <= ratio1 <= 2.5, worst
    assert 1.5 <= ratio2 <= 2.5, worst
    elapsed = time.monotonic() - t0
    assert elapsed <= 60.0
    _report(2, f"max dictionary residual ratios {ratio1:.2f}, {ratio2:.2f} "
               f"in [1.5, 2.5] ({elapsed:.1f}s)")


def test_criterion_03_convexity_psd_and_slack():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    grid = Grid(counts=(8,), lower=(0.0,), upper=(1.0,))
    times = np.linspace(0.0, 1.0, 4)
    pool = [_random_step_trajectory(rng, grid, times) for _ in range(40)]
    r = defect_constant(1, LAW2)
    worst_eig = 0.0
    worst_slack = 0.0
    for _ in range(1000):
        u, v = pool[rng.integers(len(pool))], pool[rng.integers(len(pool))]
        lam = rng.uniform(0.0, 1.0)
        comb, stress = convex_combine(u, v, lam)
        # rounding in the tensor differences scales with the kinetic
        # tensors of the inputs, not with the (possibly zero) gap itself
        scale = max(stress.norm_scale(), 1.0)
        worst_eig = min(worst_eig, stress.min_eigenvalue() / scale)
        slacks = comb.defects() - r * stress.trace_integrals()
        worst_slack = min(worst_slack, float(np.min(slacks)) / max(1.0, comb.e0))
    assert worst_eig >= -1e-10
    assert worst_slack >= -1e-10
    elapsed = time.monotonic() - t0
    assert elapsed <= 20.0
    _report(3, f"1000 combinations: min eig/norm {worst_eig:.2e} >= -1e-10, "
               f"min slack/E0 {worst_slack:.2e} >= -1e-10 ({elapsed:.1f}s)")


def _ensemble_config(tmp_path, name, counts=64, t_end=0.4, sample_dt=0.05,
                     nu_list=(0.4, 0.2, 0.1), rho_l=1.0, rho_r=0.25):
    doc = {
        "kind": "ensemble",
        "grid": {"counts": [counts], "lower": [-1.0], "upper": [1.0],
                 "boundary": ["reflective"]},
        "law": {"a": 1.0, "gamma": 2.0},
        "t_end": t_end,
        "sample_dt": sample_dt,
        "initial": {"preset": "riemann", "rho_l": rho_l, "u_l": 0.0,
                    "rho_r": rho_r, "u_r": 0.0},
        "nu_list": list(nu_list),
    }
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_criterion_04_ensemble_defect_trace_inequality(tmp_path):
    cases = [
        dict(counts=64, nu_list=(0.4, 0.2, 0.1)),
        dict(counts=96, nu_list=(0.8, 0.3, 0.05), rho_l=2.0, rho_r=0.2),
        dict(counts=64, nu_list=(1.5, 0.5, 0.0), t_end=0.6, sample_dt=0.06),
    ]
    for i, case in enumerate(cases):
        cfg = _ensemble_config(tmp_path, f"e{i}.json", **case)
        out = tmp_path / f"out{i}"
        assert main(["ensemble", "--config", cfg, "--out", str(out)]) == 0
        table = np.genfromtxt(out / "defect.csv", delimiter=",", names=True)
        meta = json.loads((out / "average" / "meta.json").read_text())
        e0 = meta["e0"]
        assert np.min(table["slack"]) >= -1e-8 * e0, case
    _report(4, f"{len(cases)} viscosity-ladder ensembles: "
               "slack >= -1e-8*E0 at every sample time")


def test_criterion_05_dt1_demo_small_defect(tmp_path):
    t0 = time.monotonic()
    doc = {
        "kind": "dt1-demo",
        "grid": {"counts": [128], "lower": [-1.0], "upper": [1.0],
                 "boundary": ["reflective"]},
        "law": {"a": 1.0, "gamma": 2.0},
        "t_end": 2.0,
        "sample_dt": 0.05,
        "initial": {"preset": "riemann", "rho_l": 2.0, "u_l": 0.0,
                    "rho_r": 0.2, "u_r": 0.0},
        "nu_list": [0.8, 0.4, 0.1],
        "delta_rel": 0.05,
    }
    cfg = tmp_path / "dt1.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "dt1"
    assert main(["dt1-demo", "--config", cfg.as_posix(), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["passed"]
    assert report["max_defect"] <= report["delta"] * (1 + 1e-9)
    assert len(report["resets"]) >= 1  # the mechanism actually fired
    elapsed = time.monotonic() - t0
    assert elapsed <= 60.0
    _report(5, f"max defect {report['max_defect']:.3e} <= delta "
               f"{report['delta']:.3e} with {len(report['resets'])} resets "
               f"({elapsed:.1f}s)")


def _synthetic_defect_corpus(rng, n_cases=10):
    grid = Grid(counts=(8,), lower=(0.0,), upper=(1.0,))
    times = np.linspace(0.0, 1.5, 6)
    corpus = []
    for _ in range(n_cases):
        traj = _random_step_trajectory(rng, grid, times, headroom=0.8)
        defects = traj.defects()
        k = int(np.argmax(defects[:-1]))
        if defects[k] <= 1e-6 * max(1.0, traj.e0):
            continue
        state = traj.states[k]
        mean_t = float(traj.mean_energies[k])
        n_tail = traj.n_samples - k
        cont = Trajectory(grid, LAW2, traj.times[k:] - traj.times[k],
                          [state] * n_tail, np.full(n_tail, mean_t))
        corpus.append((traj, float(traj.times[k]), cont))
    return corpus


def _solver_defect_cases():
    cases = []
    for rho_r, nus in ((0.25, (1.0, 0.1)), (0.2, (0.8, 0.05))):
        g = Grid(counts=(64,), lower=(-1.0,), upper=(1.0,), boundary=("reflective",))
        x = g.centers(0)
        rho = np.where(x < 0, 1.5, rho_r)
        st = FluidState(g, rho, np.zeros((64, 1)))
        triple = DataTriple(st, integrate_energy(st, LAW2))
        members = run(triple, [SchemeSpec(nu=nu) for nu in nus], LAW2, 0.8, 0.1,
                      energy_mode="budget")
        _, base = estimate_reynolds(members)
        k = int(np.argmax(base.defects()[:-1]))
        T = float(base.times[k])
        mean_t = float(base.mean_energies[k])
        [cont] = run(DataTriple(base.states[k], mean_t), [SchemeSpec(nu=nus[-1])],
                     LAW2, 0.8 - T, 0.1)
        cases.append((base, T, cont))
    return cases


def test_criterion_06_dt2_improvement():
    rng = np.random.default_rng(77)
    corpus = _synthetic_defect_corpus(rng) + _solver_defect_cases()
    assert len(corpus) >= 8
    for traj, T, cont in corpus:
        k = traj.index_of(T)
        eps = float(traj.defects()[k])
        assert eps > 1e-6 * max(1.0, traj.e0)
        competitor, order = improve(traj, T, cont)
        assert order.relation == "less"
        _LESS_PAIRS.append((competitor, traj))
        # witness window of the halving bound: base energy still above
        # E(T+) - eps/2
        e_plus = traj.energy[k]
        j = k
        while j + 1 < traj.n_samples and traj.energy[j + 1] > e_plus - 0.5 * eps:
            j += 1
        gaps = traj.energy[k:j + 1] - competitor.energy[k:j + 1]
        assert float(np.min(gaps)) >= 0.5 * eps * (1 - 1e-9)
    _report(6, f"{len(corpus)} defect cases: competitor strictly below with "
               "gap >= eps/2 on the witness window")


def test_criterion_07_shift_and_concatenation_identities():
    rng = np.random.default_rng(123)
    grid = Grid(counts=(6,), lower=(0.0,), upper=(1.0,))
    worst_shift = 0.0
    worst_concat = 0.0
    for _ in range(100):
        n_times = int(rng.integers(3, 9))
        times = np.sort(np.concatenate([[0.0], rng.uniform(0.1, 2.0, n_times - 1)]))
        times = np.unique(times)
        traj = _random_step_trajectory(rng, grid, times)
        T = float(times[rng.integers(0, len(times))])
        scale = max(1.0, abs(F1(traj)) * math.exp(T))
        for f in (None, "full", "momentum-only"):
            worst_shift = max(worst_shift, check_shift_identity(traj, T, f) / scale)
        slack = check_concatenation_inequality(traj, shift(traj, T), T)
        worst_concat = max(worst_concat, abs(slack) / max(1.0, abs(F1(traj))))
    assert worst_shift <= 1e-10
    assert worst_concat <= 1e-10
    _report(7, f"100 random step trajectories: shift identity residual "
               f"{worst_shift:.2e}, self-concatenation slack {worst_concat:.2e} "
               "<= 1e-10 relative")


def _shared_data_candidates(rng, n_members=5):
    grid = Grid(counts=(8,), lower=(0.0,), upper=(1.0,))
    times = np.linspace(0.0, 1.0, 5)
    s0 = FluidState(grid, rng.uniform(0.5, 1.5, 8), rng.uniform(-0.5, 0.5, (8, 1)))
    e_top = integrate_energy(s0, LAW2) + 1.0
    members = []
    for _ in range(n_members):
        states = [s0]
        for _ in times[1:]:
            states.append(FluidState(grid, rng.uniform(0.3, 1.8, 8),
                                     rng.uniform(-1.0, 1.0, (8, 1))))
        mean = np.array([integrate_energy(s, LAW2) for s in states])
        energy = np.empty(len(times))
        energy[-1] = mean[-1] + rng.uniform(0, 0.3)
        for k in range(len(times) - 2, -1, -1):
            energy[k] = max(mean[k], energy[k + 1]) + rng.uniform(0, 0.3)
        energy = np.minimum(energy, e_top)
        energy = np.maximum(energy, mean)
        energy = np.minimum.accumulate(energy)
        energy = np.maximum(energy, mean)
        members.append(Trajectory(grid, LAW2, times, states, energy,
                                  e0=e_top, check=False))
    return members


def test_criterion_08_selection_determinism_and_strict_convexity():
    rng = np.random.default_rng(321)
    members = _shared_data_candidates(rng, 5)
    ref = select(CandidateSet(members))
    chosen = members[ref.selected]
    for seed in range(8):
        perm = np.random.default_rng(seed).permutation(5)
        permuted = [members[i] for i in perm]
        rep = select(CandidateSet(permuted))
        assert not rep.tie_flagged
        assert permuted[rep.selected] is chosen

    q = 4.0 / 3.0
    grid = Grid(counts=(8,), lower=(0.0,), upper=(1.0,))
    times = np.linspace(0.0, 1.0, 5)
    min_margin = math.inf
    for _ in range(100):
        u = _random_step_trajectory(rng, grid, times)
        v = _random_step_trajectory(rng, grid, times)
        fu, fv = F2(u, "full", q=q), F2(v, "full", q=q)
        if fv > fu:
            u, v, fu, fv = v, u, fv, fu
        s = (fv / fu) ** (1.0 / q)
        u = Trajectory(grid, LAW2, times,
                       [FluidState(grid, s * st.rho, s * st.m) for st in u.states],
                       s * u.energy, e0=s * u.e0, check=False)
        mid, _ = convex_combine(u, v, 0.5)
        margin = fv - F2(mid, "full", q=q)
        min_margin = min(min_margin, margin)
        assert margin > 0
    _report(8, f"selection stable over 8 permutations; 100 equal-F2 pairs "
               f"have midpoint margin >= {min_margin:.2e} > 0")


def test_criterion_09_absolute_minimizer_logic():
    grid = Grid(counts=(6,), lower=(0.0,), upper=(1.0,))
    s = FluidState.constant(grid, 1.0, 0.0)

    # closed-form transform values, frozen from 50-digit arithmetic
    step = Trajectory(grid, LAW2, [0.0, 1.0], [s] * 2, [2.0, 1.0], e0=2.0)
    assert abs(F1(step) - 1.6321205588285577) <= 1e-12
    drop = Trajectory(grid, LAW2, [0.0, 1.0], [s] * 2, [2.0, 0.0], e0=2.0, check=False)
    assert abs(laplace_energy(drop, 1.0) - 1.2642411176571154) <= 1e-12
    flat = Trajectory(grid, LAW2, [0.0, 1.0], [s] * 2, [1.0, 1.0], e0=2.0)
    assert abs(laplace_energy(flat, 2.0) - 0.5) <= 1e-12
    for lam in (0.5, 1.0, 8.0, 64.0):
        e0 = 3.25
        const = Trajectory(grid, LAW2, [0.0, 0.7], [s] * 2, [e0, e0], e0=e0)
        assert abs(laplace_energy(const, lam) - e0 / lam) <= 1e-12

    # uniform domination certified from the smallest grid rate
    lo = Trajectory(grid, LAW2, [0.0, 1.0], [s] * 2, [1.0, 1.0], e0=2.0)
    hi = Trajectory(grid, LAW2, [0.0, 1.0], [s] * 2, [2.0, 2.0], e0=2.0)
    verdict = is_absolute_minimizer(lo, CandidateSet([lo, hi]))
    assert verdict.is_minimizer
    assert verdict.lambda_lower[0] == pytest.approx(0.5)

    # crossing transforms: 1/lam vs 2(1 - exp(-lam))/lam, crossing at ln 2
    cross = is_absolute_minimizer(flat, CandidateSet([flat, drop]))
    assert cross.is_minimizer
    lam_lower = cross.lambda_lower[0]
    k = int(np.argmin(np.abs(_RATES - lam_lower)))
    assert lam_lower >= math.log(2.0) - 1e-12
    assert _RATES[k - 1] < math.log(2.0)
    assert not is_absolute_minimizer(drop, CandidateSet([flat, drop])).is_minimizer
    _report(9, f"closed-form transforms to 1e-12; domination certified; "
               f"crossing bracket [{_RATES[k - 1]:.3f}, {lam_lower:.3f}] "
               f"around ln 2 = {math.log(2.0):.3f}")


def test_criterion_10_order_coherence():
    rng = np.random.default_rng(555)
    grid = Grid(counts=(8,), lower=(0.0,), upper=(1.0,))
    times = np.linspace(0.0, 2.0, 9)
    pairs = list(_LESS_PAIRS)
    for _ in range(60):
        u = _random_step_trajectory(rng, grid, times)
        k = int(rng.integers(1, 8))
        drop = rng.uniform(0.2, 0.8)
        vals = np.minimum.accumulate(np.where(np.arange(9) >= k,
                                              u.energy - drop, u.energy))
        vals = np.maximum(vals, u.mean_energies)
        if not np.all(vals[k:] < u.energy[k:] - 1e-6):
            continue
        lower = Trajectory(grid, LAW2, times, u.states, vals, e0=u.e0, check=False)
        if compare_local(lower, u).relation == "less":
            pairs.append((lower, u))
    assert len(pairs) >= 40
    total_checked = 0
    for less, greater in pairs:
        threshold, violations = check_order_coherence(less, greater)
        assert violations == [], (threshold, violations)
        total_checked += sum(1 for lam in _RATES if lam >= threshold)
    assert total_checked > 0
    _report(10, f"{len(pairs)} local-order pairs, {total_checked} grid rates "
                "above threshold, zero violations")
