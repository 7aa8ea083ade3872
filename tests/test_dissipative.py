import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import eulerlab.dissipative as dissipative_mod
from eulerlab.eos import GasLaw
from eulerlab.fields import DataTriple, FluidState, Grid, integrate_energy
from eulerlab.riemann import RiemannData, sample_cell_averages, solve_riemann
from eulerlab.solver import SchemeSpec, run
from eulerlab.stress import ReynoldsField
from eulerlab.trajectory import Trajectory, convex_combine, sample_time_tol
from eulerlab.dissipative import (TestFunction, certify, compatibility, continuity_residual,
                                  default_dictionary, estimate_reynolds, momentum_residual)
from paper_checks import same_content

LAW2 = GasLaw(a=1.0, gamma=2.0)


def _check(cert, name):
    """The (name, value, tolerance, passed) entry of ``cert`` for check ``name``."""
    for c in cert.checks:
        if c[0] == name:
            return c
    raise KeyError(name)


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
    return Trajectory(g, law, times, states, energy)


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
        continuity_residual(traj, [phi])


def test_scalar_vector_mismatch_errors():
    g = grid_1d(16)
    traj = constant_traj(g, 1.0, 0.0, np.linspace(0, 1, 6))
    scalar = TestFunction(0.5, 0.2, (0.0,), (0.3,))
    vector = TestFunction(0.5, 0.2, (0.0,), (0.3,), direction=0)
    with pytest.raises(ValueError):
        continuity_residual(traj, [vector])
    with pytest.raises(ValueError):
        momentum_residual(traj, [scalar], None)


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
    D = default_dictionary(g, 1.0)
    worst_c = np.max(np.abs(continuity_residual(traj, [p for p in D if p.direction is None])))
    worst_m = np.max(np.abs(momentum_residual(traj, [p for p in D if p.direction is not None],
                                              None)))
    assert worst_c <= 1e-12
    assert worst_m <= 1e-12


def test_steady_rest_state_momentum_residual():
    g = grid_1d(32)
    traj = constant_traj(g, 1.0, 0.0, np.linspace(0, 1, 11))
    phi = TestFunction(0.5, 0.3, (0.0,), (0.5,), direction=0)
    assert abs(momentum_residual(traj, [phi], None)[0]) <= 1e-13


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
    coarse = abs(continuity_residual(build(16, 9), [phi])[0])
    fine = abs(continuity_residual(build(32, 17), [phi])[0])
    assert coarse < 2e-4
    assert fine < 0.45 * coarse  # at least first-order decay of quadrature error


def test_exact_riemann_residual_first_order():
    D = default_dictionary(grid_1d(64), 0.4)
    res = []
    for n in (64, 128):
        traj = riemann_sampled_traj(n)
        cont = continuity_residual(traj, [p for p in D if p.direction is None])
        mom = momentum_residual(traj, [p for p in D if p.direction is not None], None)
        res.append(max(np.max(np.abs(cont)), np.max(np.abs(mom))))
    assert res[1] < res[0]


def test_momentum_residual_grid_mismatch_errors():
    g = grid_1d(16)
    traj = constant_traj(g, 1.0, 0.0, np.linspace(0, 1, 6))
    other = grid_1d(24)
    R = ReynoldsField(other, traj.times, np.zeros((len(traj.times), 24, 1, 1)))
    phi = TestFunction(0.5, 0.2, (0.0,), (0.3,), direction=0)
    with pytest.raises(ValueError, match="match"):
        momentum_residual(traj, [phi], R)


@st.composite
def vacuum_trajectories(draw):
    """A trajectory on 3 to 8 cells per axis (1D or 2D) with vacuum cells,
    whose momentum is +0.0 or -0.0, and a Reynolds field on its samples."""
    counts = draw(st.sampled_from([(3,), (5,), (8,), (3, 3), (4, 3), (3, 5)]))
    d, n = len(counts), draw(st.integers(2, 6))
    g = Grid(counts=counts, lower=(0.0,) * d, upper=(1.0,) * d)
    fields = []
    for _ in range(2):
        rho = draw(hnp.arrays(float, (n,) + counts, elements=st.floats(0.25, 2.0)))
        m = draw(hnp.arrays(float, (n,) + counts + (d,), elements=st.floats(-1.0, 1.0)))
        vac = draw(hnp.arrays(bool, (n,) + counts))
        fields.append((np.where(vac, 0.0, rho), np.where(vac[..., None], 0.0 * m, m)))
    times = np.cumsum([0.0] + draw(st.lists(st.sampled_from([0.1, 0.25, 0.5]),
                                            min_size=n - 1, max_size=n - 1)))
    u, v = (Trajectory(g, LAW2, times, f, np.full(n, 1e3), check=False) for f in fields)
    return u, estimate_reynolds([u, v])[0]


@settings(max_examples=40, deadline=None)
@given(data=st.data(), with_R=st.booleans())
def test_batched_residuals_equal_single_calls_bit_for_bit(data, with_R):
    # one pass over the samples pairs each with every function; each entry
    # must be the bits of the call on that function alone
    traj, R = data.draw(vacuum_trajectories())
    R = R if with_R else None
    D = default_dictionary(traj.grid, traj.t_end)
    for residual, kind in ((continuity_residual, [p for p in D if p.direction is None]),
                           (lambda t, phis: momentum_residual(t, phis, R),
                            [p for p in D if p.direction is not None])):
        order = data.draw(st.permutations(kind))
        phis = order[:data.draw(st.integers(0, len(order)))]
        batched = residual(traj, phis)
        assert batched.shape == (len(phis),)
        for value, phi in zip(batched, phis):
            assert value.tobytes() == residual(traj, [phi])[0].tobytes()


@pytest.mark.parametrize("bad", [-np.inf, np.inf])
def test_certify_infinite_stress_cell_fails_psd_margin(bad):
    # the cell's norm makes the PSD tolerance infinite; that check must fail
    g = grid_1d(16)
    traj = constant_traj(g, 1.0, 0.0, np.linspace(0, 1, 5))
    tensor = np.zeros((5, 16, 1, 1))
    tensor[2, 7, 0, 0] = bad
    R = ReynoldsField(g, traj.times, tensor)
    cert = certify(traj, R)
    assert not _check(cert, "stress_psd_margin")[3]
    assert not cert.passed


@settings(max_examples=40, deadline=None)
@given(data=st.data(), where=st.sampled_from(["e0", "energy", "R"]),
       bad=st.sampled_from([np.inf, -np.inf, np.nan]))
def test_certify_non_finite_check_never_passes(data, where, bad):
    traj, R = data.draw(vacuum_trajectories())
    if where == "R":
        d, cells = traj.grid.d, int(np.prod(traj.grid.counts))
        tensor = R.tensor.copy()  # a diagonal entry keeps the matrix symmetric
        k, i, j = (data.draw(st.integers(0, n - 1)) for n in (len(tensor), cells, d))
        tensor.reshape(len(tensor), cells, d, d)[k, i, j, j] = bad
        R = ReynoldsField(traj.grid, traj.times, tensor)
    else:
        energy, e0 = traj.energy.copy(), bad
        if where == "energy":
            energy[data.draw(st.integers(0, len(energy) - 1))], e0 = bad, traj.e0
        traj = Trajectory(traj.grid, LAW2, traj.times, (traj.rho, traj.m), energy, e0=e0,
                          check=False)
    cert = certify(traj, R)
    non_finite = [c for c in cert.checks if not (np.isfinite(c[1]) and np.isfinite(c[2]))]
    assert non_finite and not any(c[3] for c in non_finite)
    assert not cert.passed


def test_certify_computes_one_cell_integral_pair_per_space_bump(monkeypatch):
    # the 24 functions of a balance have 12 space bumps: 12 pairs per
    # residual pass, three passes with a stress
    calls = []
    inner = TestFunction.cell_integrals

    def counted(phi, grid):
        calls.append((phi.centers, phi.widths))
        return inner(phi, grid)

    g = Grid(counts=(8, 6), lower=(0.0, 0.0), upper=(1.0, 1.0))
    traj = constant_traj(g, 1.0, 0.3, np.linspace(0, 1, 5))
    R = estimate_reynolds([traj, traj])[0]
    monkeypatch.setattr(TestFunction, "cell_integrals", counted)
    certify(traj, R)
    assert len(calls) == 36 and len(set(calls)) == 12


@pytest.mark.parametrize("with_R", [False, True])
def test_certify_reads_each_sample_once(monkeypatch, with_R):
    # certify makes one residual call per balance (and one more momentum
    # call without the stress for its note), and a momentum call computes
    # each sample's kinetic tensor and pressure once
    g = Grid(counts=(8, 6), lower=(0.0, 0.0), upper=(1.0, 1.0),
             boundary=("reflective", "reflective"))
    x, y = np.meshgrid(g.centers(0), g.centers(1), indexing="ij")
    st0 = FluidState(g, 1.0 + 0.5 * np.exp(-20.0 * ((x - 0.4) ** 2 + (y - 0.6) ** 2)),
                     np.stack([0.3 * np.sin(np.pi * y), -0.2 * np.cos(np.pi * x)], axis=-1))
    members = run(DataTriple(st0, integrate_energy(st0, LAW2)),
                  [SchemeSpec(nu=nu) for nu in (0.4, 0.1)], LAW2, 0.5, 0.05)
    R, avg = estimate_reynolds(members)
    assert avg.n_samples == 11
    calls = {"continuity_residual": 0, "momentum_residual": 0, "kinetic_tensor": 0,
             "pressure": 0}
    per_momentum_call = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            before = calls["kinetic_tensor"], calls["pressure"]
            out = fn(*args, **kwargs)
            if name == "momentum_residual":
                per_momentum_call.append((calls["kinetic_tensor"] - before[0],
                                          calls["pressure"] - before[1]))
            return out
        return wrapper

    for name in calls:
        monkeypatch.setattr(dissipative_mod, name, counted(name, getattr(dissipative_mod, name)))
    certify(avg, R if with_R else None)
    assert calls["continuity_residual"] == 1
    assert calls["momentum_residual"] == (2 if with_R else 1)
    for kin, p in per_momentum_call:
        assert 0 < kin <= avg.n_samples and 0 < p <= avg.n_samples



@pytest.mark.parametrize("t_end", [1.0, 1e3])
@pytest.mark.parametrize("offset, first, last", [(0.5, 2, 8), (2.0, 1, 9)])
def test_support_edge_within_the_sample_time_rule_sits_at_the_sample(t_end, offset, first,
                                                                     last):
    # time support edges offset x sample_time_tol outside samples 2 and 8:
    # within the rule they are at those samples, and the residual reads 2..8;
    # past it the window takes one more sample on each side
    times = np.linspace(0.0, t_end, 11)
    traj = constant_traj(grid_1d(8), 1.0, 0.0, times)
    tol = sample_time_tol(t_end)
    lo, hi = times[2] - offset * tol, times[8] + offset * tol
    phi = TestFunction(0.5 * (lo + hi), 0.5 * (hi - lo), (0.0,), (0.4,))
    read = []

    def pairing(k):
        read.append(k)
        return lambda phi, P, G: (0.0, 0.0)

    dissipative_mod._weak_residuals(traj, [phi], pairing)
    assert read == list(range(first, last + 1))

# -- ensemble averaging -----------------------------------------------------

def test_identical_members_zero_stress():
    g = grid_1d(16)
    traj = constant_traj(g, 1.0, 0.3, np.linspace(0, 1, 5))
    R, avg = estimate_reynolds([traj, traj, traj])
    assert R.norm_scale() <= 1e-15
    assert same_content(avg, traj)


def test_single_member_zero_stress():
    g = grid_1d(16)
    traj = constant_traj(g, 0.8, -0.2, np.linspace(0, 1, 5))
    R, avg = estimate_reynolds([traj])
    assert R.norm_scale() == 0.0
    assert same_content(avg, traj)


def test_estimate_reynolds_sums_a_generator_one_member_at_a_time():
    # a generator's members give the bits of the same list's, and no earlier
    # member is alive when the generator makes the next
    g = Grid(counts=(6, 5), lower=(0.0, 0.0), upper=(1.0, 1.0))
    times = np.linspace(0.0, 0.4, 5)

    def member(seed):
        rng = np.random.default_rng(seed)
        rho = rng.uniform(0.5, 1.5, (5, 6, 5))
        rho[:, 2, 3] = 0.0
        m = rng.uniform(-1.0, 1.0, rho.shape + (2,))
        m[:, 2, 3] = -0.0
        return Trajectory(g, LAW2, times, (rho, m), np.full(5, 10.0), e0=10.0)

    refs, alive = [], []

    def members():
        for seed in range(3):
            alive.append(sum(ref() is not None for ref in refs))
            tr = member(seed)
            refs.append(weakref.ref(tr.rho))
            yield tr
            del tr

    R, avg = estimate_reynolds(members())
    R_list, avg_list = estimate_reynolds([member(seed) for seed in range(3)])
    assert alive == [0, 0, 0]
    assert R.tensor.tobytes() == R_list.tensor.tobytes()
    for a in ("rho", "m", "energy", "mean_energies"):
        assert getattr(avg, a).tobytes() == getattr(avg_list, a).tobytes()
    assert avg.e0 == avg_list.e0


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
            members.append(Trajectory(g, LAW2, times, states, e, check=False))
        R, avg = estimate_reynolds(members)
        mean_of_members = sum(m.mean_energies for m in members) / 3
        gap = mean_of_members - avg.mean_energies
        assert np.all(gap >= 0.5 * R.trace_integrals() - 1e-10)


# -- defect and compatibility ------------------------------------------------

def test_energy_defect_examples():
    g = grid_1d(16)
    s = FluidState.constant(g, 1.0, 0.0)
    e = integrate_energy(s, LAW2)
    times = [0.0, 0.5, 1.0]
    exact = Trajectory(g, LAW2, times, [s] * 3, np.full(3, e))
    assert exact.defects()[exact.index_of(0.5)] == 0.0
    offset = Trajectory(g, LAW2, times, [s] * 3, np.full(3, e + 0.5))
    assert offset.defects()[offset.index_of(0.0)] == pytest.approx(0.5)


def test_energy_defect_propagates_nan():
    g = grid_1d(16)
    s = FluidState.constant(g, 1.0, 0.0)
    rho = np.ones(16)
    rho[5] = np.nan
    bad = FluidState(g, rho, np.zeros((16, 1)), check=False)
    e = integrate_energy(s, LAW2)
    traj = Trajectory(g, LAW2, [0.0, 0.5], [s, bad], [e, e], check=False)
    assert traj.defects()[0] == 0.0
    assert np.isnan(traj.defects()[1])


def test_compatibility_arithmetic():
    g = grid_1d(16)
    s = FluidState.constant(g, 1.0, 0.0)
    e = integrate_energy(s, LAW2)
    times = [0.0, 1.0]

    zero = Trajectory(g, LAW2, times, [s] * 2, np.full(2, e))
    assert compatibility(zero, None)[2][0] == 0.0
    assert _check(certify(zero), "compatibility_slack")[3]

    traj = Trajectory(g, LAW2, times, [s] * 2, np.full(2, e + 1.0))
    # uniform stress with integral trace 1.0 and 3.0 on the domain |O| = 2
    for trace_target, want_pass in ((1.0, True), (3.0, False)):
        density = trace_target / 2.0
        tensor = np.full((2, 16, 1, 1), density)
        R = ReynoldsField(g, times, tensor)
        defect, trace, slack = (a[0] for a in compatibility(traj, R))
        assert defect == pytest.approx(1.0)
        assert trace == pytest.approx(trace_target)
        assert slack == pytest.approx(1.0 - 0.5 * trace_target)
        assert _check(certify(traj, R), "compatibility_slack")[3] is want_pass


def test_compatibility_constant_follows_dimension_and_gamma():
    # gamma = 3 in 2D: the pressure gap 0.75 of two states at rest gives
    # defect 0.75/(gamma-1) and trace d*0.75, so only r = 1/(d(gamma-1))
    # = 1/4 keeps the exact combination compatible (r = 1/2 reads -0.375)
    law = GasLaw(a=1.0, gamma=3.0)
    g = Grid(counts=(8, 8), lower=(0.0, 0.0), upper=(1.0, 1.0))

    def at_rest(rho):
        s = FluidState.constant(g, rho, 0.0)
        return Trajectory(g, law, [0.0, 1.0], [s, s], [integrate_energy(s, law)] * 2)

    comb, gap = convex_combine(at_rest(0.5), at_rest(1.5), 0.5)
    defect, trace, _ = (a[0] for a in compatibility(comb, gap))
    assert defect == pytest.approx(0.375)
    assert trace == pytest.approx(1.5)
    assert _check(certify(comb, gap), "compatibility_slack")[3]


# -- certification ------------------------------------------------------------

def assert_round_off_checks(cert, residual):
    """A constant state meets the balances to ``residual`` and the energy
    checks to 1e-12."""
    assert _check(cert, "continuity_residual")[1] <= residual
    assert _check(cert, "momentum_residual")[1] <= residual
    assert _check(cert, "energy_monotone")[1] <= 1e-12
    assert _check(cert, "defect_nonnegative")[1] <= 1e-12
    assert _check(cert, "compatibility_slack")[1] >= -1e-12


def test_certify_constant_state_passes():
    g = grid_1d(32)
    traj = constant_traj(g, 1.0, 0.0, np.linspace(0, 1, 9))
    cert = certify(traj)
    assert cert.passed
    assert_round_off_checks(cert, residual=1e-12)


def test_certify_flags_increasing_energy():
    g = grid_1d(16)
    s = FluidState.constant(g, 1.0, 0.0)
    e = integrate_energy(s, LAW2)
    bad = Trajectory(g, LAW2, [0.0, 0.5, 1.0], [s] * 3,
                     [e + 0.1, e + 0.3, e + 0.3], check=False)
    cert = certify(bad)
    assert not cert.passed
    assert not _check(cert, "energy_monotone")[3]


@pytest.mark.parametrize("jump, monotone", [(0.5e-10, True), (2e-10, False)])
def test_certify_energy_may_start_above_e0_by_round_off(jump, monotone):
    # the monotonicity check includes the jump from e0 to the first energy
    # sample, held to 1e-10 * max(1, |e0|), here 4e-10
    g = grid_1d(16)
    s = FluidState.constant(g, 1.0, 0.0)
    traj = Trajectory(g, LAW2, [0.0, 0.5, 1.0], [s] * 3, [4.0 + jump * 4.0] * 3, e0=4.0,
                      check=False)
    assert _check(certify(traj), "energy_monotone")[3] is monotone


def test_certify_flags_negative_defect():
    g = grid_1d(16)
    s = FluidState.constant(g, 1.0, 0.0)
    e = integrate_energy(s, LAW2)
    bad = Trajectory(g, LAW2, [0.0, 1.0], [s] * 2, [e - 0.2, e - 0.2], check=False)
    cert = certify(bad)
    assert not _check(cert, "defect_nonnegative")[3]


def test_certify_ensemble_average_with_stress():
    g = grid_1d(64, boundary="reflective")
    x = g.centers(0)
    rho = np.where(x < 0, 1.0, 0.25)
    st = FluidState(g, rho, np.zeros((64, 1)))
    triple = DataTriple(st, integrate_energy(st, LAW2))
    members = run(triple, [SchemeSpec(nu=nu) for nu in (0.4, 0.2, 0.1)], LAW2, 0.4, 0.05)
    R, avg = estimate_reynolds(members)
    cert = certify(avg, R)
    assert cert.passed, [c for c in cert.checks if not c[3]]


# A probe of the certificate: a 512-cell reflective HLL ensemble's average, and
# the same average with rho and m scaled by a factor on x in (-0.6, -0.2)
# from sample k on; at t_end a factor 0.95 takes out 1.2 % of the mass, 0.8
# takes out 4.8 %
@pytest.fixture(scope="module")
def hll_ensemble():
    g = grid_1d(512, boundary="reflective")
    x = g.centers(0)
    st = FluidState(g, np.where(x < 0, 1.0, 0.25), np.zeros((512, 1)))
    triple = DataTriple(st, integrate_energy(st, LAW2))
    specs = [SchemeSpec(flux="hll", nu=nu) for nu in (0.4, 0.2, 0.1)]
    R, avg = estimate_reynolds(run(triple, specs, LAW2, 0.5, 0.05))
    return avg, R


def test_hll_ensemble_average_certifies(hll_ensemble):
    avg, R = hll_ensemble
    cert = certify(avg, R)
    assert cert.passed, [c for c in cert.checks if not c[3]]


@pytest.mark.xfail(strict=True, reason="the residual tolerance is 35x the clean floor and no "
                   "check balances mass")
@pytest.mark.parametrize("factor, k", [(0.95, 6), (0.8, 5)])
def test_certify_fails_a_mass_loss(hll_ensemble, factor, k):
    avg, R = hll_ensemble
    x = avg.grid.centers(0)
    region = (x > -0.6) & (x < -0.2)
    rho, m = avg.rho.copy(), avg.m.copy()
    rho[k:, region] *= factor
    m[k:, region] *= factor
    lossy = Trajectory(avg.grid, avg.law, avg.times, (rho, m), avg.energy, e0=avg.e0)
    assert not certify(lossy, R).passed


def test_momentum_residual_improves_with_stress():
    # a wide viscosity spread makes the averaged trajectory visibly miss
    # the plain momentum balance; the estimated stress absorbs part of it
    g = grid_1d(128, boundary="reflective")
    x = g.centers(0)
    rho = np.where(x < 0, 1.0, 0.25)
    st = FluidState(g, rho, np.zeros((128, 1)))
    triple = DataTriple(st, integrate_energy(st, LAW2))
    members = run(triple, [SchemeSpec(nu=nu) for nu in (3.0, 0.02)], LAW2, 0.6, 0.6 / 16)
    R, avg = estimate_reynolds(members)
    vectors = [p for p in default_dictionary(g, 0.6) if p.direction is not None]
    with_R = np.max(np.abs(momentum_residual(avg, vectors, R)))
    without = np.max(np.abs(momentum_residual(avg, vectors, None)))
    assert with_R < without
    cert = certify(avg, R)
    assert any("without the stress" in note for note in cert.notes)


def test_certify_2d_constant_state():
    g = Grid(counts=(12, 10), lower=(0.0, 0.0), upper=(1.0, 1.0))
    s = FluidState.constant(g, 1.2, (0.3, -0.1))
    e = integrate_energy(s, LAW2)
    traj = Trajectory(g, LAW2, np.linspace(0, 1, 6), [s] * 6, np.full(6, e))
    cert = certify(traj, ReynoldsField(g, traj.times, np.zeros((6, 12, 10, 2, 2))))
    assert cert.passed, [c for c in cert.checks if not c[3]]
    assert_round_off_checks(cert, residual=1e-11)


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
    members = run(triple, [SchemeSpec(nu=nu) for nu in (0.5, 0.05)], LAW2, 0.4, 0.05,
                  energy_mode="budget")
    from eulerlab.trajectory import stopping_time
    _, avg = estimate_reynolds(members)
    assert avg.defects()[0] <= 1e-12
    for delta in (1e-4, 1e-3, 1e-2):
        assert stopping_time(avg, delta) >= avg.times[1]


# -- argument checks ---------------------------------------------------------------

_BUMP = {"t_center": 0.5, "t_width": 0.25, "centers": (0.0, 0.0), "widths": (0.2, 0.2)}


@pytest.mark.parametrize("change, message", [
    ({"t_width": 0.0}, "bump widths must be positive"),
    ({"widths": (0.2, -0.2)}, "bump widths must be positive"),
    ({"centers": (0.0,)}, "centers and widths must share the dimension"),
], ids=["time-width", "space-width", "dimension"])
def test_test_function_rejects_bad_bump(change, message):
    with pytest.raises(ValueError, match=message):
        TestFunction(**{**_BUMP, **change})


def test_test_function_support_in_the_boundary_cell_rejected():
    # on [-1, 1] with h = 0.125 the support (-0.95, -0.55) enters the wall cell
    phi = TestFunction(0.5, 0.25, (-0.75,), (0.2,))
    with pytest.raises(ValueError, match="avoid the boundary by one cell"):
        phi.check_interior(grid_1d(16), 1.0)


@pytest.mark.parametrize("side", ["lower", "upper"])
@pytest.mark.parametrize("factor, passes", [(0.5, True), (2.0, False)])
def test_support_edge_may_miss_the_margin_by_4_ulps(side, factor, passes):
    # on [1e6, 1e6 + 2] with h = 0.125 the slack is 4 ulps of 1e6 + 2, 2^-31;
    # the support reaches into the boundary cell by factor * slack, exactly
    g = grid_1d(16, 1e6, 1e6 + 2.0)
    slack = 4.0 * np.spacing(1e6 + 2.0)
    edge = 1e6 + 0.125 - factor * slack if side == "lower" else 1e6 + 1.875 + factor * slack
    c = edge + 0.25 if side == "lower" else edge - 0.25
    phi = TestFunction(0.5, 0.25, (c,), (0.25,))
    assert (c - 0.25 if side == "lower" else c + 0.25) == edge
    if passes:
        phi.check_interior(g, 1.0)
    else:
        with pytest.raises(ValueError, match="avoid the boundary by one cell"):
            phi.check_interior(g, 1.0)


@settings(max_examples=200, deadline=None)
@given(offset=st.floats(-1e8, 1e8), width=st.floats(1e-3, 123.0),
       n=st.integers(3, 1000))
def test_dictionary_supports_are_interior_at_any_offset(offset, width, n):
    # the support edges round with the coordinates, not with the cell
    g = grid_1d(n, offset, offset + width)
    for phi in default_dictionary(g, 1.0):
        phi.check_interior(g, 1.0)  # must not raise


def test_estimate_reynolds_of_no_member_rejected():
    with pytest.raises(ValueError, match="at least one member"):
        estimate_reynolds([])
