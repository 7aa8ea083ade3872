"""The stacked march of ``solver.run``: every member bit-identical to its
one-member run, each member's own clock, and guards that name the member."""

import contextlib
import itertools
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import eulerlab.solver as solver_mod
from eulerlab.eos import GasLaw
from eulerlab.fields import DataTriple, FluidState, Grid, integrate_energy
from eulerlab.solver import FLUX_KINDS, CFLViolation, SchemeSpec, run, stable_dt, step
from pins import assert_pinned, sha256
from test_solver import _stack, _vacuum_wall_state

LAWS = {2.0: GasLaw(a=1.0, gamma=2.0), 1.4: GasLaw(a=1.0, gamma=1.4)}


def _pin_state(case):
    if case == "1d-periodic":
        g = Grid(counts=(17,), lower=(0.0,), upper=(1.0,), boundary=("periodic",))
        rng = np.random.default_rng(17)
        return FluidState(g, rng.uniform(0.5, 1.5, 17), rng.uniform(-0.4, 0.4, (17, 1)))
    if case == "2d-two-stacks":
        # more cells than one stack holds, so each member is its own stack;
        # vacuum on the first row and on one column
        g = Grid(counts=(64, 56), lower=(0.0, 0.0), upper=(1.0, 1.0),
                 boundary=("reflective", "periodic"))
        rng = np.random.default_rng(56)
        rho = rng.uniform(0.5, 1.5, g.counts)
        m = rng.uniform(-0.4, 0.4, g.counts + (2,))
        rho[0] = 0.0
        rho[:, 20] = 0.0
        m[rho == 0.0] = 0.0
        return FluidState(g, rho, m)
    if case.startswith("2d-mixed"):
        # one boundary kind per axis: a reflective wall negates one momentum
        # component only
        s = _vacuum_wall_state((9, 7))
        boundary = tuple(case.split("-")[2:])
        return FluidState(Grid(counts=(9, 7), lower=(0.0, 0.0), upper=(1.0, 1.0),
                               boundary=boundary), s.rho, s.m)
    return _vacuum_wall_state((16,) if case == "1d-vacuum" else (12, 10))


def _pin_triple(case, law=LAWS[2.0]):
    s = _pin_state(case)
    return DataTriple(s, integrate_energy(s, law))


def _payload(members):
    for tr in members:
        yield from (tr.times, tr.rho, tr.m, tr.energy, tr.mean_energies, repr(tr.e0).encode())


RUN_CASES = sorted(
    [(f, f"2d-mixed-{b}", (0.15, 0.0, 0.3), 2.0) for f in FLUX_KINDS
     for b in ("reflective-periodic", "periodic-reflective")]
    + [(f, "2d-two-stacks", (0.2, 0.05), 2.0) for f in FLUX_KINDS]
    + list(itertools.product(FLUX_KINDS, ("1d-periodic", "1d-vacuum", "2d-vacuum"),
                             ((0.4, 0.2, 0.1), (0.15, 0.0), (0.2, 0.2)), (2.0, 1.4))))


@pytest.mark.parametrize("flux, case, nus, gamma", RUN_CASES,
                         ids=[f"{f}-{c}-{'_'.join(map(str, n))}-g{g}" for f, c, n, g in RUN_CASES])
def test_run_ensemble_bits_pinned(flux, case, nus, gamma):
    law = LAWS[gamma]
    mode = "envelope" if gamma == 2.0 else "budget"
    members = run(_pin_triple(case, law), [SchemeSpec(flux=flux, nu=nu) for nu in nus], law,
                  0.2, 0.05, mode)
    assert_pinned(f"stacked_run.run/{flux}-{case}-{'_'.join(map(str, nus))}-g{gamma}",
                  _payload(members))


# -- each member of a stack is its own one-member run ------------------------

@st.composite
def ensembles(draw):
    """A state with vacuum cells and -0.0 momenta on a grid with its own
    boundary kind per axis, a gas law and one to three schemes of one flux
    with their own nu (0 included) and CFL number."""
    d = draw(st.integers(1, 2))
    counts = tuple(draw(st.integers(2, 8)) for _ in range(d))
    boundary = tuple(draw(st.sampled_from(("periodic", "reflective"))) for _ in range(d))
    g = Grid(counts=counts, lower=(0.0,) * d, upper=(1.0,) * d, boundary=boundary)
    rho = draw(hnp.arrays(float, counts, elements=st.floats(0.1, 2.0)))
    rho[draw(hnp.arrays(bool, counts))] = 0.0
    m = draw(hnp.arrays(float, counts + (d,), elements=st.floats(-1.0, 1.0)))
    m[rho == 0.0] = draw(st.sampled_from((0.0, -0.0)))
    law = GasLaw(a=1.0, gamma=draw(st.sampled_from((1.4, 2.0, 3.0))))
    flux = draw(st.sampled_from(FLUX_KINDS))
    nus = draw(st.lists(st.sampled_from((0.0, 0.05, 0.2)) | st.floats(0.0, 0.5),
                        min_size=1, max_size=3))
    specs = [SchemeSpec(flux=flux, nu=nu, cfl=draw(st.sampled_from((0.9, 0.5))))
             for nu in nus]
    return FluidState(g, rho, m), law, specs


@settings(max_examples=60, deadline=None)
@given(case=ensembles(), mode=st.sampled_from(("envelope", "budget")))
def test_stacked_members_equal_one_member_runs(case, mode):
    s, law, specs = case
    triple = DataTriple(s, integrate_energy(s, law))
    try:
        alone = [list(run(triple, [spec], law, 0.1, 0.05, mode))[0] for spec in specs]
    except ValueError:
        with pytest.raises(ValueError):
            list(run(triple, specs, law, 0.1, 0.05, mode))
        return
    stacked = run(triple, specs, law, 0.1, 0.05, mode)
    assert [sha256(_payload([tr])) for tr in stacked] == [sha256(_payload([tr])) for tr in alone]


def test_finished_members_leave_the_stack(monkeypatch):
    # the nu = 0 member takes fewer steps; once it has its last sample the
    # stack marches without it, so no step is spent on a finished member
    sizes = []
    inner = solver_mod.step

    def counting_step(stack, dt):
        sizes.append(len(stack.ids))
        return inner(stack, dt)

    triple = _pin_triple("1d-vacuum")
    specs = [SchemeSpec(nu=0.4), SchemeSpec(nu=0.0)]
    monkeypatch.setattr(solver_mod, "step", counting_step)
    alone = []
    for spec in specs:
        sizes.clear()
        list(run(triple, [spec], LAWS[2.0], 0.2, 0.05))
        alone.append(len(sizes))
    sizes.clear()
    list(run(triple, specs, LAWS[2.0], 0.2, 0.05))
    assert alone[0] > alone[1]
    assert sizes == [2] * alone[1] + [1] * (alone[0] - alone[1])


def test_two_stack_case_has_two_stacks():
    march = solver_mod.March(_pin_triple("2d-two-stacks"),
                             [SchemeSpec(nu=0.2), SchemeSpec(nu=0.05)], LAWS[2.0], 0.2, 0.05)
    assert len(march._stacks) == 2


def test_run_frees_a_stack_before_the_next_one_starts(monkeypatch):
    # a consumer that drops each member holds one stack's samples at a
    # time: when the second stack's march is made, the first stack's sample
    # array is gone
    stacks, freed = [], []
    inner = solver_mod._march

    def checking_march(live, times, tol, rho, m):
        freed.append([ref() is None for ref in stacks])
        stacks.append(weakref.ref(rho))
        return inner(live, times, tol, rho, m)

    monkeypatch.setattr(solver_mod, "_march", checking_march)
    for tr in run(_pin_triple("2d-two-stacks"),
                  [SchemeSpec(nu=0.2), SchemeSpec(nu=0.05)], LAWS[2.0], 0.2, 0.05):
        assert tr.rho.base is stacks[-1]()
        del tr
    assert freed == [[], [True]]


def test_run_rejects_mixed_fluxes_and_no_scheme():
    triple = _pin_triple("1d-periodic")
    with pytest.raises(ValueError, match="share the flux"):
        run(triple, [SchemeSpec(flux="llf"), SchemeSpec(flux="hll")], LAWS[2.0], 0.2, 0.05)
    with pytest.raises(ValueError, match="at least one scheme"):
        run(triple, [], LAWS[2.0], 0.2, 0.05)


# -- guards name the member and the cell ---------------------------------------

def test_non_finite_nu_rejected():
    for nu in (math.inf, math.nan):
        with pytest.raises(ValueError, match="nu must be finite and nonnegative"):
            SchemeSpec(nu=nu)


def test_tiny_stable_dt_names_member():
    # nu = 1e300 makes the stable dt about 1e-303: the march would never end
    triple = _pin_triple("1d-periodic")
    with pytest.raises(ValueError, match=r"member 1 \(nu=1e\+300\) failed: stable dt "
                                         r".* below the clock tolerance 2e-15"):
        list(run(triple, [SchemeSpec(nu=0.1), SchemeSpec(nu=1e300)], LAWS[2.0], 0.2, 0.05))


@pytest.mark.parametrize("short, steps", [(0.7, 1), (1.4, 2)])
def test_a_step_ending_within_the_clock_tolerance_takes_the_sample(monkeypatch, short, steps):
    # the clock tolerance is 1e-14 * t_end: a step that ends 0.7 of it short
    # of a sample takes the sample; one that ends 1.4 of it short needs a
    # second step.  t_end = 2**-8 lies below this state's true stable dt
    t_end = 2.0 ** -8
    dts, inner = [], solver_mod.step
    monkeypatch.setattr(solver_mod, "stable_dt",
                        lambda stack: np.full(len(stack.ids), t_end - short * 1e-14 * t_end))
    monkeypatch.setattr(solver_mod, "step", lambda stack, dt: dts.append(dt) or inner(stack, dt))
    list(run(_pin_triple("1d-periodic"), [SchemeSpec(nu=0.1)], LAWS[2.0], t_end, t_end))
    assert len(dts) == steps


@pytest.mark.parametrize("miss, error", [(0.5e-9, None), (2e-9, "sample_dt must divide t_end")],
                         ids=["0.5e-9", "2e-9"])
def test_sample_dt_may_miss_a_divisor_of_t_end_by_1e_9_relative(miss, error):
    with pytest.raises(ValueError, match=error) if error else contextlib.nullcontext():
        run(_pin_triple("1d-periodic"), [SchemeSpec(nu=0.1)], LAWS[2.0], 0.2, 0.05 * (1.0 + miss))


def test_stacked_cfl_violation_and_nan_dt_name_member():
    s = _pin_state("1d-periodic")
    specs = [SchemeSpec(nu=0.1), SchemeSpec(nu=0.3)]
    stack = _stack(specs, s, s)
    dt = stable_dt(stack)
    with pytest.raises(CFLViolation, match=r"member 1 \(nu=0\.3\) failed: dt=.* exceeds"):
        step(stack, dt * np.array([1.0, 1.01]))
    with pytest.raises(CFLViolation, match=r"member 0 \(nu=0\.1\) failed: dt=nan exceeds"):
        step(stack, np.array([math.nan, dt[1]]))


def test_step_admits_the_bound_and_rejects_a_dt_just_above_it():
    # the re-check's slack is round-off: 1e-12 of the bound, well under 1e-9
    s = _pin_state("1d-periodic")
    stack = _stack([SchemeSpec(nu=0.1), SchemeSpec(nu=0.3)], s, s)
    bound = stable_dt(stack)
    step(stack, bound)
    with pytest.raises(CFLViolation, match=r"member 1 \(nu=0\.3\) failed: dt=.* exceeds"):
        step(stack, bound * np.array([1.0, 1.0 + 1e-9]))


def test_stacked_non_finite_update_names_member_and_cell():
    g = Grid(counts=(8,), lower=(-1.0,), upper=(1.0,), boundary=("periodic",))
    rho = np.ones(8)
    rho[5] = 1e200
    good, bad = FluidState.constant(g, 1.0, 0.1), FluidState(g, rho, np.zeros((8, 1)))
    specs = [SchemeSpec(), SchemeSpec(nu=0.2)]
    stack = _stack(specs, good, bad)
    with np.errstate(over="ignore", invalid="ignore"):
        dt = stable_dt(stack)
        with pytest.raises(ValueError, match=r"member 1 \(nu=0\.2\) failed: non-finite "
                                             r"state .* cell \(4,\)"):
            step(stack, dt)


def test_stacked_negative_density_names_member_and_cell(monkeypatch):
    # as in the single-state test, the CFL guard is lifted to reach the check
    g = Grid(counts=(8,), lower=(-1.0,), upper=(1.0,), boundary=("periodic",))
    rho = np.full(8, 1e-6)
    rho[4] = 1.0
    good, bad = FluidState.constant(g, 1.0, 0.0), FluidState(g, rho, np.zeros((8, 1)))
    monkeypatch.setattr(solver_mod, "stable_dt", lambda *a, **k: math.inf)
    with pytest.raises(ValueError, match=r"member 1 \(nu=0\.0\) failed: negative density "
                                         r".* cell \(4,\)"):
        step(_stack([SchemeSpec(), SchemeSpec()], good, bad), np.array([1e-3, 0.2]))
