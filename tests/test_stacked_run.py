"""The stacked march of ``solver.run``: every member bit-identical to its
one-member run, each member's own clock, and guards that name the member."""

import hashlib
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


def _digest(members):
    h = hashlib.sha256()
    for tr in members:
        for a in (tr.times, tr.rho, tr.m, tr.energy, tr.mean_energies):
            h.update(a.tobytes())
        h.update(repr(tr.e0).encode())
    return h.hexdigest()


# sha256 of every member's times, fields, energy curve, mean energies and
# e0 for an ensemble marched to t = 0.2 (samples every 0.05), recorded
# with one ``run`` call per viscosity before ``run`` stacked its members;
# gamma 2 runs in "envelope" mode, gamma 1.4 in "budget" mode.  The
# "2d-mixed-*" and "2d-two-stacks" entries were recorded with the stacked
# ``run`` before the solver packed density and momentum into one array
RUN_DIGESTS = {
    ("hll", "2d-mixed-reflective-periodic", (0.15, 0.0, 0.3), 2.0): "ffda192f2bb6b97f261f303889bf35f6c52d5acd25c8ba00e291a6f5a2ce2316",
    ("llf", "2d-mixed-reflective-periodic", (0.15, 0.0, 0.3), 2.0): "2af1d10cca251cdd20b620240c82c931f0a12204deb94369083a4f5a2abf0c0e",
    ("hll", "2d-mixed-periodic-reflective", (0.15, 0.0, 0.3), 2.0): "76080a08cebe0b3ab05313f0d58e0d1b7883864712675cac0999bbbef916ec3a",
    ("llf", "2d-mixed-periodic-reflective", (0.15, 0.0, 0.3), 2.0): "5601fce742905e01373b54e591bc0776b6695bf60d7740af615d1901589e41a5",
    ("llf", "2d-two-stacks", (0.2, 0.05), 2.0): "b63f58d599c5f24277c27c7d74d08ad1e6e3e6748443b26733f6e8f7773e53c4",
    ("hll", "2d-two-stacks", (0.2, 0.05), 2.0): "ddd39552aefea26620ce51677fdbf49cb9eeb05da7ceb8bd7d0e65d5688d0dfa",
    ("hll", "1d-periodic", (0.4, 0.2, 0.1), 2.0): "48e0e80362346163adfdb66ec9c0c82202fd9995f78158bf9dec7ac103c39eac",
    ("hll", "1d-periodic", (0.4, 0.2, 0.1), 1.4): "27dd03cdc9f572ba5d89f89c01d30ea2517eca182962ec9a0ddd111afb964b22",
    ("hll", "1d-periodic", (0.15, 0.0), 2.0): "e09083e0a2fa52e2dcac8e56c5d74a787c4c437a61eb4e8302bae1d6515ec7c2",
    ("hll", "1d-periodic", (0.15, 0.0), 1.4): "ecc2b91708af8ad99d31e22ada62fcc85ea588683af18cc11124c2408d76589c",
    ("hll", "1d-periodic", (0.2, 0.2), 2.0): "096e59b79f3a8a03c0537da35a57731988d4d2fcede6248082b8866b3ca7fb4f",
    ("hll", "1d-periodic", (0.2, 0.2), 1.4): "921295243248faab2c331c61d9ca7a52f1e7c91f5685f077f28cbb38e095b37c",
    ("hll", "1d-vacuum", (0.4, 0.2, 0.1), 2.0): "56d55e2da0aebe614834911ffa14aff9127b2a79d0ae701532f9470e627f1669",
    ("hll", "1d-vacuum", (0.4, 0.2, 0.1), 1.4): "9101ab4318ffd31e5cc7ecce45584d79dd4bd398c4b2d48de6e4097db76d0a41",
    ("hll", "1d-vacuum", (0.15, 0.0), 2.0): "9e0b5edae75d2f2ea4c7262aa14437ea1e7f8cb7884f1fb819abd9876c35b96f",
    ("hll", "1d-vacuum", (0.15, 0.0), 1.4): "b4970acb06f13b8c21ddb2d2dd12acfc601ab997d0539cc0e9dd6d7b1133f1d2",
    ("hll", "1d-vacuum", (0.2, 0.2), 2.0): "1f7c75ee4a0413811345a166e99b7f55b0147facb9a1d44a3700927dc8334a0e",
    ("hll", "1d-vacuum", (0.2, 0.2), 1.4): "35d2c32e390be51707aabaed59307bc2addeb1a243b6e8b933b2d8690b1f029e",
    ("hll", "2d-vacuum", (0.4, 0.2, 0.1), 2.0): "e268a2c15f56768b2c5938c698e5717b9b4fb0ddde55b38f7bac418309dce105",
    ("hll", "2d-vacuum", (0.4, 0.2, 0.1), 1.4): "145d93206179b705ff3195b75854fca86fa59602cec47ea89df586161b73dd68",
    ("hll", "2d-vacuum", (0.15, 0.0), 2.0): "71278ad3c251ab4f85bebc0b7420e43778dea02b130f08a64025b3e0436bcae3",
    ("hll", "2d-vacuum", (0.15, 0.0), 1.4): "4d1cf48946fa74e9579c79ba59d8986c8c077fa35c3b1aba560e1c14bf9b19ec",
    ("hll", "2d-vacuum", (0.2, 0.2), 2.0): "a010e1d81ade97f4e08b7322ceedd41181e7e8e75b3e004afa147aa2784692a5",
    ("hll", "2d-vacuum", (0.2, 0.2), 1.4): "5029785ef36904529328d355483c7a94cf491c7875a424905a43f351d9b8ff14",
    ("llf", "1d-periodic", (0.4, 0.2, 0.1), 2.0): "acfac15c9efd4623dc4ea568ec7cde872d1ac8ee02a743b9ae9b7f201bde1264",
    ("llf", "1d-periodic", (0.4, 0.2, 0.1), 1.4): "565e9bcb699a0ba4dcd723d0fd4e50fca0a7c6f936e48dc6a7994f21cacf326f",
    ("llf", "1d-periodic", (0.15, 0.0), 2.0): "7bd61a5ec59924dc081213fe68c1e5e76631a19b915c54e713686be223d8eeb2",
    ("llf", "1d-periodic", (0.15, 0.0), 1.4): "53dfe026ca707332b4c3fcb989a8380e4335bcfa9924b6ce265336436f36d10c",
    ("llf", "1d-periodic", (0.2, 0.2), 2.0): "a06193559e2403e2d331e0d13b88d6c732ef469d43e195496c5ba0e96496abb6",
    ("llf", "1d-periodic", (0.2, 0.2), 1.4): "40ae3b9c572cf2e51334948d3c39c4731050909d0ef51c8b556367a5c02e518a",
    ("llf", "1d-vacuum", (0.4, 0.2, 0.1), 2.0): "62ca822eedb0b0a1a1bd102d55c54751d5917bb94ad311709ab0e538603d2d9b",
    ("llf", "1d-vacuum", (0.4, 0.2, 0.1), 1.4): "5615ed8667155aa8ad183c23f332f22dfa7a6edd9e10e479b2c7de2b7e8f7a38",
    ("llf", "1d-vacuum", (0.15, 0.0), 2.0): "d19716b047006ae807b27cfdb6b55917bcb4d2b4d1359f72fdaf59f30388699c",
    ("llf", "1d-vacuum", (0.15, 0.0), 1.4): "3af78fad2ff801038ca00ec4fbfe79b67752f210041b7a831da5f88185e1c699",
    ("llf", "1d-vacuum", (0.2, 0.2), 2.0): "607a4c4213cf0a5c8b5172ed467945f0ce544fd326c13e73aa8c2656eab6a4db",
    ("llf", "1d-vacuum", (0.2, 0.2), 1.4): "1ab573b95c45dded730eb95df4faa9eec62aacb6b5fe19bcb19e5c594d268f73",
    ("llf", "2d-vacuum", (0.4, 0.2, 0.1), 2.0): "2faa67f47e5854c8cc6dad4edea3872c9a1ee2103a97b4876616f0fec873b7bf",
    ("llf", "2d-vacuum", (0.4, 0.2, 0.1), 1.4): "d631c05b69676dd9534bb3808eef601719e2b8c01e1aa28a67bda60d17381fa3",
    ("llf", "2d-vacuum", (0.15, 0.0), 2.0): "c94688eedcaee8afe55ca812115f86cd51a643ed6d83494b03413890572f68e3",
    ("llf", "2d-vacuum", (0.15, 0.0), 1.4): "4a38245a7c8c3e8a1ed7de5e0667d7c0c73e16791c1d31a9b7846234a5ad7b2d",
    ("llf", "2d-vacuum", (0.2, 0.2), 2.0): "7cec0e5d023ed1ff1e052994d8c043f23dd052d2da3df0af668d599143d784ab",
    ("llf", "2d-vacuum", (0.2, 0.2), 1.4): "9704ecb94ae9e656644d212e9035e09ee96414b35bfd5c9693f8e8b417e2b90b",
}


@pytest.mark.parametrize("flux, case, nus, gamma", sorted(RUN_DIGESTS),
                         ids=[f"{f}-{c}-{'_'.join(map(str, n))}-g{g}"
                              for f, c, n, g in sorted(RUN_DIGESTS)])
def test_run_ensemble_bits_pinned(flux, case, nus, gamma):
    s = _pin_state(case)
    law = LAWS[gamma]
    mode = "envelope" if gamma == 2.0 else "budget"
    members = run(DataTriple(s, integrate_energy(s, law)),
                  [SchemeSpec(flux=flux, nu=nu) for nu in nus], law, 0.2, 0.05, mode)
    assert _digest(members) == RUN_DIGESTS[(flux, case, nus, gamma)]


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
    assert [_digest([tr]) for tr in stacked] == [_digest([tr]) for tr in alone]


def test_finished_members_leave_the_stack(monkeypatch):
    # the nu = 0 member takes fewer steps; once it has its last sample the
    # stack marches without it, so no step is spent on a finished member
    sizes = []
    inner = solver_mod.step

    def counting_step(stack, dt):
        sizes.append(len(stack.ids))
        return inner(stack, dt)

    s = _pin_state("1d-vacuum")
    triple = DataTriple(s, integrate_energy(s, LAWS[2.0]))
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
    s = _pin_state("2d-two-stacks")
    march = solver_mod.March(DataTriple(s, integrate_energy(s, LAWS[2.0])),
                             [SchemeSpec(nu=0.2), SchemeSpec(nu=0.05)], LAWS[2.0], 0.2, 0.05)
    assert len(march._stacks) == 2


def test_run_frees_a_stack_before_the_next_one_starts(monkeypatch):
    # a consumer that drops each member holds one stack's samples at a
    # time: when the second stack's march is made, the first stack's sample
    # array is gone
    s = _pin_state("2d-two-stacks")
    stacks, freed = [], []
    inner = solver_mod._march

    def checking_march(live, times, tol, rho, m):
        freed.append([ref() is None for ref in stacks])
        stacks.append(weakref.ref(rho))
        return inner(live, times, tol, rho, m)

    monkeypatch.setattr(solver_mod, "_march", checking_march)
    for tr in run(DataTriple(s, integrate_energy(s, LAWS[2.0])),
                  [SchemeSpec(nu=0.2), SchemeSpec(nu=0.05)], LAWS[2.0], 0.2, 0.05):
        assert tr.rho.base is stacks[-1]()
        del tr
    assert freed == [[], [True]]


def test_run_rejects_mixed_fluxes_and_no_scheme():
    s = _pin_state("1d-periodic")
    triple = DataTriple(s, integrate_energy(s, LAWS[2.0]))
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
    s = _pin_state("1d-periodic")
    triple = DataTriple(s, integrate_energy(s, LAWS[2.0]))
    with pytest.raises(ValueError, match=r"member 1 \(nu=1e\+300\) failed: stable dt "
                                         r".* below the clock tolerance 2e-15"):
        list(run(triple, [SchemeSpec(nu=0.1), SchemeSpec(nu=1e300)], LAWS[2.0], 0.2, 0.05))


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
