"""The stopping-time/reset loop ``reset_defects``: each window is marched
only up to its stopping sample, and the result is bit for bit the loop
that marches every window to t_end."""

import math

import numpy as np
import pytest

import eulerlab.dissipative as dissipative_mod
import eulerlab.solver as solver_mod
from eulerlab.dissipative import estimate_reynolds, reset_defects
from eulerlab.eos import GasLaw
from eulerlab.fields import DataTriple, FluidState, Grid, integrate_energy
from eulerlab.solver import SchemeSpec, run
from eulerlab.trajectory import Trajectory, concatenate, stopping_time

LAW = GasLaw(a=1.0, gamma=2.0)

# (cells, t_end, sample_dt, delta relative to E0): one stack of three
# members resetting five times; three stacks of one member (2048 cells)
# resetting three times, the last time at t_end
CASES = {"one-stack": (64, 0.5, 0.05, 0.005), "three-stacks": (2048, 0.05, 0.01, 0.0005)}


def _case(name):
    n, t_end, sample_dt, rel = CASES[name]
    g = Grid(counts=(n,), lower=(-1.0,), upper=(1.0,), boundary=("reflective",))
    x = g.centers(0)
    s = FluidState(g, np.where(x < 0.0, 1.0, 0.25), np.zeros((n, 1)))
    triple = DataTriple(s, integrate_energy(s, LAW))
    specs = [SchemeSpec(flux="hll", nu=nu) for nu in (0.4, 0.2, 0.1)]
    return triple, specs, t_end, sample_dt, rel * triple.E0


def _full_horizon_loop(triple, specs, t_end, sample_dt, delta):
    """The loop with every window marched to t_end and cut by the next reset."""
    def average(start, horizon):
        return estimate_reynolds(run(start, specs, LAW, horizon, sample_dt, "budget"))[1]

    result, resets = average(triple, t_end), []
    while math.isfinite(T := stopping_time(result, delta)):
        k = result.index_of(T)
        state, mean_t = result.states[k], float(result.mean_energies[k])
        if t_end - T <= 0.5 * sample_dt:
            cont = Trajectory(result.grid, LAW, [0.0], [state], [mean_t], e0=mean_t)
        else:
            cont = average(DataTriple(state, mean_t), t_end - T)
        result = concatenate(result, cont, T)
        resets.append(T)
    return result, resets


def _count_steps(monkeypatch):
    calls = [0]
    inner = solver_mod.step

    def counting_step(*args, **kwargs):
        calls[0] += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(solver_mod, "step", counting_step)
    return calls


@pytest.mark.parametrize("name", sorted(CASES))
def test_reset_defects_is_the_full_horizon_loop_bit_for_bit(monkeypatch, name):
    triple, specs, t_end, sample_dt, delta = _case(name)
    steps = _count_steps(monkeypatch)
    full, full_resets = _full_horizon_loop(triple, specs, t_end, sample_dt, delta)
    full_steps, steps[0] = steps[0], 0
    result, resets = reset_defects(triple, specs, LAW, t_end, sample_dt, delta)
    assert resets == full_resets and len(resets) >= 3
    for a in ("times", "rho", "m", "energy", "mean_energies"):
        assert getattr(result, a).tobytes() == getattr(full, a).tobytes()
    assert result.e0 == full.e0
    assert 0 < steps[0] < full_steps


@pytest.mark.parametrize("name", sorted(CASES))
def test_no_window_marches_past_its_stopping_sample(monkeypatch, name):
    # the samples each window's march produces, against the window's
    # average: every window but the last ends at its first sample whose
    # defect exceeds delta, and none marched a sample beyond its end
    triple, specs, t_end, sample_dt, delta = _case(name)
    produced, averages = [], []
    inner_iter, inner_estimate = solver_mod.March.__iter__, dissipative_mod.estimate_reynolds

    def recording_iter(march):
        produced.append(-1)
        for j in inner_iter(march):
            produced[-1] = j
            yield j

    def recording_estimate(members):
        R, avg = inner_estimate(members)
        averages.append(avg)
        return R, avg

    monkeypatch.setattr(solver_mod.March, "__iter__", recording_iter)
    monkeypatch.setattr(dissipative_mod, "estimate_reynolds", recording_estimate)
    result, resets = reset_defects(triple, specs, LAW, t_end, sample_dt, delta)
    assert len(produced) == len(averages) >= 3
    assert produced == [avg.n_samples - 1 for avg in averages]
    for avg in averages[:-1]:
        assert stopping_time(avg, delta) == avg.t_end
    assert result.t_end == pytest.approx(t_end)
    assert np.max(result.defects()) <= delta


def test_the_loop_must_reach_t_end(monkeypatch):
    # stopping_time judges T: a window the loop cut short that it does not
    # confirm leaves the result short of t_end, which is an error
    triple, specs, t_end, sample_dt, delta = _case("one-stack")
    monkeypatch.setattr(dissipative_mod, "stopping_time", lambda traj, delta: math.inf)
    with pytest.raises(RuntimeError, match="short of t_end=0.5"):
        reset_defects(triple, specs, LAW, t_end, sample_dt, delta)


def test_an_unsettled_loop_marches_its_last_window_to_t_end(monkeypatch):
    # a loop that resets at t = 0 every time gives up after n + 3 resets
    # (n = 10 samples), with its last window marched whatever its defect
    triple, specs, t_end, sample_dt, delta = _case("one-stack")
    monkeypatch.setattr(dissipative_mod, "stopping_time", lambda traj, delta: 0.0)
    result, resets = reset_defects(triple, specs, LAW, t_end, sample_dt, delta)
    assert resets == [0.0] * 13
    assert result.t_end == pytest.approx(t_end)
    assert np.max(result.defects()) > delta
