"""Trajectory algebra: shift, concatenation, convex combination, and the
stopping-time/defect-reset loop that keeps the energy defect small.

The base trajectory is a viscosity-ensemble average whose total energy
is the (constant) initial mean energy, so its defect is the accumulated
scheme dissipation and grows steadily.  Each time the defect would cross
delta, the energy bookkeeping is reset to the current mean energy by
concatenating a fresh continuation: the result stays below delta on the
whole horizon.  A single reset also yields a competitor that is strictly
smaller in the local energy order.
"""

import numpy as np

from eulerlab import (DataTriple, FluidState, GasLaw, Grid, SchemeSpec,
                      compare_local, concatenate, convex_combine,
                      estimate_reynolds, improve, integrate_energy, reset_defects,
                      run, shift)

law = GasLaw(a=1.0, gamma=2.0)
n = 96
g = Grid(counts=(n,), lower=(-1.0,), upper=(1.0,), boundary=("reflective",))
x = g.centers(0)
rho0 = np.where(x < 0, 2.0, 0.2)
state = FluidState(g, rho0, np.zeros((n, 1)))
triple = DataTriple(state, integrate_energy(state, law))
t_end, dt = 1.5, 0.05
specs = [SchemeSpec(nu=nu) for nu in (0.8, 0.4, 0.1)]


def ensemble_average(tr, horizon):
    members = run(tr, specs, law, horizon, dt,
                  energy_mode="budget")
    return estimate_reynolds(members)[1]


base = ensemble_average(triple, t_end)
print(f"E0 = {base.e0:.4f}, max defect of the lazy curve: "
      f"{base.defects().max():.4f}")

# algebra sanity on the base trajectory
T = 0.5
assert compare_local(concatenate(base, shift(base, T), T), base).relation == "equal"
half, stress = convex_combine(base, base, 0.5)
assert stress.norm_scale() <= 1e-12
print("self-concatenation and self-combination behave as identities")

# stopping-time / reset loop: each continuation is marched only up to the
# next time its averaged defect exceeds delta
delta = 0.05 * base.e0
result, resets = reset_defects(triple, specs, law, t_end, dt, delta)
print(f"delta = {delta:.4f}: {len(resets)} resets at t = "
      f"{[round(t, 2) for t in resets]}")
print(f"max defect after resets: {result.defects().max():.4f} <= delta")

# one explicit improvement step: reset the worst defect of the base
k = int(np.argmax(base.defects()[:-1]))
T = float(base.times[k])
[cont] = run(DataTriple(base.states[k], float(base.mean_energies[k])),
             [SchemeSpec(nu=0.1)], law, t_end - T, dt)
competitor, order = improve(base, T, cont)
end = "inf" if not np.isfinite(order.delta) else f"{order.T + order.delta:.2f}"
print(f"improve at t = {T:.2f}: relation '{order.relation}', "
      f"witness window ({order.T:.2f}, {end})")
assert compare_local(competitor, base).relation == "less"
