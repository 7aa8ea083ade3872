"""Shock-capturing convergence of the finite-volume schemes.

Runs the Sod-like datum on a ladder of grids with both fluxes and
measures the L1 distance to the exact self-similar solution at t = 0.2.
First-order convergence shows as roughly halving errors.
"""

import numpy as np

from eulerlab import (DataTriple, FluidState, GasLaw, Grid, RiemannData,
                      SchemeSpec, integrate_energy, run, solve_riemann)

law = GasLaw(a=1.0, gamma=2.0)
sol = solve_riemann(RiemannData(1.0, 0.0, 0.25, 0.0, law))
T = 0.2

for flux in ("llf", "hll"):
    print(f"flux = {flux}")
    prev = None
    for n in (64, 128, 256, 512):
        g = Grid(counts=(n,), lower=(-1.0,), upper=(1.0,), boundary=("reflective",))
        x = g.centers(0)
        rho0 = np.where(x < 0, 1.0, 0.25)
        state = FluidState(g, rho0, np.zeros((n, 1)))
        triple = DataTriple(state, integrate_energy(state, law))
        [traj] = run(triple, [SchemeSpec(flux=flux)], law, t_end=T, sample_dt=T)
        rho_ex, _ = sol.sample_array(x / T)
        err = float(np.sum(np.abs(traj.states[-1].rho - rho_ex)) * g.spacing[0])
        rate = "" if prev is None else f"  ratio {prev / err:.2f}"
        print(f"  N = {n:4d}:  L1 error {err:.5e}{rate}")
        prev = err
