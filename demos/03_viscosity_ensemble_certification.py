"""Vanishing-viscosity ensembles, Reynolds stress, and certification.

Runs a ladder of artificial viscosities from one Riemann datum, averages
the members, estimates the Reynolds stress of the average, and checks
the full set of dissipative-solution conditions: weak-form residuals
against the bump dictionary, energy monotonicity, positive
semi-definiteness of the stress, and the defect-versus-trace inequality.
"""

import numpy as np

from eulerlab import (DataTriple, FluidState, GasLaw, Grid, SchemeSpec,
                      certify, compatibility, estimate_reynolds, integrate_energy, run)

law = GasLaw(a=1.0, gamma=2.0)
n = 96
g = Grid(counts=(n,), lower=(-1.0,), upper=(1.0,), boundary=("reflective",))
x = g.centers(0)
rho0 = np.where(x < 0, 1.0, 0.25)
state = FluidState(g, rho0, np.zeros((n, 1)))
triple = DataTriple(state, integrate_energy(state, law))

nus = (0.8, 0.3, 0.05)
members = run(triple, [SchemeSpec(flux="llf", nu=nu) for nu in nus], law, 0.5, 0.05)
R, avg = estimate_reynolds(members)

print(f"ensemble of {len(nus)} members, nu in {nus}")
print(f"stress scale (max cell Frobenius norm): {R.norm_scale():.4e}")
print(f"smallest stress eigenvalue:             {R.min_eigenvalue():.4e}")

defects, traces, slacks = compatibility(avg, R)
print(f"\n{'t':>6} {'defect':>12} {'r*trace':>12} {'slack':>12}")
for k in range(0, avg.n_samples, 2):
    print(f"{avg.times[k]:6.2f} {defects[k]:12.4e} {defects[k] - slacks[k]:12.4e} "
          f"{slacks[k]:12.4e}")

cert = certify(avg, R)
print("\ncertificate:")
for name, value, tol, ok in cert.checks:
    print(f"  {name:24s} {'pass' if ok else 'FAIL'}   value {value:.3e}  tol {tol:.3e}")
for note in cert.notes:
    print("  note:", note)
print("overall:", "PASS" if cert.passed else "FAIL")
