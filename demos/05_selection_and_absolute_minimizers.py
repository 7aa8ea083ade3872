"""Two-step selection and absolute energy minimizers on a candidate set.

The candidates are viscosity-ensemble runs plus their defect-reset
improvements, all from one initial datum.  Step 1 keeps the minimizers
of the exponentially weighted energy F1; step 2 picks the survivor with
the smallest strictly convex norm F2.  The winner is then screened as
an absolute energy minimizer: its Laplace transform must eventually fall
below every competitor's, with a per-competitor grid rate recorded.
"""

import numpy as np

from eulerlab import (CandidateSet, DataTriple, F1, F2, FluidState, GasLaw,
                      Grid, SchemeSpec, integrate_energy, is_absolute_minimizer,
                      laplace_energy, run, select)

law = GasLaw(a=1.0, gamma=2.0)
n = 64
g = Grid(counts=(n,), lower=(-1.0,), upper=(1.0,), boundary=("reflective",))
x = g.centers(0)
rho0 = np.where(x < 0, 1.0, 0.25)
state = FluidState(g, rho0, np.zeros((n, 1)))
e0 = integrate_energy(state, law)
triple = DataTriple(state, e0)

dissipating, lazy = (0.6, 0.2, 0.05), (0.6, 0.2)
candidates = (list(run(triple, [SchemeSpec(nu=nu) for nu in dissipating], law, 0.6, 0.05))
              + list(run(triple, [SchemeSpec(nu=nu) for nu in lazy], law, 0.6, 0.05,
                         energy_mode="budget")))
labels = ([f"nu={nu} (dissipating)" for nu in dissipating]
          + [f"nu={nu} (lazy energy)" for nu in lazy])

cands = CandidateSet(candidates)
report = select(cands)
print(f"{'member':28s} {'F1':>12} {'survived':>9} {'F2':>12}")
for i, lab in enumerate(labels):
    f2 = report.f2_values[i]
    print(f"{lab:28s} {report.f1_values[i]:12.6f} "
          f"{'yes' if i in report.survivors else 'no':>9} "
          f"{'' if f2 is None else format(f2, '12.6f')}")
print(f"selected: {labels[report.selected]}")

winner = cands.members[report.selected]
verdict = is_absolute_minimizer(winner, cands)
print("\nabsolute-minimizer screen of the winner:")
others = [l for i, l in enumerate(labels) if cands.members[i] is not winner]
for lab, lam in zip(others, verdict.lambda_lower):
    print(f"  vs {lab:26s} dominates from grid rate {lam}")
print("verdict:", verdict.is_minimizer)

print("\ntransforms of the winner at a few rates:")
for lam in (0.5, 1.0, 4.0, 16.0):
    print(f"  lambda = {lam:5.1f}: {laplace_energy(winner, lam):.6f}"
          f"   (constant-curve bound E0/lambda = {e0 / lam:.6f})")
