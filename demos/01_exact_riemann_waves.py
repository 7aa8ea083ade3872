"""Exact solution of the isentropic Riemann problem.

Builds the two-wave entropy solution for a Sod-like datum, prints the
intermediate state and wave speeds, and writes a profile CSV plus an
SVG plot next to this script.
"""

import math
import os

import numpy as np

from eulerlab import GasLaw, RiemannData, solve_riemann
from eulerlab.eos import sound_speed
from eulerlab.fields import write_csv
from eulerlab.svgplot import write_line_svg

OUT = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(OUT, exist_ok=True)

law = GasLaw(a=1.0, gamma=2.0)
data = RiemannData(rho_l=1.0, u_l=0.0, rho_r=0.25, u_r=0.0, law=law)
sol = solve_riemann(data)

print("datum: (rho, u) =", (data.rho_l, data.u_l), "|", (data.rho_r, data.u_r))
print(f"intermediate state: rho* = {sol.rho_star:.12f}, u* = {sol.u_star:.12f}")

c_l = float(sound_speed(data.rho_l, law))
c_star = float(sound_speed(sol.rho_star, law))
print(f"1-rarefaction fan: head {data.u_l - c_l:+.6f}, tail {sol.u_star - c_star:+.6f}")
j = math.sqrt((law.a * sol.rho_star**law.gamma - law.a * data.rho_r**law.gamma)
              / (1 / data.rho_r - 1 / sol.rho_star))
print(f"2-shock speed:     {data.u_r + j / data.rho_r:+.6f}")

# profile at t = 0.2
t = 0.2
x = np.linspace(-1.0, 1.0, 401)
rho, u = sol.sample_array(x / t)
write_csv(os.path.join(OUT, "riemann_profile.csv"), ("x", "rho", "u"), [(x, rho, u)])
write_line_svg(os.path.join(OUT, "riemann_profile.svg"), x, [rho, u],
               ["rho", "u"], title=f"Riemann profile at t = {t}",
               xlabel="x", ylabel="value")
print("wrote", os.path.join(OUT, "riemann_profile.csv"), "and .svg")
