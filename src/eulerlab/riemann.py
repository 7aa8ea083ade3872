"""Exact solver for the 1D isentropic Riemann problem.

The barotropic system has two characteristic families with speeds
u -/+ c(rho), c(rho) = sqrt(a*gamma*rho**(gamma-1)).  The self-similar
entropy solution consists of a 1-wave (left), a uniform intermediate
state, and a 2-wave (right); each wave is either a Lax-admissible shock
or a rarefaction fan.  There is no contact discontinuity.

Wave curves through a state (r0, u0):

* rarefaction (rho < r0):   u = u0 -/+ 2*(c(rho) - c(r0))/(gamma - 1)
* shock       (rho > r0):   u = u0 -/+ sqrt((p(rho)-p(r0))*(rho-r0)/(rho*r0))

(upper sign: 1-wave, lower sign: 2-wave).  The intermediate density is
the root of the monotone equation u1(rho) = u2(rho), found by bracketed
bisection to 1e-12.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .eos import GasLaw

__all__ = ["RiemannData", "RiemannSolution", "solve_riemann"]

_BISECT_TOL = 1e-12
_BRACKET_GROWTH = 1e12  # the bracket for rho_star reaches this times the larger density
_LOG_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class RiemannData:
    """Left/right primitive states (rho, u) of a 1D Riemann datum."""

    rho_l: float
    u_l: float
    rho_r: float
    u_r: float
    law: GasLaw

    def __post_init__(self):
        for key in ("rho_l", "u_l", "rho_r", "u_r"):
            if not math.isfinite(getattr(self, key)):
                raise ValueError(f"{key} must be finite, got {getattr(self, key)}")
        if not (self.rho_l > 0 and self.rho_r > 0):
            raise ValueError("the exact solver requires positive densities on both sides")


# scalar math twins of eos.sound_speed/eos.pressure: the NumPy versions
# round differently in the last bit, which would move the pinned samples
def _sound(rho: float, law: GasLaw) -> float:
    return math.sqrt(law.a * law.gamma * rho ** (law.gamma - 1.0))


def _pressure(rho: float, law: GasLaw) -> float:
    return law.a * rho**law.gamma


def _wave_u(rho: float, r0: float, u0: float, law: GasLaw, sign: float) -> float:
    # velocity reachable from (r0, u0) along the 1-wave (sign=-1) or
    # 2-wave (sign=+1) curve at density rho
    if rho <= r0:
        return u0 + sign * 2.0 * (_sound(rho, law) - _sound(r0, law)) / (law.gamma - 1.0)
    dp = _pressure(rho, law) - _pressure(r0, law)
    return u0 + sign * math.sqrt(dp * (rho - r0) / (rho * r0))


@dataclass(frozen=True)
class RiemannSolution:
    """Resolved wave structure, reusable for sampling many xi values."""

    data: RiemannData
    rho_star: float
    u_star: float

    def sample_array(self, xi) -> tuple:
        """Self-similar solution (rho, u) at xi = x/t, as arrays of xi's shape.

        Each wave's edges are computed once per call, then each region is
        filled through a boolean mask.  Where round-off lets the regions of
        the two waves overlap, the 1-wave takes precedence.
        """
        xi = np.asarray(xi, dtype=float)
        d, law = self.data, self.data.law
        g, rs = law.gamma, self.rho_star
        rho = np.full(xi.shape, rs)
        u = np.full(xi.shape, self.u_star)
        left = np.zeros(xi.shape, dtype=bool)  # the 1-wave's region, once sampled
        inner_edges = []
        for sign, r0, u0, beyond in ((-1.0, d.rho_l, d.u_l, np.less),
                                     (1.0, d.rho_r, d.u_r, np.greater)):
            if rs > r0:  # shock: both edges at the shock speed
                j = math.sqrt((_pressure(rs, law) - _pressure(r0, law)) / (1.0 / r0 - 1.0 / rs))
                outer = inner = u0 + sign * j / r0
            else:  # rarefaction fan from head (outer) to tail (inner)
                outer = u0 + sign * _sound(r0, law)
                inner = self.u_star + sign * _sound(rs, law)
            inner_edges.append(inner)
            wave = beyond(xi, inner)
            wave[left] = False
            outside = beyond(xi, outer)
            outside &= wave
            rho[outside] = r0
            u[outside] = u0
            if rs <= r0:
                fan = wave ^ outside
                # inside the fan u -/+ c = xi with the outer state's invariant
                # u +/- 2c/(g-1); w = -/+ c, kept to two fan-sized arrays (memory)
                invariant = u0 - sign * 2.0 * _sound(r0, law) / (g - 1.0)
                w = xi[fan]
                w -= invariant
                w *= g - 1.0
                w /= g + 1.0
                u[fan] = xi[fan]
                u[fan] -= w
                w *= w
                w /= law.a * g
                # libm pow through Python floats: NumPy's SIMD np.power differs
                # in the last bit for exponents other than 1 and 2
                rho[fan] = np.fromiter(map(pow, memoryview(w), repeat(1.0 / (g - 1.0))),
                                       float, count=w.size)
            left = wave
        # the edges come from different wave formulas, so they agree only to
        # round-off relative to their size (7e-15 at a speed of 3e46 seen)
        assert inner_edges[0] <= inner_edges[1] + 1e-12 * max(1.0, *map(abs, inner_edges))
        return rho, u


def solve_riemann(data: RiemannData) -> RiemannSolution:
    """Find the intermediate state of the two-wave solution.

    Raises ValueError for vacuum-forming data, i.e. when the wave curves
    only meet at rho = 0 (both states expand away from each other faster
    than the gas can fill the gap), and for a density the bisection
    cannot resolve (not above its tolerance) or evaluate (a*rho**(gamma+1)
    overflowing on the bracket).
    """
    law = data.law
    g = law.gamma
    for key in ("rho_l", "rho_r"):
        rho = getattr(data, key)
        if not rho > _BISECT_TOL:
            raise ValueError(f"{key} must exceed the bisection tolerance {_BISECT_TOL:g}, "
                             f"got {rho}")
        if (g + 1.0) * math.log(_BRACKET_GROWTH * rho) + math.log(max(law.a, 1.0)) >= _LOG_MAX:
            raise ValueError(f"{key} is too large for the wave curves to stay finite, got {rho}")
    # u along the 1-curve minus u along the 2-curve; decreasing in rho
    diff = lambda rho: (_wave_u(rho, data.rho_l, data.u_l, law, -1.0)
                        - _wave_u(rho, data.rho_r, data.u_r, law, +1.0))

    vac_limit = (data.u_l + 2.0 * _sound(data.rho_l, law) / (g - 1.0)
                 - data.u_r + 2.0 * _sound(data.rho_r, law) / (g - 1.0))
    if vac_limit <= 0.0:
        raise ValueError("vacuum region forms: the data admit no positive intermediate density")

    lo = 1e-14 * min(data.rho_l, data.rho_r)
    hi = max(data.rho_l, data.rho_r)
    while diff(hi) > 0.0:
        hi *= 2.0
        if hi > _BRACKET_GROWTH * max(data.rho_l, data.rho_r):
            raise ValueError("failed to bracket the intermediate density")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if diff(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= _BISECT_TOL * max(1.0, hi):
            break
    rho_star = 0.5 * (lo + hi)
    u_star = _wave_u(rho_star, data.rho_l, data.u_l, law, -1.0)
    return RiemannSolution(data, rho_star, u_star)


_AVG_NODES, _AVG_WEIGHTS = np.polynomial.legendre.leggauss(8)


def sample_cell_averages(sol: RiemannSolution, centers: np.ndarray, h: float,
                         t: float) -> tuple:
    """Cell averages (rho, m) of the self-similar solution at time t.

    The initial discontinuity sits at x = 0; at t = 0 the initial datum
    is averaged directly.  Cell averaging (8-point Gauss per cell) is
    the finite-volume-consistent sampling; it keeps the spatial
    projection error second order even across the waves.
    """
    centers = np.asarray(centers, dtype=float)
    rho = np.zeros_like(centers)
    m = np.zeros_like(centers)
    d = sol.data
    for s, w in zip(_AVG_NODES, _AVG_WEIGHTS):
        xq = centers + 0.5 * h * s
        if t <= 0.0:
            r = np.where(xq < 0.0, d.rho_l, d.rho_r)
            u = np.where(xq < 0.0, d.u_l, d.u_r)
        else:
            r, u = sol.sample_array(xq / t)
        rho += 0.5 * w * r
        m += 0.5 * w * r * u
    return rho, m
