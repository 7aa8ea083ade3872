"""Numerical laboratory for dissipative solutions of the barotropic Euler system."""

from .eos import GasLaw, defect_constant, energy_cellwise, pressure, sound_speed
from .fields import (DataTriple, FluidState, Grid, integrate_energy,
                     validate_initial_data)
from .riemann import RiemannData, solve_riemann
from .solver import SchemeSpec, run
from .stress import ReynoldsField
from .trajectory import (OrderResult, Trajectory, compare_local, concatenate,
                         convex_combine, defect_reset, improve, load_bundle,
                         save_bundle, shift, stopping_time)
from .dissipative import (DissipativeCertificate, TestFunction, certify, compatibility,
                          continuity_residual, default_dictionary, estimate_reynolds,
                          momentum_residual, reset_defects)
from .selection import (CandidateSet, F1, F2, MinimizerVerdict, SelectionReport,
                        check_order_coherence, is_absolute_minimizer, laplace_energy, select)

__version__ = "0.1.0"
