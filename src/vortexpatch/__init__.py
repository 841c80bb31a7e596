"""Desingularized point-vortex equilibria for steady 2D Euler flow.

The pipeline: locate critical points of the Kirchhoff-Routh interaction
energy of a +/- point-vortex system in a bounded simply connected domain,
build the explicit near-solution out of rescaled radial ground-state cores
glued to logarithmic tails, solve the gated semilinear free-boundary problem
the cores approximate, and verify the asymptotic behavior (support
confinement, circulation, energy expansion) numerically.
"""

__version__ = "0.1.0"

from .geometry import BoundaryCurve, Domain
from .greens import GreenEvaluator, HarmonicBackground, background_from_flux
from .profile import RadialProfile, limit_profile_eval, solve_profile
from .kirchhoff import (CriticalPointReport, VortexSystem, find_critical,
                        kr_grad, kr_hessian, kr_value, phi_value)
from .ansatz import (AnsatzField, CoreParameters, solve_core_system, solve_s,
                     w_delta_eval)
from .grid import GridField, GridSpec, build_grid
from .solver import SolveReport, rhs_eval, solve_newton
from .diagnostics import (FlowField, VortexDiagnostics, ansatz_energy,
                          ansatz_energy_expansion, energy_eval,
                          kr_consistency, reconstruct_flow, vorticity_extract)

__all__ = [
    "BoundaryCurve", "Domain",
    "GreenEvaluator", "HarmonicBackground", "background_from_flux",
    "RadialProfile", "solve_profile", "limit_profile_eval",
    "VortexSystem", "CriticalPointReport", "kr_value", "kr_grad",
    "kr_hessian", "phi_value", "find_critical",
    "CoreParameters", "AnsatzField", "solve_s", "solve_core_system",
    "w_delta_eval",
    "GridSpec", "GridField", "build_grid",
    "SolveReport", "rhs_eval", "solve_newton",
    "VortexDiagnostics", "FlowField", "vorticity_extract", "energy_eval",
    "ansatz_energy", "ansatz_energy_expansion", "kr_consistency",
    "reconstruct_flow",
]
