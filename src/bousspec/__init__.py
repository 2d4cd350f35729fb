"""Spectral Galerkin (G-NI) solver for Bona-Smith Boussinesq systems.

Jacobi nodal bases with Gauss-Lobatto quadrature in space, two-stage SDIRK
integrators in time, plus the measurement harness (weighted Sobolev norms,
error tables, convergence-ratio studies) and a CLI experiment runner.
"""

__version__ = "0.1.0"

from .analysis import NodalSolution, NormSpec
from .jacobi import JacobiBasis, QuadratureRule, build_basis, glj_rule
from .model import (
    BoundaryData,
    ExactSolution,
    IntervalMap,
    SystemParams,
    bore_data,
    nonsmooth_data,
    params_b_neq_d,
    params_from_theta,
    pde_residual,
    solitary_b_neq_d,
    solitary_bona_smith,
    traveling_bbm,
)
from .semidiscrete import AssembledSystem, assemble, initial_state, rhs_eval
from .timestep import (
    GAMMA_ORDER3,
    IntegrationPlan,
    dispersion_error,
    integrate,
    sdirk_step,
    stability_function,
)

__all__ = [
    "AssembledSystem",
    "BoundaryData",
    "ExactSolution",
    "GAMMA_ORDER3",
    "IntegrationPlan",
    "IntervalMap",
    "JacobiBasis",
    "NodalSolution",
    "NormSpec",
    "QuadratureRule",
    "SystemParams",
    "assemble",
    "bore_data",
    "build_basis",
    "dispersion_error",
    "glj_rule",
    "initial_state",
    "integrate",
    "nonsmooth_data",
    "params_b_neq_d",
    "params_from_theta",
    "pde_residual",
    "rhs_eval",
    "sdirk_step",
    "solitary_b_neq_d",
    "solitary_bona_smith",
    "stability_function",
    "traveling_bbm",
]
