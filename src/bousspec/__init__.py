"""Spectral Galerkin (G-NI) solver for Bona-Smith Boussinesq systems.

Jacobi nodal bases with Gauss-Lobatto quadrature in space, two-stage SDIRK
integrators in time, plus the measurement harness (weighted Sobolev norms,
error tables, convergence-ratio studies) and a CLI experiment runner.
Each name is imported from its module, e.g. ``bousspec.model.SystemParams``.
"""

__version__ = "0.1.0"
