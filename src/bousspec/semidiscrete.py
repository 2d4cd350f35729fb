"""G-NI assembly of the coefficient ODE system and its vector field.

The unknowns are the interior nodal values eta_1..eta_{N-1}, u_1..u_{N-1};
boundary values are Dirichlet data and enter the right-hand side.  With K
the diagonal of quadrature weights, D1/D2 the nodal differentiation
matrices and Psi the auxiliary matrix (all in physical scaling), the test
matrix against interior basis functions is

    G = (D1[:, 1:N] - Psi)^T K,

and the weak second/third derivative blocks are B = G @ D1, B2 = G @ D2,
where the row sums run over ALL quadrature nodes including the endpoints
(the integrals reduce exactly to those full sums after one integration by
parts).  The system reads

    (W + b B) eta' = -(K D1) u - (coupling from boundary data) + G (eta.u)
    (W + d B) u'   = -(K D1 + |c| B2) eta + G (u.u/2) + (boundary data),

with W the interior weight diagonal.  The Lobatto rule integrates
u' psi_i w exactly, so the advection rows satisfy (K D1)[1:N, :] = -G
(summation by parts, for every mu) and both equations are in flux form:

    (W + b B) eta' = G (u + eta.u) - b B[:, (0, N)] eta'_edge
    (W + d B) u'   = G (eta + u.u/2) - |c| B2 eta - d B[:, (0, N)] u'_edge.

The mass matrices are constant, so assembly solves them once against G
(one factorization and one matrix solve per distinct mass coefficient) and
derives every other block from that solve: M^-1 B = (M^-1 G) D1 and
M^-1 B2 = (M^-1 G) D2.  A vector-field evaluation is then matrix-vector
products only; boundary data contributes one solved vector per distinct
time (``boundary_rhs``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .jacobi import JacobiBasis
from .model import BoundaryData, IntervalMap, SystemParams


@dataclass(frozen=True)
class BoundaryValues:
    """Snapshot of the Dirichlet data and its time derivatives at one time."""

    eta_left: float = 0.0
    eta_right: float = 0.0
    u_left: float = 0.0
    u_right: float = 0.0
    deta_left: float = 0.0
    deta_right: float = 0.0
    du_left: float = 0.0
    du_right: float = 0.0

    @staticmethod
    def at_time(data: BoundaryData, t: float) -> "BoundaryValues":
        return BoundaryValues(
            eta_left=float(data.eta_left(t)),
            eta_right=float(data.eta_right(t)),
            u_left=float(data.u_left(t)),
            u_right=float(data.u_right(t)),
            deta_left=float(data.deta_left(t)),
            deta_right=float(data.deta_right(t)),
            du_left=float(data.du_left(t)),
            du_right=float(data.du_right(t)),
        )


@dataclass(frozen=True)
class State:
    """Interior nodal coefficients at time t plus the boundary snapshot."""

    eta: np.ndarray
    u: np.ndarray
    t: float
    bc: BoundaryValues

    def with_vector(self, y: np.ndarray, t: float, bc: BoundaryValues) -> "State":
        m = self.eta.size
        return State(eta=y[:m], u=y[m:], t=t, bc=bc)

    @property
    def vector(self) -> np.ndarray:
        return np.concatenate([self.eta, self.u])

    def eta_full(self) -> np.ndarray:
        return np.concatenate([[self.bc.eta_left], self.eta, [self.bc.eta_right]])

    def u_full(self) -> np.ndarray:
        return np.concatenate([[self.bc.u_left], self.u, [self.bc.u_right]])


@dataclass(frozen=True)
class AssembledSystem:
    """Solution operators of the coefficient ODE system, formed once.

    Every operator already carries the inverse mass matrix of its equation
    (M_b = W + b B for eta, M_d = W + d B for u), in physical scaling.
    With b == d both equations share one operator object (``op_u is
    op_eta``).  Immutable; reuse across the whole time integration.
    """

    basis: JacobiBasis
    params: SystemParams
    imap: IntervalMap
    # interior operators, (N-1) x (N-1):
    op_eta: np.ndarray              # M_b^-1 G, acts on the flux u + eta*u
    op_u: np.ndarray                # M_d^-1 G, acts on the flux eta + u*u/2
    stiff_u: np.ndarray | None      # |c| M_d^-1 B2, acts on eta; None when c == 0
    # solved boundary columns (left, right of each block):
    edge_eta: np.ndarray            # M_b^-1 [-b B | G], acts on (eta', u + eta*u)
    edge_u: np.ndarray              # M_d^-1 [-d B | G | -|c| B2], acts on (u', eta + u*u/2, eta)

    @property
    def n(self) -> int:
        return self.basis.n


def _physical_blocks(basis: JacobiBasis, imap: IntervalMap):
    s = imap.scale
    w = s * basis.weights
    d1 = basis.d1 / s
    d2 = basis.d2 / (s * s)
    psi = basis.psi / s
    return w, d1, d2, psi


def assemble(basis: JacobiBasis, params: SystemParams, imap: IntervalMap) -> AssembledSystem:
    """Build the G-NI blocks and solve the mass systems against them.

    The eta-equation mass uses coefficient b, the u-equation mass uses d;
    with b == d one factorization and one solve serve both equations.
    """
    n = basis.n
    w, d1, d2, psi = _physical_blocks(basis, imap)
    interior = slice(1, n)
    edge = [0, n]

    gfull = (d1[:, interior] - psi).T * w[None, :]      # G, (N-1, N+1)
    mass_int = gfull @ d1[:, interior]                  # B[:, 1:N]
    w_diag = np.diag(w[interior])

    def solve_grad(coeff: float) -> np.ndarray:
        """M^-1 G for the mass matrix W + coeff B."""
        return linalg.lu_solve(linalg.lu_factor(w_diag + coeff * mass_int), gfull)

    p = params
    absc = abs(p.c)
    grad_b = solve_grad(p.b)
    grad_d = grad_b if p.d == p.b else solve_grad(p.d)
    op_eta = np.ascontiguousarray(grad_b[:, interior])
    op_u = op_eta if grad_d is grad_b else np.ascontiguousarray(grad_d[:, interior])
    stiff_u = absc * (grad_d @ d2[:, interior]) if absc else None
    return AssembledSystem(
        basis=basis,
        params=params,
        imap=imap,
        op_eta=op_eta,
        op_u=op_u,
        stiff_u=stiff_u,
        edge_eta=np.hstack([-p.b * (grad_b @ d1[:, edge]), grad_b[:, edge]]),
        edge_u=np.hstack([
            -p.d * (grad_d @ d1[:, edge]), grad_d[:, edge], -absc * (grad_d @ d2[:, edge]),
        ]),
    )


def boundary_rhs(sys: AssembledSystem, bc: BoundaryValues) -> np.ndarray:
    """Solved boundary-data contribution to (eta', u') at one time.

    Collects, per equation: the mixed-derivative mass columns against the
    boundary time derivatives, the gradient-test columns against the edge
    fluxes u + eta*u and eta + u^2/2, and the weak third-derivative columns
    against eta (u equation only).
    """
    eta_l, eta_r, u_l, u_r = bc.eta_left, bc.eta_right, bc.u_left, bc.u_right
    edge_eta = np.array(
        [bc.deta_left, bc.deta_right, u_l + eta_l * u_l, u_r + eta_r * u_r]
    )
    edge_u = np.array(
        [bc.du_left, bc.du_right, eta_l + 0.5 * u_l * u_l, eta_r + 0.5 * u_r * u_r,
         eta_l, eta_r]
    )
    return np.concatenate([sys.edge_eta @ edge_eta, sys.edge_u @ edge_u])


def rhs_eval(sys: AssembledSystem, t: float, y: np.ndarray,
             boundary: np.ndarray) -> np.ndarray:
    """Semidiscrete vector field (eta'(t), u'(t)) on the stacked interior
    vector y, given the solved boundary contribution at t."""
    m = y.size // 2
    eta, u = y[:m], y[m:]
    flux = np.empty((2, m))
    np.multiply(eta, u, out=flux[0])
    flux[0] += u
    np.multiply(0.5 * u, u, out=flux[1])
    flux[1] += eta
    if sys.op_u is sys.op_eta:
        # one pass over the shared operator for both equations
        dy = (flux @ sys.op_eta.T).ravel()
    else:
        dy = np.concatenate([sys.op_eta @ flux[0], sys.op_u @ flux[1]])
    if sys.stiff_u is not None:
        dy[m:] -= sys.stiff_u @ eta
    dy += boundary
    if not np.all(np.isfinite(dy)):
        raise FloatingPointError(
            f"semidiscrete vector field produced non-finite values at t={t}"
        )
    return dy


def initial_state(basis: JacobiBasis, imap: IntervalMap, eta_init, u_init,
                  bdata: BoundaryData) -> State:
    """Collocate the initial data at the mapped quadrature nodes."""
    x = imap.to_physical(basis.nodes)
    eta = np.asarray(eta_init(x), dtype=float)
    u = np.asarray(u_init(x), dtype=float)
    return State(
        eta=eta[1:-1].copy(),
        u=u[1:-1].copy(),
        t=0.0,
        bc=BoundaryValues.at_time(bdata, 0.0),
    )


def make_vector_field(sys: AssembledSystem, bdata: BoundaryData):
    """Wrap the assembled system as F(t, y) on the stacked interior vector.

    Steady boundary data is solved once here; time-dependent data once per
    distinct t (the fixed-point iterations of a stage share their time).
    """
    if bdata.steady:
        boundary = boundary_rhs(sys, BoundaryValues.at_time(bdata, 0.0))

        def field(t: float, y: np.ndarray) -> np.ndarray:
            return rhs_eval(sys, t, y, boundary)

        return field

    cached = [None, None]   # last time, its boundary contribution

    def field(t: float, y: np.ndarray) -> np.ndarray:
        if cached[0] != t:
            cached[1] = boundary_rhs(sys, BoundaryValues.at_time(bdata, t))
            cached[0] = t
        return rhs_eval(sys, t, y, cached[1])

    return field
