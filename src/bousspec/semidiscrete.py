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
and |c| B2, and a vector-field evaluation is matrix products only, on a
block of states (one row per run of a lockstep integration); boundary data
contributes one solved vector per distinct time (``boundary_rhs``).

The nodes are mirrored (x_{N-j} = -x_j), so with J the flip of the m = N-1
interior values, W and B commute with J while G and B2 change sign under
it: every solution operator A satisfies A = -J A J and maps even vectors
(J v = v) to odd ones and odd to even.  With half = ceil(m/2), v folds to
e = v_top + (J v)_top and o = v_top - (J v)_top (top: the first half
entries; o vanishes at a centre node), and A v is the odd vector with top
half A_oe e plus the even vector with top half A_eo o, two products of
half size (the even-odd decomposition: Solomonoff, J. Comput. Phys. 98
(1992) 174-177; Kopriva, Implementing Spectral Methods for PDEs, Springer
2009).  Assembly works in the folded form throughout: each distinct mass
matrix splits into an even and an odd half block, each half block is
factored once and solved against the folded G (and |c| B2), and the full
(N-1)^2 operators are never formed.  Of G, B and B2 only the top half
rows are formed, from blocks of D1 (the basis keeps no dense matrix), and
the mirror symmetry gives the rows below; each half block's mass block
and right-hand sides are folded from them into fresh buffers that
``linalg`` factors and solves in place.

The folded operators M_b^-1 G, M_d^-1 G and (when c != 0) -|c| M_d^-1 B2
are stacked in one array, ``AssembledSystem.ops``, whose shape alone
fixes which entries of a block of states feed which product
(``AssembledSystem._layout``).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .jacobi import JacobiBasis, d1_block, matmul_d1
from .model import BoundaryData, IntervalMap, SystemParams


@dataclass(frozen=True)
class AssembledSystem:
    """Solution operators of the coefficient ODE system, formed once.

    Every operator already carries the inverse mass matrix of its equation
    (M_b = W + b B for eta, M_d = W + d B for u), in physical scaling, and
    is held parity-folded in ``ops``, on a 64-byte boundary: (2, width,
    half) when b == d, one operator serving both equations, else (2, 2,
    width, half) for (eta, u).  Slice 0 of the first axis takes the even
    fold of a vector to the top half of the odd part of the result, slice
    1 the odd fold to the top half of the even part, both transposed for
    ``fold @ slice``.  Rows [:half] hold M^-1 G and act on the flux fold
    (u + eta*u, eta + u*u/2); when c != 0 (width = 2 half) rows [half:]
    hold -|c| M_d^-1 B2 and act on the eta fold, zero for the eta
    equation.  Immutable; reuse across the whole time integration.
    """

    basis: JacobiBasis
    ops: np.ndarray
    # solved boundary columns (left, right of each block), (N-1) rows:
    edge_eta: np.ndarray            # M_b^-1 [-b B | G], acts on (eta', u + eta*u)
    edge_u: np.ndarray              # M_d^-1 [-d B | G | -|c| B2], acts on (u', eta + u*u/2, eta)
    _layouts: dict = dataclasses.field(default_factory=dict, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.basis.n

    def _layout(self, rows: int):
        """(gather, scatter, fold shape, c != 0) of a block of ``rows``
        stacked states, made once per height from N and ``ops.shape``.

        The gather reads the flattened block (and, when c != 0, the zero
        appended after it) as (eta, u) x (top, mirror) x rows x width: each
        half of eta or u, followed when c != 0 by eta (the eta fold) and by
        that zero (u = 0, so the fluxes there are 0 and eta).  The folds of
        all rows then line up with (eta, u) x rows as the rows of one
        product per parity.  The scatter takes the unfolded (top, mirror) x
        (eta, u) x rows x half to a (rows, 2(N-1)) block; a centre node
        (odd N-1) is read back from its top copy.
        """
        found = self._layouts.get(rows)
        if found is None:
            m, (width, half) = self.n - 1, self.ops.shape[-2:]
            stiff = width > half
            top = np.arange(half)
            # (top, mirror) x rows x half indices of eta in the block
            eta = np.stack([top, m - 1 - top])[:, None] + 2 * m * np.arange(rows)[:, None]
            u = eta + m
            if stiff:
                eta = np.concatenate([eta, eta], axis=-1)
                u = np.concatenate([u, np.full_like(u, 2 * m * rows)], axis=-1)
            gather = np.stack([eta, u]).reshape(2, -1)
            eta_out = np.r_[top, 2 * rows * half + top[:m - half][::-1]]
            eta_out = eta_out + half * np.arange(rows)[:, None]
            scatter = np.hstack([eta_out, eta_out + rows * half])
            fold_shape = self.ops.shape[:-2] + (-1, width)
            found = self._layouts[rows] = (gather, scatter, fold_shape, stiff)
        return found


def _aligned_zeros(shape) -> np.ndarray:
    """A zeroed float64 array whose data starts on a 64-byte boundary.

    A fresh large array starts wherever the allocator puts it (with glibc,
    16 bytes past a page boundary); the batched product in ``rhs_eval``
    runs markedly slower on an operator that does not start on a cache
    line.
    """
    size = math.prod(shape)
    raw = np.zeros(size + 8)
    skip = -raw.ctypes.data % 64 // 8
    return raw[skip:skip + size].reshape(shape)


def _fold(x: np.ndarray, half: int, f: int, out: np.ndarray) -> np.ndarray:
    """X U_e (f = 0) or X U_o (f = 1) into ``out``, for an r x m block X,
    with U_e (U_o) the m x half (m x (m - half)) map from the top half of
    an even (odd) vector to the whole vector: a column plus its mirror (a
    centre column once) or a column minus its mirror."""
    pairs = x.shape[1] - half
    mirror = x[:, ::-1]
    if f:
        return np.subtract(x[:, :pairs], mirror[:, :pairs], out=out)
    np.add(x[:, :half], mirror[:, :half], out=out)
    if half > pairs:
        out[:, -1] *= 0.5
    return out


def _top_rows(basis: JacobiBasis, imap: IntervalMap, stiff: bool):
    """The interior weights, in physical scaling, and the top half rows of
    G, B = G D1 and (when ``stiff``) B2 = B D1, in reference scaling.

    In reference scaling G is the same (the weights scale by s, D1 and Psi
    by 1/s); B scales by 1/s and B2 by 1/s^2.  The rows of G are columns of
    D1 times the weights, and B and B2 come from products with D1 formed a
    block of columns at a time, so neither D1 nor D2 is ever formed whole.
    """
    n, mu = basis.n, basis.mu
    half = n // 2
    w = basis.weights
    edge = [0, n]
    # G = (D1[:, 1:N] - Psi)^T K: Psi is diagonal on the interior rows, and
    # its end rows are -mu times D1's, so D1 - Psi has the end rows
    # (1 + mu) D1, formed directly: the difference cancels as mu -> -1
    cols = d1_block(basis, cols=slice(1, half + 1))
    g = cols.T * w
    g[:, edge] = ((1.0 + mu) * cols[edge]).T * w[edge]
    j = np.arange(1, half + 1)
    xj = basis.nodes[j]
    g[j - 1, j] = (basis.d1_diag[j] - 2.0 * xj * mu / (1.0 - xj * xj)) * w[j]
    del cols                # freed before the products
    b = matmul_d1(g, basis)
    return imap.scale * w[1:n], g, b, matmul_d1(b, basis) if stiff else None


def assemble(basis: JacobiBasis, params: SystemParams, imap: IntervalMap) -> AssembledSystem:
    """Build the folded G-NI blocks and solve the folded mass systems.

    The eta-equation mass uses coefficient b, the u-equation mass uses d;
    with b == d one pair of half-size factorizations and solves serves both
    equations.  Only the top half rows of G, B and B2 are formed
    (``_top_rows``); each half block's mass block and right-hand sides are
    folded from them into fresh buffers, which ``linalg`` factors and
    solves in place, and are freed before the next half block.
    """
    n = basis.n
    m = n - 1
    half = n // 2                   # ceil(m / 2)
    pairs = m - half
    p = params
    absc = abs(p.c)
    s = imap.scale
    w, g, b, b2 = _top_rows(basis, imap, absc > 0.0)
    interior, edge = slice(1, n), [0, n]
    # the edge columns' top rows, and the rows of their mirror images (row
    # m-1-k of a column is row k of the other end's column): B is even
    # under the flip of rows and columns, G and B2 = B D1 are odd
    mass_edge = b[:, edge] / s
    grad_edge = g[:, edge]
    third_edge = b2[:, edge] / (s * s) if absc else np.zeros((half, 2))

    def solve_folded(coeff: float, out: np.ndarray, edge_top: np.ndarray,
                     edge_mirror: np.ndarray) -> np.ndarray:
        """Fold M^-1 G (and -|c| M^-1 B2 when ``out`` has room) into ``out``
        for the mass matrix M = W + coeff B, from its even and odd half
        blocks; return the dense M^-1 of the edge columns, whose top rows
        are ``edge_top`` and mirror rows ``edge_mirror``."""
        blocks = out.shape[1] // half
        # each source row block, the divisor of its reference scaling, its factor
        sources = ((g, 1.0, 0.5), (b2, s * s, -0.5 * absc))[:blocks]

        def solve_half(f: int, size: int, width: int, sign: float) -> np.ndarray:
            # images of even folds (f = 0, width half) are odd, rows [:pairs],
            # and of odd folds (f = 1, width pairs) even, rows [:half]; the
            # block is (M U_o)[:pairs] or (M U_e)[:half].  A fold counts each
            # mirror pair twice, hence the 1/2.  Returns the edge columns.
            block = _fold(b[:size, interior], half, 1 - f, np.empty((size, size)))
            block /= s
            block *= coeff
            block[np.diag_indices(size)] += w[:size]
            rhs = np.empty((size, blocks * width + edge_top.shape[1]))
            for k, (src, div, c) in enumerate(sources):
                cell = _fold(src[:size, interior], half, f, rhs[:, k * width:(k + 1) * width])
                cell /= div
                cell *= c
            rhs[:, blocks * width:] = 0.5 * (edge_top[:size] + sign * edge_mirror[:size])
            x = linalg.lu_solve(linalg.lu_factor(block), rhs)
            for k in range(blocks):
                out[f, k * half:k * half + width, :size] = x[:, k * width:(k + 1) * width].T
            return x[:, blocks * width:].copy()

        # one half block at a time, so one set of its buffers is alive
        edge_odd = solve_half(0, pairs, half, -1.0)
        edge_even = solve_half(1, half, pairs, 1.0)
        solved = np.empty((m, edge_top.shape[1]))
        solved[:half] = edge_even
        solved[:pairs] += edge_odd
        solved[::-1][:pairs] = edge_even[:pairs] - edge_odd
        return solved

    def edge_rows(coeff: float, third: bool):
        parts = [(-coeff * mass_edge, 1.0), (grad_edge, -1.0)]
        if third:
            parts.append((-absc * third_edge, -1.0))
        return (np.hstack([e for e, _ in parts]),
                np.hstack([sign * e[:, ::-1] for e, sign in parts]))

    width = 2 * half if absc else half
    if p.b == p.d:
        ops = _aligned_zeros((2, width, half))
        edge_u = solve_folded(p.d, ops, *edge_rows(p.d, True))
        edge_eta = edge_u[:, :4]
    else:
        ops = _aligned_zeros((2, 2, width, half))
        edge_u = solve_folded(p.d, ops[:, 1], *edge_rows(p.d, True))
        edge_eta = solve_folded(p.b, ops[:, 0, :half], *edge_rows(p.b, False))
    return AssembledSystem(basis=basis, ops=ops, edge_eta=edge_eta, edge_u=edge_u)


def boundary_rhs(sys: AssembledSystem, edges: np.ndarray) -> np.ndarray:
    """Solved boundary-data contribution to (eta', u') at one time.

    ``edges`` is ``BoundaryData.at(t)``: rows eta, u, eta_t, u_t, columns
    left and right.  Collects, per equation: the mixed-derivative mass
    columns against the boundary time derivatives, the gradient-test columns
    against the edge fluxes u + eta*u and eta + u^2/2, and the weak
    third-derivative columns against eta (u equation only).
    """
    eta, u, deta, du = edges
    edge_eta = np.concatenate([deta, u + eta * u])
    edge_u = np.concatenate([du, eta + 0.5 * u * u, eta])
    return np.concatenate([sys.edge_eta @ edge_eta, sys.edge_u @ edge_u])


#: per-equation factors of the flux rows (u + eta*u, eta + u*u/2)
_FLUX_SCALE = np.array([[1.0], [0.5]])
#: (top, mirror) -> (top + mirror, top - mirror) and (odd, even) -> (even + odd, even - odd)
_FOLD = np.array([[1.0, 1.0], [1.0, -1.0]])
_UNFOLD = np.array([[1.0, 1.0], [-1.0, 1.0]])
_ZERO = np.zeros(1)


def rhs_eval(sys: AssembledSystem, t: np.ndarray, y: np.ndarray,
             boundary: np.ndarray) -> np.ndarray:
    """Semidiscrete vector field (eta'(t), u'(t)) on a block: row r of y is a
    stacked interior vector at time t[r, 0], and ``boundary`` holds the
    solved boundary contribution of each row (or one row for all).

    The block is gathered into the top halves of eta and u and their mirror
    images, the fluxes are formed there (each half followed by eta, for the
    stiffness block, when c != 0) and folded to top + mirror and
    top - mirror; the folded operators map the folds of all rows to the top
    halves of the odd and even parts of the field in one product per parity
    (per parity and equation when b != d), which unfold to even + odd and
    even - odd and scatter back.  A block of one row takes the same array
    operations as one state.
    """
    gather, scatter, fold_shape, stiff = sys._layout(len(y))
    if stiff:
        y = np.concatenate((y, _ZERO), axis=None)      # u = 0 in the slots that carry eta
    sides = y.take(gather)                      # (eta, u) x (top, mirror) x rows halves
    flux = sides * _FLUX_SCALE
    flux *= sides[1]
    flux += sides[::-1]                         # u + eta*u, eta + u*u/2
    folds = (_FOLD @ flux.reshape(2, 2, -1)).transpose(1, 0, 2)    # (even, odd) x (eta, u)
    parts = (folds.reshape(fold_shape) @ sys.ops).reshape(2, -1)
    dy = (_UNFOLD @ parts).take(scatter)
    dy += boundary
    # the sum of squares is finite unless an entry is not (or it overflows)
    if not math.isfinite(np.vdot(dy, dy)) and not np.isfinite(dy).all():
        bad = ~np.isfinite(dy).all(axis=1)
        raise FloatingPointError(
            f"semidiscrete vector field produced non-finite values at t={t[bad, 0].tolist()}"
        )
    return dy


def initial_state(basis: JacobiBasis, imap: IntervalMap, eta_init, u_init) -> np.ndarray:
    """Collocate the initial data at the mapped interior quadrature nodes,
    stacked as y = (eta_1..eta_{N-1}, u_1..u_{N-1})."""
    x = imap.to_physical(basis.nodes)
    eta = np.asarray(eta_init(x), dtype=float)
    u = np.asarray(u_init(x), dtype=float)
    return np.concatenate([eta[1:-1], u[1:-1]])


def nodal_values(y: np.ndarray, edges: np.ndarray):
    """(eta, u) on all N+1 nodes from the stacked interior vector y and the
    boundary values ``edges`` (``BoundaryData.at(t)``; rows eta, u first)."""
    full = np.empty((2, y.size // 2 + 2))
    full[:, 1:-1] = y.reshape(2, -1)
    full[:, [0, -1]] = edges[:2]
    return full[0], full[1]


def make_vector_field(sys: AssembledSystem, bdata: BoundaryData):
    """Wrap the assembled system as the block field F(t, y): y a (rows,
    2(N-1)) block of stacked interior vectors, t the (rows, 1) column of
    their times.

    Steady boundary data is solved once here.  Time-dependent data is solved
    once per distinct time of a call; a time the previous call also had
    keeps its solved vector, so the fixed-point iterations of a stage, which
    share their time, solve each row's stage time once.
    """
    if bdata.steady:
        # one row: adding a same-shape row to a one-row block is the fast path
        boundary = boundary_rhs(sys, bdata.at(0.0))[None]

        def field(t: np.ndarray, y: np.ndarray) -> np.ndarray:
            return rhs_eval(sys, t, y, boundary)

        return field

    cached = [[], None, {}]     # last times, their boundary rows, time -> solved vector

    def field(t: np.ndarray, y: np.ndarray) -> np.ndarray:
        times = t.ravel().tolist()
        if times != cached[0]:
            known = cached[2]
            solved = {s: known[s] if s in known else boundary_rhs(sys, bdata.at(s))
                      for s in dict.fromkeys(times)}
            cached[:] = times, np.array([solved[s] for s in times]), solved
        return rhs_eval(sys, t, y, cached[1])

    return field
