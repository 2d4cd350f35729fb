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
solved against the folded G (and |c| B2), and the full (N-1)^2 operators
are never formed.  Of G, B and B2 only the top half
rows are formed, from blocks of D1 (the basis keeps no dense matrix), and
the mirror symmetry gives the rows below.  The folded right-hand sides go
straight into their slots of the operator stack, each source is freed
once folded, and each slot is solved in place by one LAPACK call per
source block (``linalg``).

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

        The gather reads the flattened block as (eta, u) x (top, mirror) x
        rows x width: each half of eta or u, followed when c != 0 by eta (the
        eta fold) and by u again, which the caller zeroes (u = 0, so the
        fluxes there are 0 and eta).  The folds of all rows then line up with
        (eta, u) x rows as the rows of one product per parity.  The scatter
        takes the unfolded (top, mirror) x (eta, u) x rows x half to a (rows,
        2(N-1)) block; a centre node (odd N-1) is read back from its top copy.
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
                eta, u = (np.concatenate([a, a], axis=-1) for a in (eta, u))
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
    """U_e^T X (f = 0) or U_o^T X (f = 1) into ``out``, for an m x r block X,
    with U_e (U_o) the m x half (m x (m - half)) map from the top half of
    an even (odd) vector to the whole vector: a row plus its mirror (a
    centre row once) or a row minus its mirror.  The callers fold the
    columns of a row block by passing its transpose, so that ``out`` is
    written row by row."""
    pairs = len(x) - half
    mirror = x[::-1]
    if f:
        return np.subtract(x[:pairs], mirror[:pairs], out=out)
    np.add(x[:half], mirror[:half], out=out)
    if half > pairs:
        out[-1] *= 0.5
    return out


def _top_rows(basis: JacobiBasis, imap: IntervalMap):
    """The interior weights, in physical scaling, and the top half rows of
    G and B = G D1, in reference scaling.

    In reference scaling G is the same (the weights scale by s, D1 and Psi
    by 1/s); B scales by 1/s (and B2 = B D1 by 1/s^2).  The rows of G are
    columns of D1 times the weights, and B comes from a product with D1
    formed a block of columns at a time, so D1 is never formed whole.
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
    del cols                # freed before the product
    return imap.scale * w[1:n], g, matmul_d1(g, basis)


def assemble(basis: JacobiBasis, params: SystemParams, imap: IntervalMap) -> AssembledSystem:
    """Build the folded G-NI blocks and solve the folded mass systems.

    The eta-equation mass uses coefficient b, the u-equation mass uses d;
    with b == d one pair of half blocks serves both equations.  Each piece
    of the set-up lives only as long as it is needed: the folds of G's top
    half rows (``_top_rows``) go straight into their slots of ``ops`` and G
    is freed; B2 = B D1 is formed only then, folded and freed; B is freed
    once the last mass block is folded from it.  Each slot is solved in
    place, one LAPACK call per source block of a half block (``linalg``),
    and the edge columns of a half block by one more.
    """
    n = basis.n
    m = n - 1
    half = n // 2                   # ceil(m / 2)
    pairs = m - half
    p = params
    absc = abs(p.c)
    s = imap.scale
    w, g, b = _top_rows(basis, imap)
    interior, edge = slice(1, n), [0, n]
    width = 2 * half if absc else half
    # per equation, u first: its mass coefficient and its operators
    if p.b == p.d:
        ops = _aligned_zeros((2, width, half))
        eqs = [(p.d, ops)]
    else:
        ops = _aligned_zeros((2, 2, width, half))
        eqs = [(p.d, ops[:, 1]), (p.b, ops[:, 0, :half])]
    sizes = (pairs, half)

    def slot(out: np.ndarray, k: int, f: int) -> np.ndarray:
        """Source block k's (0: G, 1: B2) part of an equation's operators
        for the folds of parity f, as stored: a row per fold, a column per
        row of its image.  Images of even folds (f = 0, half of them) are
        odd, with rows [:pairs], and of odd folds (f = 1, pairs of them)
        even, with rows [:half]."""
        return out[f, k * half:k * half + sizes[1 - f], :sizes[f]]

    def fold_source(src: np.ndarray, k: int, div: float, c: float, outs) -> None:
        # the divisor of the source's reference scaling, and its factor: a
        # fold counts each mirror pair twice, hence the 1/2 in c
        for out in outs:
            for f in (0, 1):
                cell = _fold(src[:sizes[f], interior].T, half, f, slot(out, k, f))
                cell /= div
                cell *= c

    # the edge columns' top rows, and the rows of their mirror images (row
    # m-1-k of a column is row k of the other end's column): B is even
    # under the flip of rows and columns, G and B2 = B D1 are odd
    mass_edge = b[:, edge] / s
    grad_edge = g[:, edge]
    fold_source(g, 0, 1.0, 0.5, [out for _, out in eqs])
    del g
    if absc:
        b2 = matmul_d1(b, basis)
        third_edge = b2[:, edge] / (s * s)
        fold_source(b2, 1, s * s, -0.5 * absc, [eqs[0][1]])
        del b2
    else:
        third_edge = np.zeros((half, 2))

    def edge_rows(coeff: float, third: bool):
        parts = [(-coeff * mass_edge, 1.0), (grad_edge, -1.0)]
        if third:
            parts.append((-absc * third_edge, -1.0))
        return (np.hstack([e for e, _ in parts]),
                np.hstack([sign * e[:, ::-1] for e, sign in parts]))

    solved = []
    for i, (coeff, out) in enumerate(eqs):
        edge_top, edge_mirror = edge_rows(coeff, i == 0)
        halves = []
        for f, size in enumerate(sizes):
            # (M U_o)[:pairs] (f = 0) or (M U_e)[:half] (f = 1), formed a row
            # of its transpose at a time: LAPACK reads it without transposing
            block = _fold(b[:size, interior].T, half, 1 - f, np.empty((size, size))).T
            if f and i == len(eqs) - 1:
                del b
            block /= s
            block *= coeff
            block[np.diag_indices(size)] += w[:size]
            block = linalg.lu_factor(block)
            for k in range(out.shape[1] // half):
                cell = slot(out, k, f)
                cell[...] = linalg.lu_solve(block, cell.T).T
            sign = 1.0 if f else -1.0
            halves.append(linalg.lu_solve(block, 0.5 * (edge_top[:size] + sign * edge_mirror[:size])))
        edge_odd, edge_even = halves
        full = np.empty((m, edge_top.shape[1]))
        full[:half] = edge_even
        full[:pairs] += edge_odd
        full[::-1][:pairs] = edge_even[:pairs] - edge_odd
        solved.append(full)
    edge_u = solved[0]
    edge_eta = solved[-1] if p.b != p.d else edge_u[:, :4]
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


def rhs_eval(sys: AssembledSystem, y: np.ndarray, boundary: np.ndarray) -> np.ndarray:
    """Semidiscrete vector field (eta', u') on a block: row r of y is a
    stacked interior vector, and ``boundary`` holds the solved boundary
    contribution of each row at its time (or one row for all).

    The block is gathered into the top halves of eta and u and their mirror
    images, the fluxes are formed there (each half followed by eta, for the
    stiffness block, when c != 0) and folded to top + mirror and
    top - mirror; the folded operators map the folds of all rows to the top
    halves of the odd and even parts of the field in one product per parity
    (per parity and equation when b != d), which unfold to even + odd and
    even - odd and scatter back.  A block of one row takes the same array
    operations as one state.  Nothing is checked: ``timestep.integrate``
    reports a non-finite stage.
    """
    gather, scatter, fold_shape, stiff = sys._layout(len(y))
    sides = y.take(gather)                      # (eta, u) x (top, mirror) x rows halves
    if stiff:                                   # u = 0 in the slots that carry eta
        sides[1].reshape(-1, fold_shape[-1])[:, fold_shape[-1] // 2:] = 0.0
    flux = sides * _FLUX_SCALE
    flux *= sides[1]
    flux += sides[::-1]                         # u + eta*u, eta + u*u/2
    folds = (_FOLD @ flux.reshape(2, 2, -1)).transpose(1, 0, 2)    # (even, odd) x (eta, u)
    parts = (folds.reshape(fold_shape) @ sys.ops).reshape(2, -1)
    dy = (_UNFOLD @ parts).take(scatter)
    dy += boundary
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
    their times, which selects the boundary data of each row.

    Steady boundary data is solved once here.  Time-dependent data is solved
    once per distinct time of a call; a time the previous call also had
    keeps its solved vector, so the fixed-point iterations of a stage, which
    share their time, solve each row's stage time once.
    """
    if bdata.steady:
        # one row: adding a same-shape row to a one-row block is the fast path
        boundary = boundary_rhs(sys, bdata.at(0.0))[None]
        return lambda t, y: rhs_eval(sys, y, boundary)

    cached = [[], None, {}]     # last times, their boundary rows, time -> solved vector

    def field(t: np.ndarray, y: np.ndarray) -> np.ndarray:
        times = t.ravel().tolist()
        if times != cached[0]:
            known = cached[2]
            solved = {s: known[s] if s in known else boundary_rhs(sys, bdata.at(s))
                      for s in dict.fromkeys(times)}
            cached[:] = times, np.array([solved[s] for s in times]), solved
        return rhs_eval(sys, y, cached[1])

    return field
