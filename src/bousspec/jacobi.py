"""Symmetric-weight Jacobi polynomials, Gauss-Lobatto quadrature, nodal bases.

Everything here lives on the reference interval [-1, 1] with the even weight
w(x) = (1 - x^2)^mu, -1 < mu < 1 (mu = 0: Legendre, mu = -1/2: Chebyshev).
The quadrature nodes are -1, 1 and the zeros of the derivative of the
degree-N Jacobi polynomial; the rule is exact on polynomials of degree
<= 2N - 1 against w.  A ``JacobiBasis`` bundles that rule with its
barycentric weights and the diagonal of the Lagrange (nodal)
differentiation matrix D1, O(N) data in all.  Products with D1 form it one
row or column block at a time (``d1_matmul``, ``matmul_d1``); the dense D1,
the second-derivative matrix and the auxiliary matrix produced by
differentiating the weight inside weak forms are formed on request.

Normalization of the polynomials is the standard one (J_n(1) = C(n+mu, n));
none of the nodal quantities depend on it because they only involve ratios
of J_N and its derivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

_NODE_TOL = 1e-14          # Newton stopping tolerance for node search
_NODE_MAX_ITERS = 100
_WEIGHT_VERIFY_TOL = 1e-9  # moment-oracle gate on the computed weights
_HIT_TOL = 1e-12           # points this close to a node take its unit row
_BLOCK_ENTRIES = 1 << 16   # entries of one interpolation or D1 block (at least one row)


class QuadratureError(RuntimeError):
    """Node search or weight verification failed; indicates an internal bug."""


def validate_mu(mu: float) -> float:
    """Check -1 < mu < 1 (weight integrability) and return mu as float."""
    mu = float(mu)
    if not -1.0 < mu < 1.0:
        raise ValueError(f"weight exponent must satisfy -1 < mu < 1, got {mu}")
    return mu


def _moment(e: float, k: int) -> float:
    """Integral of x^k (1-x^2)^e over [-1, 1] for e > -1: zero for odd k,
    else the Beta value B(k/2 + 1/2, e + 1), via log-Gamma."""
    if k % 2 == 1:
        return 0.0
    m = k // 2
    return math.exp(math.lgamma(m + 0.5) + math.lgamma(e + 1.0) - math.lgamma(m + e + 1.5))


def weight_moment(mu: float, k: int) -> float:
    """Exact value of the k-th monomial moment of the weight.

    Integrates x^k (1-x^2)^mu over [-1, 1]: zero for odd k; for k = 2m the
    Beta value B(m + 1/2, mu + 1), computed via log-Gamma.
    """
    mu = validate_mu(mu)
    k = int(k)
    if k < 0:
        raise ValueError("moment order must be nonnegative")
    return _moment(mu, k)


def _sym_jacobi_pair(a: float, n: int, x):
    """(J_n, J_{n-1}) of parameter (a, a) at x, n >= 1, by the three-term
    recurrence in the standard normalization."""
    x = np.asarray(x, dtype=float)
    # the coefficients in j = k - 2 and a + 1, so none cancels as a -> -1
    ap1 = a + 1.0
    prev, cur = np.ones_like(x), ap1 * x
    for j in range(n - 1):
        s = 2.0 * (j + 1.0 + ap1)
        c1 = 2.0 * (j + 2.0) * (j + 2.0 * ap1) * (2.0 * (j + ap1))
        c2 = (2.0 * j + 1.0 + 2.0 * ap1) * s * (2.0 * (j + ap1))
        c3 = 2.0 * (j + ap1) ** 2 * s
        prev, cur = cur, (c2 * x * cur - c3 * prev) / c1
    return cur, prev


def _sym_jacobi(a: float, n: int, x):
    """J_n^(a,a)(x) in the standard normalization, by the three-term recurrence."""
    if n == 0:
        return np.ones_like(np.asarray(x, dtype=float))
    return _sym_jacobi_pair(a, n, x)[0]


def _check_x(x):
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) > 1.0 + 1e-12):
        raise ValueError("evaluation point outside [-1, 1]")
    return x


def jacobi_eval(mu: float, n: int, x):
    """Evaluate J_n(x) for the symmetric weight exponent mu (scalar or array x)."""
    mu = validate_mu(mu)
    if n < 0:
        raise ValueError("polynomial degree must be nonnegative")
    x = _check_x(x)
    out = _sym_jacobi(mu, n, x)
    return out if out.shape else float(out)


def jacobi_deriv(mu: float, n: int, x, order: int = 1):
    """First or second derivative of J_n, same normalization as jacobi_eval.

    Uses the parameter-raising identity d/dx J_n^(a,a) = (n + 2a + 1)/2 *
    J_{n-1}^(a+1,a+1), applied once or twice.
    """
    mu = validate_mu(mu)
    x = _check_x(x)
    if order == 1:
        if n < 1:
            raise ValueError("order-1 derivative needs degree n >= 1")
        out = 0.5 * (n + 2.0 * mu + 1.0) * _sym_jacobi(mu + 1.0, n - 1, x)
    elif order == 2:
        if n < 2:
            raise ValueError("order-2 derivative needs degree n >= 2")
        c = 0.25 * (n + 2.0 * mu + 1.0) * (n + 2.0 * mu + 2.0)
        out = c * _sym_jacobi(mu + 2.0, n - 2, x)
    else:
        raise ValueError("order must be 1 or 2")
    return out if out.shape else float(out)


def glj_nodes(mu: float, n: int) -> np.ndarray:
    """Gauss-Lobatto-Jacobi nodes: -1, 1 and the n-1 interior zeros of J_n'.

    Newton iteration from the leading asymptotic term for the zeros of
    J_{n-1}^(a,a), a = mu + 1 (the initial guess of Hale & Townsend, SIAM J.
    Sci. Comput. 35 (2013) A652-A674); for mu = -1/2 the guesses are the
    Chebyshev-Lobatto nodes cos(pi j / n) themselves.  A run that hits the
    iteration cap or ends on nodes that are not strictly increasing raises.
    The returned array is strictly increasing and exactly antisymmetric.
    """
    mu = validate_mu(mu)
    if n < 2:
        raise ValueError("need degree n >= 2")

    # Newton on z = J_{n-1}^(a,a) (J_n' up to a constant), with z' from the
    # same recurrence pass: (1 - x^2) z' = -(n-1) x z + (n-1+a) z_prev
    a = mu + 1.0
    x = np.cos((np.arange(n - 1, 0, -1) + 0.5 * a - 0.25) * np.pi / (n - 0.5 + a))
    for _ in range(_NODE_MAX_ITERS):
        z, z_prev = _sym_jacobi_pair(a, n - 1, x)
        dx = (1.0 - x * x) * z / (-(n - 1) * x * z + (n - 1 + a) * z_prev)
        x -= dx
        if np.max(np.abs(dx)) < _NODE_TOL:
            break
    else:
        raise QuadratureError(
            f"node search hit the {_NODE_MAX_ITERS}-step cap for mu={mu}, n={n}")
    if np.any(np.diff(x) <= 0.0):
        raise QuadratureError(f"node search gave unordered nodes for mu={mu}, n={n}")

    x = 0.5 * (x - x[::-1])  # even weight: enforce exact antisymmetry
    resid = np.abs(jacobi_deriv(mu, n, x, 1))
    scale = np.maximum(1.0, np.abs(jacobi_deriv(mu, n, x, 2)))
    if np.any(resid > 1e-13 * scale):
        raise QuadratureError(f"node residual too large for mu={mu}, n={n}")
    return np.concatenate(([-1.0], x, [1.0]))


def _moment_error(mu: float, nodes: np.ndarray, weights: np.ndarray) -> float:
    """Largest relative moment error of a Lobatto rule for the weight exponent mu.

    Two families: sum_j w_j x_j^k against the weight's moments for k <= 2N-1,
    and the interior moments sum_j w_j (1 - x_j^2) x_j^k against those of the
    exponent mu + 1 for k <= 2N-3.  The end weights, about 1/(2(1 + mu))
    each, carry every moment of the first family as mu -> -1, so it cannot
    see an interior error below about (1 + mu) times the gate; (1 - x^2)
    vanishes at the ends, so the second family sees the interior weights
    alone.  An odd moment (zero) is measured against the even one below it.
    The even moments come from m_{2j+2} = m_{2j} (j + 1/2) / (j + e + 3/2).
    """
    n = nodes.size - 1
    both = np.stack([weights, weights * (1.0 - nodes * nodes)])
    sums = np.empty((2 * n, 2))
    p = np.ones_like(nodes)
    for k in range(2 * n):
        sums[k] = both @ p
        p *= nodes
    j = np.arange(n - 1)
    worst = 0.0
    for col, e, top in ((0, mu, 2 * n), (1, mu + 1.0, 2 * n - 2)):
        even = _moment(e, 0) * np.cumprod(np.r_[1.0, (j + 0.5) / (j + e + 1.5)])[:top // 2]
        worst = max(worst, np.max(np.abs(sums[0:top:2, col] - even) / even),
                    np.max(np.abs(sums[1:top:2, col]) / even))
    return float(worst)


def glj_weights(mu: float, nodes: np.ndarray) -> np.ndarray:
    """Weights making the Lobatto rule exact on P_{2N-1} against w.

    Closed form for alpha = beta = mu (Shen, Tang & Wang, *Spectral Methods*,
    Springer 2011, ch. 3): w_j = C / J_N(x_j)^2 at the interior nodes and
    (mu + 1) C / J_N(+-1)^2 at the ends, with C fixed by sum_j w_j = m0.
    J_N(+-1)^2 = (prod_k (k + mu)/k)^2 is taken in closed form: there the
    recurrence cancels, with a relative error of about eps/(1 + mu).  The
    recurrence gives J_N(-x) = (-1)^N J_N(x) bit for bit, so on mirrored
    nodes the weights are exactly mirror-symmetric.  Verified
    post-construction against the monomial moment oracle (``_moment_error``);
    failure signals bad nodes.  The barycentric weights, and with them the
    differentiation matrix, are built from these weights, so the gate
    guards them too.
    """
    mu = validate_mu(mu)
    nodes = np.asarray(nodes, dtype=float)
    n = nodes.size - 1
    jn = _sym_jacobi(mu, n, nodes)
    jn[[0, n]] = math.prod((k + mu) / k for k in range(1, n + 1))
    w = 1.0 / jn ** 2
    w[[0, n]] *= mu + 1.0
    w *= weight_moment(mu, 0) / w.sum()

    if np.any(w <= 0.0):
        raise QuadratureError(f"nonpositive quadrature weight for mu={mu}, n={n}")
    worst = _moment_error(mu, nodes, w)
    if not worst <= _WEIGHT_VERIFY_TOL:
        raise QuadratureError(
            f"weight verification failed for mu={mu}, n={n}: rel err {worst:.3e}"
        )
    return w


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Lobatto-Jacobi rule: N+1 nodes in [-1, 1] and positive weights."""

    mu: float
    nodes: np.ndarray
    weights: np.ndarray

    @property
    def n(self) -> int:
        return self.nodes.size - 1

    def integrate(self, values) -> float:
        return float(self.weights @ np.asarray(values, dtype=float))


@lru_cache(maxsize=64)
def glj_rule(mu: float, n: int) -> QuadratureRule:
    """Build (and cache) the N+1 point Gauss-Lobatto-Jacobi rule."""
    nodes = glj_nodes(mu, n)
    weights = glj_weights(mu, nodes)
    for a in (nodes, weights):
        a.setflags(write=False)
    return QuadratureRule(mu=float(mu), nodes=nodes, weights=weights)


def bary_weights(rule: QuadratureRule) -> np.ndarray:
    """Barycentric weights of the Lobatto nodes from the rule, in O(N).

    1 / prod_{k != j} (x_j - x_k) is 1 / omega'(x_j) for the node polynomial
    omega = (x^2 - 1) J_N' (up to a constant), and the Jacobi equation
    makes omega'(x_j) proportional to J_N(x_j) inside and to
    J_N(+-1) / (1 + mu) at the ends.  With w_j = C / J_N(x_j)^2 inside and
    (1 + mu) C / J_N(+-1)^2 at the ends, the weights are (-1)^j sqrt(w_j)
    inside and (-1)^j sqrt((1 + mu) w_j) at the ends, up to a common factor
    that cancels in every use (Wang, Huybrechs & Vandewalle, Math. Comp. 83
    (2014) 2893-2914).  Unlike the product, they stay in range for every N.
    """
    lam = np.sqrt(rule.weights)
    lam[1::2] *= -1.0
    lam[[0, -1]] *= math.sqrt(1.0 + rule.mu)
    return lam


def _block_len(size: int) -> int:
    """Rows (or columns) of one block of ``_BLOCK_ENTRIES`` entries, at least one."""
    return max(1, _BLOCK_ENTRIES // size)


def _d1_spans(size: int, other: int) -> list[slice]:
    """Nearly equal slices of range(size) for the D1 blocks of a product
    whose other factor has ``other`` rows or columns: blocks of
    ``_BLOCK_ENTRIES`` entries, or about as many as that factor holds if
    more (a thin product runs below the speed of a full one)."""
    count = max(1, size // max(_block_len(size), other))
    step = -(-size // count)
    return [slice(start, start + step) for start in range(0, size, step)]


def _bary_block(nodes: np.ndarray, bary: np.ndarray, rows: slice, cols: slice,
                diag: np.ndarray | None) -> np.ndarray:
    """The block [rows, cols] (unit-step slices) of the barycentric matrix
    (b_j / b_i) / (x_i - x_j), with ``diag`` (or 0) on its diagonal
    entries.  Each entry takes the same operations at any block shape, so
    blocks of it tile the matrix of a single call bit for bit."""
    r = range(nodes.size)[rows]
    c = range(nodes.size)[cols]
    on = np.arange(max(r.start, c.start), min(r.stop, c.stop))
    at = (on - r.start, on - c.start)
    blk = np.subtract.outer(nodes[rows], nodes[cols])
    blk[at] = 1.0
    blk *= bary[rows, None]
    np.divide(bary[cols], blk, out=blk)
    blk[at] = 0.0 if diag is None else diag[on]
    return blk


def diff_matrix(nodes: np.ndarray, bary: np.ndarray) -> np.ndarray:
    """Nodal differentiation matrix d1[i, j] = psi_j'(x_i).

    Barycentric form (b_j / b_i) / (x_i - x_j), built in one array, with the
    negative-sum diagonal, so d1 annihilates constants exactly.  Products
    of it are exact on polynomials: d1 @ d1 is the second-derivative matrix.
    """
    nodes = np.asarray(nodes, dtype=float)
    whole = slice(None)
    d1 = _bary_block(nodes, bary, whole, whole, None)
    np.fill_diagonal(d1, -d1.sum(axis=1))
    return d1


def aux_matrix(mu: float, nodes: np.ndarray, d1: np.ndarray) -> np.ndarray:
    """Nodal values of the weight-derivative auxiliary functions.

    Column j holds 2 x mu psi_j(x) / (1 - x^2) sampled at the nodes, for the
    interior basis functions j = 1..N-1.  Interior rows vanish off the
    diagonal; the diagonal is 2 x_j mu / (1 - x_j^2).  At the endpoints the
    value equals -mu psi_j'(+-1) (write psi_j = (1-x^2) q; then the column
    function is 2 x mu q(x) and psi_j'(+-1) = -(+-2) q(+-1)).
    """
    mu = validate_mu(mu)
    nodes = np.asarray(nodes, dtype=float)
    n = nodes.size - 1
    psi = np.zeros((n + 1, n - 1))
    xj = nodes[1:n]
    cols = np.arange(n - 1)
    psi[1 + cols, cols] = 2.0 * xj * mu / (1.0 - xj * xj)
    psi[0, :] = -mu * d1[0, 1:n]
    psi[n, :] = -mu * d1[n, 1:n]
    return psi


@dataclass(frozen=True)
class JacobiBasis:
    """Degree-N nodal basis on the Gauss-Lobatto-Jacobi points.

    The nodes are mirrored exactly (x_{N-j} == -x_j; ``build_basis`` checks).
    Holds O(N) data: the rule, the barycentric weights and the diagonal of
    the differentiation matrix D1 (its negative off-diagonal row sums),
    immutable after construction (arrays are read-only), so instances can
    be shared freely across threads and cached.  Products with D1 form it
    in blocks (``d1_matmul``, ``matmul_d1``); ``d1``, ``d2`` and ``psi``
    are formed anew on each access, for diagnostics and tests.
    """

    mu: float
    n: int
    rule: QuadratureRule
    bary: np.ndarray
    d1_diag: np.ndarray

    @property
    def nodes(self) -> np.ndarray:
        return self.rule.nodes

    @property
    def weights(self) -> np.ndarray:
        return self.rule.weights

    @property
    def d1(self) -> np.ndarray:
        """The dense differentiation matrix, read-only (``diff_matrix``'s entries)."""
        d1 = d1_block(self)
        d1.setflags(write=False)
        return d1

    @property
    def d2(self) -> np.ndarray:
        """Second-derivative matrix d1 @ d1."""
        d1 = self.d1
        return d1 @ d1

    @property
    def psi(self) -> np.ndarray:
        """The auxiliary matrix (``aux_matrix``)."""
        return aux_matrix(self.mu, self.nodes, self.d1)


def _build_basis(mu: float, n: int) -> JacobiBasis:
    rule = glj_rule(mu, n)
    # the parity-folded assembly (semidiscrete) relies on x_{N-j} == -x_j
    if not np.array_equal(rule.nodes[::-1], -rule.nodes):
        raise QuadratureError(f"nodes for mu={mu}, n={n} are not mirrored exactly")
    bary = bary_weights(rule)
    # the negative row sums of diff_matrix, a block of rows at a time
    diag = np.empty(n + 1)
    for rows in _d1_spans(n + 1, 1):
        diag[rows] = -_bary_block(rule.nodes, bary, rows, slice(None), None).sum(axis=1)
    for a in (bary, diag):
        a.setflags(write=False)
    return JacobiBasis(mu=float(mu), n=n, rule=rule, bary=bary, d1_diag=diag)


build_basis = lru_cache(maxsize=32)(_build_basis)


def d1_block(basis: JacobiBasis, rows: slice = slice(None),
             cols: slice = slice(None)) -> np.ndarray:
    """The block D1[rows, cols] (unit-step slices), a new array holding
    exactly the entries ``diff_matrix`` gives there."""
    return _bary_block(basis.nodes, basis.bary, rows, cols, basis.d1_diag)


def d1_matmul(basis: JacobiBasis, values) -> np.ndarray:
    """D1 @ values, for a vector or an (N+1) x k block, forming D1 one
    block of rows at a time (``_d1_spans``)."""
    values = np.asarray(values, dtype=float)
    out = np.empty(values.shape)
    for rows in _d1_spans(basis.n + 1, values[0].size):
        out[rows] = d1_block(basis, rows) @ values
    return out


def matmul_d1(x: np.ndarray, basis: JacobiBasis) -> np.ndarray:
    """x @ D1, for an r x (N+1) block x, forming D1 one block of columns
    at a time (``_d1_spans``)."""
    out = np.empty(x.shape)
    for cols in _d1_spans(basis.n + 1, len(x)):
        out[:, cols] = x @ d1_block(basis, cols=cols)
    return out


def nodal_eval(basis: JacobiBasis, values, x, deriv: int = 0) -> np.ndarray:
    """Evaluate the nodal interpolant of ``values`` (or a derivative) at x.

    ``values`` is a vector or an (N+1) x k block of nodal values.  Barycentric
    interpolation in matrix form (Berrut & Trefethen, SIAM Rev. 46 (2004)):
    E[i, j] = (b_j / (x_i - x_j)) / sum_l b_l / (x_i - x_l), with the exact
    nodal value for any point within 1e-12 of a node (the nearest node,
    found by bisection).  E is built for a block of points at a time, at
    most 2^16 / (N+1) of them (at least one).  A derivative is E applied to
    the nodal derivative values D1 @ values or D1 @ (D1 @ values)
    (``d1_matmul``), which define the derivative polynomial exactly.
    """
    if deriv not in (0, 1, 2):
        raise ValueError("deriv must be 0, 1 or 2")
    values = np.asarray(values, dtype=float)
    for _ in range(deriv):
        values = d1_matmul(basis, values)
    x = np.asarray(x, dtype=float)
    pts = np.atleast_1d(x)
    nodes = basis.nodes

    above = np.searchsorted(nodes, pts).clip(1, basis.n)
    near = above - (pts - nodes[above - 1] < nodes[above] - pts)
    hit = np.abs(pts - nodes[near]) < _HIT_TOL
    res = np.empty(pts.shape + values.shape[1:])
    block = _block_len(nodes.size)
    for start in range(0, pts.size, block):
        rows = slice(start, start + block)
        e = np.subtract.outer(pts[rows], nodes)
        on_node = hit[rows]
        e[on_node, near[rows][on_node]] = 1.0          # no 0/0; the row is replaced below
        np.divide(basis.bary, e, out=e)
        e /= e.sum(axis=1, keepdims=True)
        res[rows] = e @ values
    res[hit] = values[near[hit]]
    return res[0] if x.ndim == 0 else res
