"""Symmetric-weight Jacobi polynomials, Gauss-Lobatto quadrature, nodal bases.

Everything here lives on the reference interval [-1, 1] with the even weight
w(x) = (1 - x^2)^mu, -1 < mu < 1 (mu = 0: Legendre, mu = -1/2: Chebyshev).
The quadrature nodes are -1, 1 and the zeros of the derivative of the
degree-N Jacobi polynomial; the rule is exact on polynomials of degree
<= 2N - 1 against w.  A ``JacobiBasis`` bundles that rule with the Lagrange
(nodal) differentiation matrices and the auxiliary matrix produced by
differentiating the weight inside weak forms.

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


class QuadratureError(RuntimeError):
    """Node search or weight verification failed; indicates an internal bug."""


def validate_mu(mu: float) -> float:
    """Check -1 < mu < 1 (weight integrability) and return mu as float."""
    mu = float(mu)
    if not -1.0 < mu < 1.0:
        raise ValueError(f"weight exponent must satisfy -1 < mu < 1, got {mu}")
    return mu


def weight_moment(mu: float, k: int) -> float:
    """Exact value of the k-th monomial moment of the weight.

    Integrates x^k (1-x^2)^mu over [-1, 1]: zero for odd k; for k = 2m the
    Beta value B(m + 1/2, mu + 1), computed via log-Gamma.
    """
    mu = validate_mu(mu)
    k = int(k)
    if k < 0:
        raise ValueError("moment order must be nonnegative")
    if k % 2 == 1:
        return 0.0
    m = k // 2
    return math.exp(
        math.lgamma(m + 0.5) + math.lgamma(mu + 1.0) - math.lgamma(m + mu + 1.5)
    )


def _sym_jacobi(a: float, n: int, x):
    """J_n^(a,a)(x) in the standard normalization, by the three-term recurrence."""
    x = np.asarray(x, dtype=float)
    prev, cur = np.ones_like(x), (a + 1.0) * x
    if n == 0:
        return prev
    for k in range(2, n + 1):
        s = 2.0 * k + 2.0 * a
        c1 = 2.0 * k * (k + 2.0 * a) * (s - 2.0)
        c2 = (s - 1.0) * s * (s - 2.0)
        c3 = 2.0 * (k + a - 1.0) ** 2 * s
        prev, cur = cur, (c2 * x * cur - c3 * prev) / c1
    return cur


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


def _bisect(fn, lo, hi, iters: int = 200) -> np.ndarray:
    """Plain bisection on bracketed sign changes of fn, all brackets at once.

    A bracket stops once it is narrower than 4e-16 or fn vanishes at its
    midpoint; the result is that bracket's midpoint.
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    flo = fn(lo)
    if np.any(flo * fn(hi) > 0.0):
        raise QuadratureError("bisection fallback called without a sign change")
    hi = np.where(flo == 0.0, lo, hi)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = fn(mid)
        done = (fm == 0.0) | (hi - lo < 4e-16)
        if np.all(done):
            break
        # finished brackets collapse onto their midpoint and stay there
        left = (flo * fm < 0.0) & ~done
        hi = np.where(left | done, mid, hi)
        lo, flo = np.where(left, lo, mid), np.where(left, flo, fm)
    return 0.5 * (lo + hi)


def glj_nodes(mu: float, n: int) -> np.ndarray:
    """Gauss-Lobatto-Jacobi nodes: -1, 1 and the n-1 interior zeros of J_n'.

    Newton iteration from Chebyshev-Gauss-Lobatto guesses cos(pi j / n),
    with a bisection fallback if Newton stalls: all n-1 sign changes are
    bracketed on a fine grid and bisected together as one vector.
    The returned array is strictly increasing and exactly antisymmetric.
    """
    mu = validate_mu(mu)
    if n < 2:
        raise ValueError("need degree n >= 2")

    def g(x):
        return jacobi_deriv(mu, n, x, 1)

    def gp(x):
        return jacobi_deriv(mu, n, x, 2)

    x = np.cos(np.pi * np.arange(n - 1, 0, -1) / n)
    converged = False
    for _ in range(_NODE_MAX_ITERS):
        dx = g(x) / gp(x)
        x -= dx
        np.clip(x, -1.0, 1.0, out=x)
        if np.max(np.abs(dx)) < _NODE_TOL:
            converged = True
            break
    if not converged or np.any(np.diff(x) <= 0.0):
        # Newton stalled or roots collided; rebracket from a fine sampling.
        grid = np.cos(np.pi * np.arange(8 * n, -1, -1) / (8 * n))
        vals = g(grid)
        idx = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
        if idx.size != n - 1:
            raise QuadratureError(f"node search failed for mu={mu}, n={n}")
        x = _bisect(g, grid[idx], grid[idx + 1])

    x = 0.5 * (x - x[::-1])  # even weight: enforce exact antisymmetry
    resid = np.abs(g(x))
    scale = np.maximum(1.0, np.abs(gp(x)))
    if np.any(resid > 1e-13 * scale):
        raise QuadratureError(f"node residual too large for mu={mu}, n={n}")
    return np.concatenate(([-1.0], x, [1.0]))


def glj_weights(mu: float, nodes: np.ndarray) -> np.ndarray:
    """Weights making the Lobatto rule exact on P_{2N-1} against w.

    Closed form for alpha = beta = mu (Shen, Tang & Wang, *Spectral Methods*,
    Springer 2011, ch. 3): w_j = C / J_N(x_j)^2 at the interior nodes and
    (mu + 1) C / J_N(+-1)^2 at the ends, with C fixed by sum_j w_j = m0.
    The recurrence gives J_N(-x) = (-1)^N J_N(x) bit for bit, so on mirrored
    nodes the weights are exactly mirror-symmetric.  Verified
    post-construction against the monomial moment oracle up to degree
    2N-1; failure signals bad nodes.
    """
    mu = validate_mu(mu)
    nodes = np.asarray(nodes, dtype=float)
    n = nodes.size - 1
    w = 1.0 / _sym_jacobi(mu, n, nodes) ** 2
    w[[0, n]] *= mu + 1.0
    w *= weight_moment(mu, 0) / w.sum()

    if np.any(w <= 0.0):
        raise QuadratureError(f"nonpositive quadrature weight for mu={mu}, n={n}")
    p = np.ones_like(nodes)
    worst = 0.0
    for k in range(2 * n):
        m = weight_moment(mu, k)
        scale = m if k % 2 == 0 else weight_moment(mu, k - 1)
        worst = max(worst, abs(w @ p - m) / scale)
        p *= nodes
    if worst > _WEIGHT_VERIFY_TOL:
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


def _bary_weights(nodes: np.ndarray) -> np.ndarray:
    # factors scaled by 2 (inverse capacity of [-1,1]) so products stay in range
    diff = 2.0 * (nodes[:, None] - nodes[None, :])
    np.fill_diagonal(diff, 1.0)
    return 1.0 / np.prod(diff, axis=1)


def diff_matrices(nodes: np.ndarray, bary: np.ndarray | None = None):
    """Nodal differentiation matrices (d1[i, j] = psi_j'(x_i), d2 = d1 @ d1).

    Barycentric form with the negative-sum diagonal, so d1 annihilates
    constants exactly; the product form for d2 is exact on polynomials.
    """
    nodes = np.asarray(nodes, dtype=float)
    if bary is None:
        bary = _bary_weights(nodes)
    diff = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(diff, 1.0)
    d1 = (bary[None, :] / bary[:, None]) / diff
    np.fill_diagonal(d1, 0.0)
    np.fill_diagonal(d1, -d1.sum(axis=1))
    return d1, d1 @ d1


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

    Immutable after construction (arrays are read-only), so instances can be
    shared freely across threads and cached.
    """

    mu: float
    n: int
    rule: QuadratureRule
    bary: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    psi: np.ndarray

    @property
    def nodes(self) -> np.ndarray:
        return self.rule.nodes

    @property
    def weights(self) -> np.ndarray:
        return self.rule.weights


def _build_basis(mu: float, n: int) -> JacobiBasis:
    rule = glj_rule(mu, n)
    bary = _bary_weights(rule.nodes)
    d1, d2 = diff_matrices(rule.nodes, bary)
    psi = aux_matrix(mu, rule.nodes, d1)
    for a in (bary, d1, d2, psi):
        a.setflags(write=False)
    return JacobiBasis(mu=float(mu), n=n, rule=rule, bary=bary, d1=d1, d2=d2, psi=psi)


build_basis = lru_cache(maxsize=32)(_build_basis)


def nodal_eval(basis: JacobiBasis, values, x, deriv: int = 0) -> np.ndarray:
    """Evaluate the nodal interpolant of ``values`` (or a derivative) at x.

    ``values`` is a vector or an (N+1) x k block of nodal values.  Barycentric
    interpolation in matrix form (Berrut & Trefethen, SIAM Rev. 46 (2004)):
    E[i, j] = (b_j / (x_i - x_j)) / sum_l b_l / (x_i - x_l), with an exact
    unit row for any point within 1e-12 of a node.  A derivative is E applied
    to the nodal derivative values d1 @ values or d2 @ values, which define
    the derivative polynomial exactly.
    """
    if deriv not in (0, 1, 2):
        raise ValueError("deriv must be 0, 1 or 2")
    values = np.asarray(values, dtype=float)
    if deriv:
        values = (basis.d1, basis.d2)[deriv - 1] @ values
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0

    e = np.atleast_1d(x)[:, None] - basis.nodes[None, :]
    hit = np.abs(e) < _HIT_TOL
    e[hit] = 1.0
    np.divide(basis.bary, e, out=e)
    rows = hit.any(axis=1)
    e[rows] = hit[rows]
    e /= e.sum(axis=1, keepdims=True)

    res = e @ values
    return res[0] if scalar else res
