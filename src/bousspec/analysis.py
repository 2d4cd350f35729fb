"""Weighted Sobolev norms, error measurement, convergence-ratio harness.

Norms are estimated by Gauss-Lobatto quadrature on a refinement grid of
degree M = max(64, 2 N_max), N_max the largest polynomial degree compared:
||f||_{H^k}^2 ~ sum_{l<=k} sum_j |f^(l)(y_j)|^2 w_j, with physical-interval
nodes and weights.  Product norms are sqrt(|eta|^2 + |u|^2).  Every norm
samples its solutions through one interpolation pass (``_sample``), which
forms D1 in blocks: an error table's runs are all measured in one call
of ``error_vs_exact``.
All tables in the experiment suite use the unweighted (mu = 0) norms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .jacobi import JacobiBasis, d1_matmul, glj_rule, nodal_eval
from .model import ExactSolution, IntervalMap

_MIN_GRID_DEGREE = 64
_ORDER_NAMES = ("L2", "H1", "H2")   # the name of each component order in a norm label


@dataclass(frozen=True)
class NormSpec:
    """Product-norm request: H^{eta_order} x H^{u_order}, unweighted (mu = 0).

    The product norm is the Euclidean combination sqrt(|eta|^2 + |u|^2), the
    one the reference experiment tables use (the tent quotients pin it to
    four digits).
    """

    eta_order: int = 0
    u_order: int = 0

    def __post_init__(self):
        for k in (self.eta_order, self.u_order):
            if k not in (0, 1, 2):
                raise ValueError("component orders must be 0, 1 or 2")

    @classmethod
    def parse(cls, label: str) -> "NormSpec":
        """The spec whose ``label`` is ``label``, in any case (``h2xh1``)."""
        parts = label.upper().split("X")
        if len(parts) != 2 or any(p not in _ORDER_NAMES for p in parts):
            raise ValueError(f"norm must look like 'H2xH1', got {label!r}")
        return cls(*map(_ORDER_NAMES.index, parts))

    @property
    def label(self) -> str:
        return f"{_ORDER_NAMES[self.eta_order]}x{_ORDER_NAMES[self.u_order]}"


@dataclass(frozen=True)
class NodalSolution:
    """A solution polynomial pair: full nodal values on a basis and interval."""

    basis: JacobiBasis
    imap: IntervalMap
    eta: np.ndarray   # N+1 nodal values including endpoints
    u: np.ndarray
    t: float


def _reference_points(imap: IntervalMap, points) -> np.ndarray:
    """Map physical points into [-1, 1]; points outside the interval raise."""
    points = np.asarray(points, dtype=float)
    lo, hi = imap.left, imap.right
    span = hi - lo
    if np.any(points < lo - 1e-12 * span) or np.any(points > hi + 1e-12 * span):
        raise ValueError("evaluation points outside the physical interval")
    return np.clip(imap.to_reference(points), -1.0, 1.0)


def eval_solution(sol: NodalSolution, points, component: str = "eta",
                  deriv: int = 0) -> np.ndarray:
    """Evaluate a solution component (or derivative) at physical points."""
    values = sol.eta if component == "eta" else sol.u
    out = nodal_eval(sol.basis, values, _reference_points(sol.imap, points), deriv)
    return out / sol.imap.scale**deriv


def sobolev_norm(derivs, weights) -> float:
    """Quadrature H^k estimate from sampled derivatives of orders 0..k."""
    weights = np.asarray(weights, dtype=float)
    acc = 0.0
    for vals in derivs:
        vals = np.asarray(vals, dtype=float)
        acc += float(weights @ (vals * vals))
    return math.sqrt(acc)


def _grid(imap: IntervalMap, n_max: int):
    """Physical nodes and weights of the (mu = 0) refinement rule for degrees <= n_max."""
    rule = glj_rule(0.0, max(_MIN_GRID_DEGREE, 2 * n_max))
    return imap.to_physical(rule.nodes), imap.scale * rule.weights


def _sample(sols, pts, spec: NormSpec) -> np.ndarray:
    """Derivative samples of the solutions ``sols`` (one basis and interval)
    on pts, shaped (points, solutions, columns).

    Columns are eta, eta', ... up to ``spec.eta_order``, then u, u', ... up
    to ``spec.u_order``.  D1 is applied once per derivative order, to every
    solution's values that need it, and one interpolation pass serves all
    the columns of all the solutions.
    """
    basis, imap = sols[0].basis, sols[0].imap
    if any(sol.basis is not basis or sol.imap != imap for sol in sols):
        raise ValueError("sampled solutions must share one basis and interval")
    s = imap.scale
    orders = (spec.eta_order, spec.u_order)
    values = [np.column_stack([sol.eta for sol in sols]), np.column_stack([sol.u for sol in sols])]
    cols = [[v] for v in values]
    for k in range(1, max(orders) + 1):
        need = [c for c in (0, 1) if orders[c] >= k]
        # nodal values of the k-th derivatives
        step = d1_matmul(basis, np.hstack([values[c] for c in need]))
        for c, v in zip(need, np.hsplit(step, len(need))):
            values[c] = v
            cols[c].append(v / s**k)
    nodal = np.stack(cols[0] + cols[1], axis=2)
    samples = nodal_eval(basis, nodal.reshape(basis.n + 1, -1), _reference_points(imap, pts))
    return samples.reshape(len(pts), *nodal.shape[1:])


def _diff_norm(sa, sb, w) -> float:
    """Product norm of the difference of two samples of one solution each
    (points x columns, a slice of ``_sample``'s).

    sqrt(|eta|^2 + |u|^2) adds the squared component norms, so it is the
    quadrature sum over every sampled column.
    """
    return sobolev_norm((sa - sb).T, w)


def error_vs_exact(sols, exact: ExactSolution, t: float, spec: NormSpec) -> list[float]:
    """Product norms of (eta_N - eta(., t), u_N - u(., t)), one per solution
    of ``sols`` (one basis and interval): one grid, one exact sample and
    one ``_sample`` pass serve them all."""
    pts, w = _grid(sols[0].imap, sols[0].basis.n)
    ref = np.column_stack(
        [exact.eta(pts, t, d) for d in range(spec.eta_order + 1)]
        + [exact.u(pts, t, d) for d in range(spec.u_order + 1)]
    )
    samples = _sample(sols, pts, spec)
    return [_diff_norm(samples[:, r], ref, w) for r in range(len(sols))]


def self_norm(sol: NodalSolution, spec: NormSpec) -> float:
    """Product norm of the solution itself on the refinement grid."""
    pts, w = _grid(sol.imap, sol.basis.n)
    return _diff_norm(_sample([sol], pts, spec)[:, 0], 0.0, w)


def convergence_ratio(sols, spec: NormSpec) -> float:
    """Ratio ||s_N - s_2N|| / ||s_2N - s_4N|| on a shared refinement grid.

    ``sols`` holds three solutions of the same problem at degrees N, 2N, 4N.
    A vanishing denominator means the difference hit the error floor and is
    reported as an error rather than returning infinity.
    """
    if len(sols) != 3:
        raise ValueError("need exactly three solutions (N, 2N, 4N)")
    s1, s2, s4 = sols
    if not (s2.basis.n == 2 * s1.basis.n and s4.basis.n == 2 * s2.basis.n):
        raise ValueError("solution degrees must double: N, 2N, 4N")
    pts, w = _grid(s4.imap, s4.basis.n)
    # each level is sampled once; s_2N enters both differences
    v1, v2, v4 = (_sample([s], pts, spec)[:, 0] for s in sols)
    num = _diff_norm(v1, v2, w)
    den = _diff_norm(v2, v4, w)
    if den == 0.0:
        raise ZeroDivisionError(
            "refinement difference vanished; the error floor was reached"
        )
    return num / den


def rate_table(parameters, errors, label: str = "") -> list:
    """Observed rates log2(e_i / e_{i+1}) between consecutive halvings.

    The parameters are the time steps k.  A rate is only recorded where the
    parameter actually halves (or doubles); other consecutive pairs get a
    None placeholder.  An error of exactly 0 has no rate, and raises
    ``ZeroDivisionError`` naming ``label`` and its k.
    """
    parameters = [float(p) for p in parameters]
    errors = [float(e) for e in errors]
    if len(parameters) != len(errors) or len(errors) < 2:
        raise ValueError("need matching parameter/error lists with >= 2 entries")
    for k, e in zip(parameters, errors):
        if e == 0.0:
            raise ZeroDivisionError(f"{label}: the error at k={k:.10g} is exactly 0, so the "
                                    "table has no ratio or rate there (do the data vanish?)")
    pairs = zip(parameters, parameters[1:], errors, errors[1:])
    return [math.log2(e0 / e1) if abs(k0 / k1 - 2.0) < 1e-12 or abs(k0 / k1 - 0.5) < 1e-12
            else None for k0, k1, e0, e1 in pairs]
