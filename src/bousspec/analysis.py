"""Weighted Sobolev norms, error measurement, convergence-ratio harness.

Norms are estimated by Gauss-Lobatto quadrature on a refinement grid of
degree M = max(64, 2 N_max), N_max the largest polynomial degree compared:
||f||_{H^k}^2 ~ sum_{l<=k} sum_j |f^(l)(y_j)|^2 w_j, with physical-interval
nodes and weights.  Product norms are sqrt(|eta|^2 + |u|^2).  Every norm
samples a solution through one interpolation matrix (``_sample``).
All tables in the experiment suite use the unweighted (mu = 0) norms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .jacobi import JacobiBasis, glj_rule, nodal_eval
from .model import ExactSolution, IntervalMap
from .semidiscrete import State

_MIN_GRID_DEGREE = 64


@dataclass(frozen=True)
class NormSpec:
    """Product-norm request: H^{eta_order} x H^{u_order} with weight mu.

    The product norm is the Euclidean combination sqrt(|eta|^2 + |u|^2), the
    one the reference experiment tables use (the tent quotients pin it to
    four digits).
    """

    eta_order: int = 0
    u_order: int = 0
    mu: float = 0.0

    def __post_init__(self):
        for k in (self.eta_order, self.u_order):
            if k not in (0, 1, 2):
                raise ValueError("component orders must be 0, 1 or 2")

    @property
    def label(self) -> str:
        names = {0: "L2", 1: "H1", 2: "H2"}
        return f"{names[self.eta_order]}x{names[self.u_order]}"


@dataclass(frozen=True)
class NodalSolution:
    """A solution polynomial pair: full nodal values on a basis and interval."""

    basis: JacobiBasis
    imap: IntervalMap
    eta: np.ndarray   # N+1 nodal values including endpoints
    u: np.ndarray
    t: float

    @staticmethod
    def from_state(basis: JacobiBasis, imap: IntervalMap, state: State) -> "NodalSolution":
        return NodalSolution(
            basis=basis, imap=imap, eta=state.eta_full(), u=state.u_full(), t=state.t
        )


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


def _grid(spec: NormSpec, imap: IntervalMap, n_max: int):
    """Physical nodes and weights of the refinement rule for degrees <= n_max."""
    rule = glj_rule(spec.mu, max(_MIN_GRID_DEGREE, 2 * n_max))
    return imap.to_physical(rule.nodes), imap.scale * rule.weights


def _sample(sol: NodalSolution, pts, spec: NormSpec) -> np.ndarray:
    """Derivative samples of ``sol`` on pts, one column per (component, order).

    Columns are eta, eta', ... up to ``spec.eta_order``, then u, u', ... up to
    ``spec.u_order``; one interpolation matrix serves all of them.
    """
    basis, s = sol.basis, sol.imap.scale
    cols = []
    for v, order in ((sol.eta, spec.eta_order), (sol.u, spec.u_order)):
        cols.append(v)
        if order >= 1:
            cols.append(basis.d1 @ v / s)
        if order >= 2:
            cols.append(basis.d2 @ v / s**2)
    return nodal_eval(basis, np.column_stack(cols), _reference_points(sol.imap, pts))


def _diff_norm(sa, sb, w) -> float:
    """Product norm of the difference of two ``_sample``-shaped samples.

    sqrt(|eta|^2 + |u|^2) adds the squared component norms, so it is the
    quadrature sum over every sampled column.
    """
    return sobolev_norm((sa - sb).T, w)


def error_vs_exact(sol: NodalSolution, exact: ExactSolution, t: float,
                   spec: NormSpec) -> float:
    """Product norm of (eta_N - eta(., t), u_N - u(., t))."""
    pts, w = _grid(spec, sol.imap, sol.basis.n)
    ref = np.column_stack(
        [exact.eta(pts, t, d) for d in range(spec.eta_order + 1)]
        + [exact.u(pts, t, d) for d in range(spec.u_order + 1)]
    )
    return _diff_norm(_sample(sol, pts, spec), ref, w)


def self_norm(sol: NodalSolution, spec: NormSpec) -> float:
    """Product norm of the solution itself on the refinement grid."""
    pts, w = _grid(spec, sol.imap, sol.basis.n)
    return _diff_norm(_sample(sol, pts, spec), 0.0, w)


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
    pts, w = _grid(spec, s4.imap, s4.basis.n)
    # each level is sampled once; s_2N enters both differences
    v1, v2, v4 = (_sample(s, pts, spec) for s in sols)
    num = _diff_norm(v1, v2, w)
    den = _diff_norm(v2, v4, w)
    if den == 0.0:
        raise ZeroDivisionError(
            "refinement difference vanished; the error floor was reached"
        )
    return num / den


@dataclass
class ConvergenceRecord:
    """One error-vs-parameter sweep with ratios and observed rates."""

    label: str
    parameters: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    ratios: list = field(default_factory=list)
    rates: list = field(default_factory=list)


def rate_table(parameters, errors, label: str = "") -> ConvergenceRecord:
    """Observed rates log2(e_i / e_{i+1}) between consecutive halvings.

    A rate is only recorded where the parameter actually halves (or doubles);
    other consecutive pairs get a None placeholder.
    """
    parameters = [float(p) for p in parameters]
    errors = [float(e) for e in errors]
    if len(parameters) != len(errors) or len(errors) < 2:
        raise ValueError("need matching parameter/error lists with >= 2 entries")
    ratios, rates = [], []
    for i in range(len(errors) - 1):
        ratios.append(errors[i] / errors[i + 1])
        step = parameters[i] / parameters[i + 1]
        if abs(step - 2.0) < 1e-12 or abs(step - 0.5) < 1e-12:
            rates.append(math.log2(ratios[-1]))
        else:
            rates.append(None)
    return ConvergenceRecord(
        label=label, parameters=parameters, errors=errors, ratios=ratios, rates=rates
    )
