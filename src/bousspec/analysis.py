"""Weighted Sobolev norms, error measurement, convergence-ratio harness.

Norms are estimated by Gauss-Lobatto quadrature on a refinement grid of
degree M (default twice the largest polynomial degree being compared):
||f||_{H^k}^2 ~ sum_{l<=k} sum_j |f^(l)(y_j)|^2 w_j, with physical-interval
nodes and weights.  Product norms are the sum of the component norms.
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

    ``combine`` selects how the two component norms form the product norm:
    "rss" is the Euclidean combination sqrt(|eta|^2 + |u|^2), which is what
    the reference experiment tables use (the tent quotients pin it to four
    digits); "sum" is the |eta| + |u| variant.
    """

    eta_order: int = 0
    u_order: int = 0
    mu: float = 0.0
    grid_degree: int | None = None
    combine: str = "rss"

    def __post_init__(self):
        for k in (self.eta_order, self.u_order):
            if k not in (0, 1, 2):
                raise ValueError("component orders must be 0, 1 or 2")
        if self.combine not in ("rss", "sum"):
            raise ValueError("combine must be 'rss' or 'sum'")

    def combined(self, eta_norm: float, u_norm: float) -> float:
        if self.combine == "sum":
            return eta_norm + u_norm
        return math.hypot(eta_norm, u_norm)

    def resolve_degree(self, n_max: int) -> int:
        if self.grid_degree is not None:
            if self.grid_degree < 2 * n_max:
                raise ValueError(
                    f"evaluation grid degree {self.grid_degree} < 2*{n_max}"
                )
            return self.grid_degree
        return max(_MIN_GRID_DEGREE, 2 * n_max)

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


def eval_solution(sol: NodalSolution, points, component: str = "eta",
                  deriv: int = 0) -> np.ndarray:
    """Evaluate a solution component (or derivative) at physical points."""
    points = np.asarray(points, dtype=float)
    lo, hi = sol.imap.left, sol.imap.right
    span = hi - lo
    if np.any(points < lo - 1e-12 * span) or np.any(points > hi + 1e-12 * span):
        raise ValueError("evaluation points outside the physical interval")
    values = sol.eta if component == "eta" else sol.u
    ref = sol.imap.to_reference(points)
    np.clip(ref, -1.0, 1.0, out=ref)
    out = nodal_eval(sol.basis, values, ref, deriv)
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
    m = spec.resolve_degree(n_max)
    rule = glj_rule(spec.mu, m)
    return imap.to_physical(rule.nodes), imap.scale * rule.weights


def error_vs_exact(sol: NodalSolution, exact: ExactSolution, t: float,
                   spec: NormSpec) -> float:
    """Product norm of (eta_N - eta(., t), u_N - u(., t))."""
    pts, w = _grid(spec, sol.imap, sol.basis.n)
    comps = []
    for comp, order in (("eta", spec.eta_order), ("u", spec.u_order)):
        exact_fn = exact.eta if comp == "eta" else exact.u
        diffs = [
            eval_solution(sol, pts, comp, d) - exact_fn(pts, t, d)
            for d in range(order + 1)
        ]
        comps.append(sobolev_norm(diffs, w))
    return spec.combined(*comps)


def self_norm(sol: NodalSolution, spec: NormSpec) -> float:
    """Product norm of the solution itself on the refinement grid."""
    pts, w = _grid(spec, sol.imap, sol.basis.n)
    return spec.combined(*(sobolev_norm(vals, w) for vals in _sample(sol, pts, spec)))


def _sample(sol: NodalSolution, pts, spec: NormSpec):
    """[eta derivatives, u derivatives] of ``sol`` on pts, orders 0..spec's."""
    return [
        [eval_solution(sol, pts, comp, d) for d in range(order + 1)]
        for comp, order in (("eta", spec.eta_order), ("u", spec.u_order))
    ]


def _diff_norm(sa, sb, w, spec: NormSpec) -> float:
    """Product norm of the difference of two ``_sample`` results."""
    return spec.combined(*(
        sobolev_norm([a - b for a, b in zip(ca, cb)], w) for ca, cb in zip(sa, sb)
    ))


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
    num = _diff_norm(v1, v2, w, spec)
    den = _diff_norm(v2, v4, w, spec)
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
