"""Two-stage SDIRK time stepping with fixed-point stage solves.

Butcher tableau (gamma, 0; 1-2 gamma, gamma) with weights (1/2, 1/2);
gamma = 1/2 gives the second-order midpoint-type member, gamma =
(3 + sqrt(3))/6 the third-order member.  Stage systems are solved by
fixed-point iteration started from a predictor: within an integration the
previous step's stage derivatives are extrapolated linearly in time
(Hairer & Wanner, Solving ODEs II, IV.8), so the iteration starts O(k^2)
close to its fixed point.  Boundary data is evaluated at the stage
abscissae t_n + gamma k and t_n + (1 - gamma) k, which is required to keep
the classical order with time-dependent Dirichlet data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

GAMMA_ORDER3 = (3.0 + math.sqrt(3.0)) / 6.0
STAGE_TOL = 1e-12        # max-norm change that ends a stage iteration
MAX_STAGE_ITERS = 100    # iterations before a stage solve is abandoned


class StageDivergenceError(RuntimeError):
    """Fixed-point stage iteration failed to contract."""


@dataclass(frozen=True)
class SdirkScheme:
    gamma: float
    order: int

    @staticmethod
    def midpoint() -> "SdirkScheme":
        return SdirkScheme(gamma=0.5, order=2)

    @staticmethod
    def order3() -> "SdirkScheme":
        return SdirkScheme(gamma=GAMMA_ORDER3, order=3)

    @staticmethod
    def from_gamma(gamma: float) -> "SdirkScheme":
        if gamma == 0.5:
            return SdirkScheme.midpoint()
        if abs(gamma - GAMMA_ORDER3) < 1e-12:
            return SdirkScheme.order3()
        return SdirkScheme(gamma=float(gamma), order=2)

    # stability function R(z) = 1 + z b^T (I - z A)^{-1} 1 reduced to a
    # rational with numerator 1 + beta z + alpha z^2 over (1 - gamma z)^2
    @property
    def _beta(self) -> float:
        return 1.0 - 2.0 * self.gamma

    @property
    def _alpha(self) -> float:
        return self.gamma**2 + 0.5 - 2.0 * self.gamma


@dataclass(frozen=True)
class IntegrationPlan:
    k: float
    t_end: float
    snapshot_times: tuple = ()

    def __post_init__(self):
        if self.k <= 0.0:
            raise ValueError("time step must be positive")
        if self.t_end < 0.0:
            raise ValueError("final time must be nonnegative")
        for s in self.snapshot_times:
            if not 0.0 <= s <= self.t_end + 1e-12:
                raise ValueError(f"snapshot time {s} outside [0, t_end]")

    @property
    def n_steps(self) -> int:
        n = round(self.t_end / self.k)
        if abs(n * self.k - self.t_end) > 1e-8 * max(1.0, self.t_end):
            raise ValueError(
                f"time step {self.k} does not divide t_end {self.t_end}"
            )
        return n


@dataclass
class IntegrationStats:
    """Aggregate diagnostics of one integration."""

    steps: int = 0
    max_stage_iters: int = 0
    rhs_evals: int = 0


def _stage_solve(f, t_stage, base, coeff_k, y_guess, step_index, stats):
    """Solve y = base + coeff_k * f(t_stage, y) by fixed-point iteration."""
    y = y_guess
    prev = math.inf
    growth = 0
    for it in range(1, MAX_STAGE_ITERS + 1):
        y_next = base + coeff_k * f(t_stage, y)
        stats.rhs_evals += 1
        diff = float(np.abs(y_next - y).max())
        y = y_next
        if diff <= STAGE_TOL:
            stats.max_stage_iters = max(stats.max_stage_iters, it)
            return y
        growth = growth + 1 if diff > prev else 0
        if growth >= 5:
            raise StageDivergenceError(
                f"stage iteration diverging at step {step_index} "
                f"(residual {diff:.3e}); reduce the time step"
            )
        prev = diff
    raise StageDivergenceError(
        f"stage iteration exceeded {MAX_STAGE_ITERS} iterations at "
        f"step {step_index}; reduce the time step"
    )


def _step(f, t: float, y: np.ndarray, k: float, scheme: SdirkScheme,
          step_index: int, stats: IntegrationStats, prev=None):
    """One step from y(t); returns (y_next, f1, f2) with the stage derivatives.

    Stage i solves Y_i = base_i + gamma k f_i with f_i the derivative at its
    abscissa, so its iteration starts from base_i + gamma k p(abscissa), p
    extrapolating known stage derivatives linearly in time.  ``prev`` holds
    the (f1, f2) of the previous step of the same size k, at t - k + gamma k
    and t - k + (1 - gamma) k.  Stage 1 takes p through both (p = f2 when
    gamma = 1/2 puts them at one abscissa), or starts from y without
    history.  Stage 2 takes p through the previous f2 and the current f1
    (p = f1 when gamma = 1/2 or without history: an explicit Euler step,
    O(k^2) from the stage where Y1 is O(k)).  Only the starting point
    differs from a cold start; the stopping rule is the same.
    """
    g = scheme.gamma
    gk = g * k
    if prev is None:
        guess1 = y
    elif g == 0.5:
        guess1 = y + gk * prev[1]
    else:
        pf1, pf2 = prev
        guess1 = y + gk * (pf1 + (pf2 - pf1) / (1.0 - 2.0 * g))
    y1 = _stage_solve(f, t + gk, y, gk, guess1, step_index, stats)
    f1 = (y1 - y) / gk
    base2 = y + (1.0 - 2.0 * g) * k * f1
    if prev is None:
        slope2 = f1
    else:
        slope2 = f1 + (2.0 * g - 1.0) / (2.0 * g) * (prev[1] - f1)
    y2 = _stage_solve(f, t + (1.0 - g) * k, base2, gk, base2 + gk * slope2,
                      step_index, stats)
    f2 = (y2 - base2) / gk
    return y + 0.5 * k * (f1 + f2), f1, f2


def sdirk_step(f, t: float, y: np.ndarray, k: float, scheme: SdirkScheme,
               step_index: int = 0, stats: IntegrationStats | None = None) -> np.ndarray:
    """Advance y(t) one step of size k for y' = f(t, y).

    The converged stage values recover the stage derivatives exactly from
    the fixed-point relations, so no extra vector-field evaluations are
    needed for the final combination.  A lone step has no history, so its
    stage iterations start as the first step of ``integrate`` does.
    """
    if stats is None:
        stats = IntegrationStats()
    y = np.asarray(y, dtype=float)
    return _step(f, t, y, k, scheme, step_index, stats)[0]


def integrate(f, y0: np.ndarray, scheme: SdirkScheme, plan: IntegrationPlan):
    """Repeated SDIRK steps over the plan; returns (t, y, snapshots, stats).

    Each step after the first starts its stage iterations from the previous
    step's stage derivatives.  Snapshots are recorded at the step boundary
    nearest each requested time (exact when the time is a multiple of k).
    """
    y = np.asarray(y0, dtype=float)
    n = plan.n_steps
    stats = IntegrationStats()
    want = sorted(set(min(n, round(s / plan.k)) for s in plan.snapshot_times))
    snapshots = []
    if want and want[0] == 0:
        snapshots.append((0.0, y.copy()))
        want.pop(0)
    prev = None
    for step in range(n):
        y, f1, f2 = _step(f, step * plan.k, y, plan.k, scheme, step, stats, prev)
        prev = (f1, f2)
        stats.steps += 1
        if want and want[0] == step + 1:
            snapshots.append(((step + 1) * plan.k, y.copy()))
            want.pop(0)
    return n * plan.k, y, snapshots, stats


def stability_function(scheme: SdirkScheme, z: complex) -> complex:
    """R(z) for the two-stage tableau, as a reduced rational function."""
    den = (1.0 - scheme.gamma * z) ** 2
    if den == 0.0:
        raise ZeroDivisionError(f"z = {z} is a pole of the stability function")
    return (1.0 + scheme._beta * z + scheme._alpha * z * z) / den


def dispersion_error(scheme: SdirkScheme, y):
    """Phase error Phi(y) = y - arg R(iy), continuous through y = 0.

    Split as arg R(iy) = atan2(beta y, 1 - alpha (iy)^2 ...) minus twice the
    denominator phase; each branch is continuous for the shipped schemes
    (their numerator real part stays positive), so no unwrapping state is
    needed and small-y values avoid the cancellation of a complex division.
    """
    y = np.asarray(y, dtype=float)
    num_phase = np.arctan2(scheme._beta * y, 1.0 + (-scheme._alpha) * y * y)
    den_phase = -2.0 * np.arctan(scheme.gamma * y)
    out = y - (num_phase - den_phase)
    return float(out) if out.shape == () else out


def dispersion_slope(scheme: SdirkScheme, y_lo: float = 1e-3, y_hi: float = 1e-1,
                     n: int = 25) -> float:
    """Empirical log-log slope of |Phi| over [y_lo, y_hi]."""
    ys = np.logspace(math.log10(y_lo), math.log10(y_hi), n)
    phi = np.abs(dispersion_error(scheme, ys))
    slope, _ = np.polyfit(np.log(ys), np.log(phi), 1)
    return float(slope)
