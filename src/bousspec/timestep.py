"""Two-stage SDIRK time stepping with fixed-point stage solves, for one or
more runs of one vector field in lockstep.

Butcher tableau (gamma, 0; 1-2 gamma, gamma) with weights (1/2, 1/2);
gamma = 1/2 gives the second-order midpoint-type member, gamma =
(3 + sqrt(3))/6 the third-order member.  Stage systems are solved by
fixed-point iteration started from a predictor (Hairer & Wanner, Solving
ODEs II, IV.8): within an integration each stage's derivative is
extrapolated from the same stage's derivatives in the last three steps,
quadratically in the step index, so a stage whose derivatives vary
smoothly from step to step can end in its first round.  Boundary data is
evaluated at the stage abscissae t_n + gamma k and t_n + (1 - gamma) k,
which is required to keep the classical order with time-dependent
Dirichlet data.

The vector field acts on a block: F(t, Y) takes a (rows, m) block Y of
states and the (rows, 1) column t of their times and returns the (rows, m)
block of derivatives, so a field written elementwise for one state serves
a block unchanged.  ``integrate`` advances one or more (gamma, plan) runs
from one initial state as rows of such a block.  Each run's steps are one
generator, ``_steps``, that yields the stage systems in turn and forms the
step from their solutions.  ``integrate`` owns the stage iteration: each
round makes one field call on the rows still iterating a stage and applies
each row's ``STAGE_TOL`` stop, its finiteness, growth and ``MAX_STAGE_ITERS``
checks and its own ``IntegrationStats``.  A row leaves the block when its
run's generator returns.  A row's arithmetic does not depend on the other
rows, so a run alone is the batch of one row, and in a batch it differs from
that only by how the field's products round at another block height (not at
all for an elementwise field).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

GAMMA_ORDER3 = (3.0 + math.sqrt(3.0)) / 6.0
STAGE_TOL = 1e-12        # max-norm change that ends a stage iteration
MAX_STAGE_ITERS = 100    # iterations before a stage solve is abandoned
# np.logspace arguments of the y at which the phase error is sampled; the
# grid is not built at import, which would add about 0.1 MB to every run's RSS
DISPERSION_Y_GRID = (-3, -1, 25)


class StageDivergenceError(ArithmeticError):
    """Fixed-point stage iteration failed to contract; the message names the
    run (gamma, k) and the step that failed."""


def _numerator(gamma: float) -> tuple[float, float]:
    """(beta, alpha) of R(z) = 1 + z b^T (I - z A)^{-1} 1 reduced to the
    rational (1 + beta z + alpha z^2) / (1 - gamma z)^2."""
    return 1.0 - 2.0 * gamma, gamma**2 + 0.5 - 2.0 * gamma


@dataclass(frozen=True)
class IntegrationPlan:
    k: float
    t_end: float
    snapshot_times: tuple = ()

    def __post_init__(self):
        if not 0.0 < self.k < math.inf:
            raise ValueError(f"time step must be positive and finite, got {self.k}")
        if self.t_end < 0.0:
            raise ValueError("final time must be nonnegative")
        for s in self.snapshot_times:
            if not 0.0 <= s <= self.t_end + 1e-12:
                raise ValueError(f"snapshot time {s} outside [0, t_end]")

    @property
    def n_steps(self) -> int:
        ratio = self.t_end / self.k
        if not math.isfinite(ratio):
            raise ValueError(f"t_end / k = {ratio} is not finite")
        n = round(ratio)
        if abs(n * self.k - self.t_end) > 1e-8 * max(1.0, self.t_end):
            raise ValueError(
                f"time step {self.k} does not divide t_end {self.t_end}"
            )
        return n

    @property
    def snapshot_steps(self) -> set:
        """The step nearest each snapshot time; refuses two times that land on
        one step, or on steps whose times print as one ``t{:.6g}`` label."""
        n, seen = self.n_steps, {}
        for s in self.snapshot_times:
            step = min(n, round(s / self.k))
            label = f"t{step * self.k:.6g}"
            if label in seen:
                raise ValueError(f"snapshot times {seen[label][0]!r} and {s!r} both give the "
                                 f"snapshot {label} at time step {self.k!r}")
            seen[label] = s, step
        return {step for _, step in seen.values()}


@dataclass
class IntegrationStats:
    """Diagnostics of one integration: steps, vector-field evaluations, the
    most iterations any stage took and the largest max-norm change at which
    a stage iteration was accepted (at most ``STAGE_TOL``)."""

    steps: int = 0
    max_stage_iters: int = 0
    rhs_evals: int = 0
    max_stage_residual: float = 0.0


def _extrapolate(history: list):
    """The next term of a sequence from its last terms ``history`` (newest
    first), by the polynomial in the step index through them: weights
    (3, -3, 1) for three terms, (2, -1) for two, the last term alone for
    one, and 0 for none."""
    if len(history) == 3:
        return 3.0 * (history[0] - history[1]) + history[2]
    if len(history) == 2:
        return 2.0 * history[0] - history[1]
    return history[0] if history else 0.0


def _steps(gamma: float, plan: IntegrationPlan, y: np.ndarray, snapshots: list,
           stats: IntegrationStats):
    """The steps of one (gamma, plan) run from y, as a generator of stage
    systems; returns the final y.

    Stage i solves Y_i = base_i + gamma k f_i with f_i the derivative at its
    abscissa t_i.  The generator yields (base_i, start, t_i) and is sent the
    converged Y_i, from which the fixed-point relation recovers f_i exactly,
    so the final combination needs no further evaluation.  The iteration
    starts from base_i + gamma k p_i, each stage predicted from its own
    derivatives in the last three steps by E, the extrapolation of
    ``_extrapolate``: quadratic in the step index, or of lower degree while
    fewer steps are known.  The stage-order-1 tableau puts f1 and f2 on one
    smooth curve in time only to O(k^2), but each stage's own sequence is
    smooth in the step index.  Stage 1 takes p1 = E(f1), so without history
    it starts from y.  Stage 2 takes p2 = f1 + E(f2 - f1), so without
    history it takes an explicit Euler step, O(k^2) from the stage where Y1
    is O(k); for gamma = 1/2 the two stages coincide, f2 - f1 vanishes and
    stage 2 starts at Y1.  Only the starting point differs from a cold
    start; the stopping rule is the same.  Each step counts in
    ``stats.steps``; y is appended to ``snapshots`` at the step boundary
    nearest each of the plan's snapshot times.
    """
    k, n, want = plan.k, plan.n_steps, plan.snapshot_steps
    gk = gamma * k
    if 0 in want:
        snapshots.append((0.0, y.copy()))
    # f1 and f2 - f1 of the last three steps, newest first
    f1s, ds = [], []
    for step in range(n):
        t = step * k
        f1 = ((yield y, y + gk * _extrapolate(f1s), t + gk) - y) / gk
        base2 = y + ((1.0 - 2.0 * gamma) * k) * f1
        start2 = base2 + gk * (f1 + _extrapolate(ds))
        f2 = ((yield base2, start2, t + (1.0 - gamma) * k) - base2) / gk
        y = y + 0.5 * k * (f1 + f2)
        f1s, ds = [f1] + f1s[:2], [f2 - f1] + ds[:2]
        stats.steps += 1
        if step + 1 in want:
            snapshots.append(((step + 1) * k, y.copy()))
    return y


def _step_of(row) -> str:
    """Name the step and run of an ``integrate`` row; only a failing round calls it."""
    _, result, gamma, k = row
    return f"step {result[3].steps} of the run gamma={gamma:.10g}, k={k:.10g}"


def integrate(f, y0: np.ndarray, runs):
    """Integrate the (gamma, plan) ``runs`` of y' = f(t, y) from y0 in
    lockstep; returns ([(t, y, snapshots, stats) per run], total stats).

    Each round evaluates the block of rows still iterating once.  Each step
    after a run's first starts its stage iterations from that run's stage
    derivatives in its last three steps.  Snapshots are recorded at the step
    boundary nearest each requested time (exact when the time is a multiple
    of k).  The total sums the steps and evaluations of the runs and keeps
    their maxima.  A non-finite stage change raises ``FloatingPointError``,
    a stage that diverges or hits the cap ``StageDivergenceError``.
    """
    y0 = np.asarray(y0, dtype=float)
    results, rows, stages = [], [], []
    for gamma, plan in runs:
        result = [plan.n_steps * plan.k, y0, [], IntegrationStats()]
        results.append(result)
        steps = _steps(gamma, plan, y0, result[2], result[3])
        stage = next(steps, None)
        if stage is not None:           # a plan of no steps ends at y0
            stages.append(stage)
            rows.append((steps, result, gamma, plan.k))
    # rows of the stage bases, the iterates and the stage times
    block = [np.empty((len(rows), y0.size)), np.empty((len(rows), y0.size)),
             np.empty((len(rows), 1))]
    for row, stage in enumerate(stages):
        block[0][row], block[1][row], block[2][row, 0] = stage
    # gamma k of each row, spread along the row (a same-shape product is the
    # cheapest for a block of one row)
    coeff = np.repeat([gamma * k for _, _, gamma, k in rows], y0.size).reshape(-1, y0.size)
    # per row: the round its stage began, its last change, rounds of growth
    started, last, growth = [0] * len(rows), [math.inf] * len(rows), [0] * len(rows)
    rnd = 0
    while rows:
        base, y, times = block
        block[1] = y_next = base + coeff * f(times, y)
        diffs = np.abs(y_next - y).max(axis=1).tolist()
        rnd += 1
        ended = []
        for row, diff in enumerate(diffs):
            if diff <= STAGE_TOL:
                steps, result, _, _ = rows[row]
                stats = result[3]
                if rnd - started[row] > stats.max_stage_iters:
                    stats.max_stage_iters = rnd - started[row]
                if diff > stats.max_stage_residual:
                    stats.max_stage_residual = diff
                try:
                    base[row], y_next[row], times[row, 0] = steps.send(y_next[row])
                    started[row], last[row], growth[row] = rnd, math.inf, 0
                except StopIteration as done:
                    # a row evaluates once in every round it is in
                    result[1], stats.rhs_evals = done.value, rnd
                    ended.append(row)
                continue
            if not math.isfinite(diff):     # NaN meets neither the stop nor the growth test
                raise FloatingPointError(f"non-finite stage at t={times[row, 0]:.10g} "
                                         f"in {_step_of(rows[row])}")
            grown = growth[row] = growth[row] + 1 if diff > last[row] else 0
            last[row] = diff
            if grown >= 5 or rnd - started[row] >= MAX_STAGE_ITERS:
                problem = (f"diverging (residual {diff:.3e})" if grown >= 5
                           else f"exceeded {MAX_STAGE_ITERS} iterations")
                raise StageDivergenceError(f"stage iteration {problem} at {_step_of(rows[row])}; "
                                           "reduce the time step")
        if ended:
            keep = [row for row in range(len(rows)) if row not in ended]
            rows, started, last, growth = ([a[row] for row in keep]
                                           for a in (rows, started, last, growth))
            block = [a[keep] for a in block]
            coeff = coeff[keep]
    stats = [result[3] for result in results]
    total = IntegrationStats(
        steps=sum(s.steps for s in stats),
        max_stage_iters=max((s.max_stage_iters for s in stats), default=0),
        rhs_evals=sum(s.rhs_evals for s in stats),
        max_stage_residual=max((s.max_stage_residual for s in stats), default=0.0),
    )
    return [tuple(result) for result in results], total


def sdirk_step(f, t: float, y: np.ndarray, k: float, gamma: float) -> np.ndarray:
    """Advance y(t) one step of size k for y' = f(t, y).

    A one-step ``integrate`` of the field shifted to start at t: its stage
    times gamma k + t and (1 - gamma) k + t are the abscissae of a step from
    t, bit for bit.  A lone step has no history, so its stage iterations
    start as the first step of ``integrate`` does.
    """
    [(_, y_next, _, _)], _ = integrate(lambda s, v: f(s + t, v), y,
                                       [(gamma, IntegrationPlan(k=k, t_end=k))])
    return y_next


def stability_function(gamma: float, z: complex) -> complex:
    """R(z) for the two-stage tableau, as a reduced rational function."""
    den = (1.0 - gamma * z) ** 2
    if den == 0.0:
        raise ZeroDivisionError(f"z = {z} is a pole of the stability function")
    beta, alpha = _numerator(gamma)
    return (1.0 + beta * z + alpha * z * z) / den


def dispersion_error(gamma: float, y):
    """Phase error Phi(y) = y - arg R(iy), continuous through y = 0.

    Split as arg R(iy) = atan2(beta y, 1 - alpha (iy)^2 ...) minus twice the
    denominator phase; each branch is continuous for the shipped schemes
    (their numerator real part stays positive), so no unwrapping state is
    needed and small-y values avoid the cancellation of a complex division.
    """
    y = np.asarray(y, dtype=float)
    beta, alpha = _numerator(gamma)
    num_phase = np.arctan2(beta * y, 1.0 + (-alpha) * y * y)
    den_phase = -2.0 * np.arctan(gamma * y)
    out = y - (num_phase - den_phase)
    return float(out) if out.shape == () else out


def dispersion_slope(gamma: float) -> float:
    """Empirical log-log slope of |Phi| over the y of ``DISPERSION_Y_GRID``."""
    ys = np.logspace(*DISPERSION_Y_GRID)
    phi = np.abs(dispersion_error(gamma, ys))
    slope, _ = np.polyfit(np.log(ys), np.log(phi), 1)
    return float(slope)
