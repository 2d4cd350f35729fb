"""Two-stage SDIRK time stepping with fixed-point stage solves, for one or
more runs of one vector field in lockstep.

Butcher tableau (gamma, 0; 1-2 gamma, gamma) with weights (1/2, 1/2);
gamma = 1/2 gives the second-order midpoint-type member, gamma =
(3 + sqrt(3))/6 the third-order member.  Stage systems are solved by
fixed-point iteration started from a predictor: within an integration the
previous step's stage derivatives are extrapolated linearly in time
(Hairer & Wanner, Solving ODEs II, IV.8), so the iteration starts O(k^2)
close to its fixed point.  Boundary data is evaluated at the stage
abscissae t_n + gamma k and t_n + (1 - gamma) k, which is required to keep
the classical order with time-dependent Dirichlet data.

The vector field acts on a block: F(t, Y) takes a (rows, m) block Y of
states and the (rows, 1) column t of their times and returns the (rows, m)
block of derivatives, so a field written elementwise for one state serves
a block unchanged.  ``integrate`` advances one or more (gamma, plan) runs
from one initial state as rows of such a block.  Each round makes one field
call on the rows that are still iterating a stage, and every row runs its
own stage machine: its predictor, the ``STAGE_TOL`` stop, the growth and
``MAX_STAGE_ITERS`` checks and its own ``IntegrationStats``.  A row leaves
the block when its plan ends.  A row's arithmetic does not depend on the
other rows, so a run alone is the batch of one row, and in a batch it
differs from that only by how the field's products round at another block
height (not at all for an elementwise field).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

GAMMA_ORDER3 = (3.0 + math.sqrt(3.0)) / 6.0
STAGE_TOL = 1e-12        # max-norm change that ends a stage iteration
MAX_STAGE_ITERS = 100    # iterations before a stage solve is abandoned


class StageDivergenceError(RuntimeError):
    """Fixed-point stage iteration failed to contract; ``gamma``, ``k`` and
    ``step`` name the run and the step that failed."""

    def __init__(self, problem: str, gamma: float, k: float, step: int):
        super().__init__(
            f"stage iteration {problem} at step {step} of the run "
            f"gamma={gamma:.10g}, k={k:.10g}; reduce the time step"
        )
        self.problem, self.gamma, self.k, self.step = problem, gamma, k, step

    def __reduce__(self):
        # rebuild through __init__ so the copy keeps its message (ratio
        # tables send a worker's failure back pickled)
        return type(self), (self.problem, self.gamma, self.k, self.step), vars(self)


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


@dataclass
class IntegrationStats:
    """Diagnostics of one integration: steps, vector-field evaluations, the
    most iterations any stage took and the largest max-norm change at which
    a stage iteration was accepted (at most ``STAGE_TOL``)."""

    steps: int = 0
    max_stage_iters: int = 0
    rhs_evals: int = 0
    max_stage_residual: float = 0.0


class _Run:
    """Stage machine of one (gamma, plan) run.

    While the run iterates a stage, row ``row`` of the block holds its
    iterate, the stage's base value and time, and the run holds what the
    next stage needs.  Stage i solves Y_i = base_i + gamma k f_i with f_i
    the derivative at its abscissa, so its iteration starts from base_i +
    gamma k p(abscissa), p extrapolating known stage derivatives linearly in
    time.  ``prev`` holds the (f1, f2) of the previous step, at t - k +
    gamma k and t - k + (1 - gamma) k.  Stage 1 takes p through both (p = f2
    when gamma = 1/2 puts them at one abscissa), or starts from y without
    history.  Stage 2 takes p through the previous f2 and the current f1
    (p = f1 when gamma = 1/2 or without history: an explicit Euler step,
    O(k^2) from the stage where Y1 is O(k)).  Only the starting point
    differs from a cold start; the stopping rule is the same.  The converged
    stage values recover the stage derivatives exactly from the fixed-point
    relations, so the final combination needs no further evaluation.
    """

    __slots__ = ("gamma", "k", "gk", "n", "step", "y", "prev", "f1", "base2",
                 "started", "last", "growth", "stats", "want", "snapshots")

    def __init__(self, gamma: float, plan: IntegrationPlan, y0: np.ndarray):
        self.gamma, self.k = gamma, plan.k
        self.gk = gamma * plan.k
        self.n = plan.n_steps
        self.step = 0
        self.y = y0
        self.prev = None
        self.stats = IntegrationStats()
        self.want = sorted(set(min(self.n, round(s / self.k)) for s in plan.snapshot_times))
        self.snapshots = []
        if self.want and self.want[0] == 0:
            self.snapshots.append((0.0, y0.copy()))
            self.want.pop(0)

    def _restart(self, row: int, t_stage: float, block, rnd: int) -> None:
        block[2][row, 0] = t_stage
        self.started = rnd
        self.last = math.inf
        self.growth = 0

    def begin_step(self, row: int, block, rnd: int) -> None:
        """Load stage 1 of the current step into ``row`` of the block.

        The stage values are computed into the row (y + gamma k p as
        ``add(y, gamma k p, out=row)``: the same roundings, no copy).
        """
        g, gk, y, prev = self.gamma, self.gk, self.y, self.prev
        block[0][row] = y
        guess = block[1][row]
        if prev is None:
            guess[:] = y
        else:
            if g == 0.5:
                np.multiply(gk, prev[1], out=guess)
            else:
                pf1, pf2 = prev
                np.multiply(gk, pf1 + (pf2 - pf1) / (1.0 - 2.0 * g), out=guess)
            np.add(y, guess, out=guess)
        self.f1 = None
        self._restart(row, self.step * self.k + gk, block, rnd)

    def accept(self, row: int, diff: float, block, rnd: int) -> bool:
        """Take the converged stage in ``row``; load the next stage there and
        return False, or return True when the plan has ended."""
        stats = self.stats
        if rnd - self.started > stats.max_stage_iters:
            stats.max_stage_iters = rnd - self.started
        if diff > stats.max_stage_residual:
            stats.max_stage_residual = diff
        g, k, gk, y = self.gamma, self.k, self.gk, self.y
        stage_value = block[1][row]
        if self.f1 is None:
            f1 = (stage_value - y) / gk
            # base2 = y + (1 - 2 gamma) k f1 lives in the row of stage bases,
            # which keeps it until the stage is accepted
            base2 = np.multiply((1.0 - 2.0 * g) * k, f1, out=block[0][row])
            np.add(y, base2, out=base2)
            if self.prev is None:
                slope2 = f1
            else:
                slope2 = f1 + (2.0 * g - 1.0) / (2.0 * g) * (self.prev[1] - f1)
            np.multiply(gk, slope2, out=stage_value)
            np.add(base2, stage_value, out=stage_value)
            self.f1, self.base2 = f1, base2
            self._restart(row, self.step * k + (1.0 - g) * k, block, rnd)
            return False
        f1, f2 = self.f1, (stage_value - self.base2) / gk
        self.y = y + 0.5 * k * (f1 + f2)
        self.prev = (f1, f2)
        self.step += 1
        stats.steps += 1
        if self.want and self.want[0] == self.step:
            self.snapshots.append((self.step * k, self.y.copy()))
            self.want.pop(0)
        if self.step == self.n:
            stats.rhs_evals = rnd      # a row evaluates once in every round it is in
            return True
        self.begin_step(row, block, rnd)
        return False

    def failure(self, diff: float) -> StageDivergenceError:
        """The error for a stage iteration that has grown five times running
        (``growth``) or used up its iterations."""
        if self.growth >= 5:
            return StageDivergenceError(f"diverging (residual {diff:.3e})",
                                        self.gamma, self.k, self.step)
        return StageDivergenceError(f"exceeded {MAX_STAGE_ITERS} iterations",
                                    self.gamma, self.k, self.step)


def integrate(f, y0: np.ndarray, runs):
    """Integrate the (gamma, plan) ``runs`` of y' = f(t, y) from y0 in
    lockstep; returns ([(t, y, snapshots, stats) per run], total stats).

    Each round evaluates the block of rows still iterating once.  Each step
    after a run's first starts its stage iterations from that run's previous
    stage derivatives.  Snapshots are recorded at the step boundary nearest
    each requested time (exact when the time is a multiple of k).  The total
    sums the steps and evaluations of the runs and keeps their maxima.
    """
    y0 = np.asarray(y0, dtype=float)
    machines = [_Run(gamma, plan, y0) for gamma, plan in runs]
    active = [run for run in machines if run.n]
    # rows of the stage bases, the iterates and the stage times
    block = [np.empty((len(active), y0.size)), np.empty((len(active), y0.size)),
             np.empty((len(active), 1))]
    # gamma k of each row, spread along the row (a same-shape product is the
    # cheapest for a block of one row)
    coeff = np.repeat([run.gk for run in active], y0.size).reshape(-1, y0.size)
    for row, run in enumerate(active):
        run.begin_step(row, block, 0)
    rnd = 0
    while active:
        base, y, times = block
        block[1] = y_next = base + coeff * f(times, y)
        diffs = np.abs(y_next - y).max(axis=1).tolist()
        rnd += 1
        ended = []
        for row, diff in enumerate(diffs):
            run = active[row]
            if diff <= STAGE_TOL:
                if run.accept(row, diff, block, rnd):
                    ended.append(row)
                continue
            run.growth = run.growth + 1 if diff > run.last else 0
            run.last = diff
            if run.growth >= 5 or rnd - run.started >= MAX_STAGE_ITERS:
                raise run.failure(diff)
        if ended:
            keep = [row for row in range(len(active)) if row not in ended]
            active = [active[row] for row in keep]
            block = [a[keep] for a in block]
            coeff = coeff[keep]
    stats = [run.stats for run in machines]
    total = IntegrationStats(
        steps=sum(s.steps for s in stats),
        max_stage_iters=max((s.max_stage_iters for s in stats), default=0),
        rhs_evals=sum(s.rhs_evals for s in stats),
        max_stage_residual=max((s.max_stage_residual for s in stats), default=0.0),
    )
    return [(run.n * run.k, run.y, run.snapshots, run.stats) for run in machines], total


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


def dispersion_slope(gamma: float, y_lo: float = 1e-3, y_hi: float = 1e-1,
                     n: int = 25) -> float:
    """Empirical log-log slope of |Phi| over [y_lo, y_hi]."""
    ys = np.logspace(math.log10(y_lo), math.log10(y_hi), n)
    phi = np.abs(dispersion_error(gamma, ys))
    slope, _ = np.polyfit(np.log(ys), np.log(phi), 1)
    return float(slope)
