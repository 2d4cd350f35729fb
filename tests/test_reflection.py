"""Reflection oracle: the system is invariant under x -> -x, u -> -u.

The problem mirrored about x = 0 (interval (-right, -left), initial data
eta(-x) and -u(-x), boundary columns swapped with the u rows negated) must
give the mirrored solution bit for bit: the Lobatto nodes and the interval
map mirror exactly, so each sum of the mirrored solve is the same sum in the
other order.  This covers data without a closed form (the bore and the
nonsmooth data) and nonzero Dirichlet data at the right end, which no preset
has.  An error that is itself symmetric under the mirror stays invisible.
"""

from dataclasses import replace

import numpy as np
import pytest

from bousspec import experiments, timestep
from bousspec.experiments import PRESETS
from bousspec.model import BoundaryData, IntervalMap
from bousspec.timestep import GAMMA_ORDER3

# rows eta, u, eta_t, u_t of BoundaryData.at: u and u_t change sign
_SIGNS = np.array([[1.0], [-1.0], [1.0], [-1.0]])


def _mirrored(problem: experiments.Problem) -> experiments.Problem:
    at = problem.bdata.at
    bdata = BoundaryData(at=lambda t: _SIGNS * at(t)[:, ::-1], steady=problem.bdata.steady)
    eta_init, u_init = problem.eta_init, problem.u_init
    return experiments.Problem(
        problem.params, IntervalMap(-problem.imap.right, -problem.imap.left),
        lambda x: eta_init(-np.asarray(x, dtype=float)),
        lambda x: -u_init(-np.asarray(x, dtype=float)), bdata)


def _assert_mirrored(run, mirror):
    assert np.array_equal(run.solution.eta, mirror.solution.eta[::-1])
    assert np.array_equal(run.solution.u, -mirror.solution.u[::-1])
    assert run.stats.rhs_evals == mirror.stats.rhs_evals


@pytest.mark.parametrize("preset, changes, n, k, gamma, t_end", [
    # nonzero Dirichlet data at the left end, at the right end when mirrored
    ("bore", {}, 64, 0.0125, GAMMA_ORDER3, 2.0),
    ("bore", {}, 256, 0.0125, GAMMA_ORDER3, 2.0),
    # c != 0: the solitary wave mirrored runs to the left
    ("table1", {}, 64, 0.0625, GAMMA_ORDER3, 1.0),
    ("table1", {}, 128, 0.0625, 0.5, 1.0),
    ("table3", {}, 64, 0.0625, GAMMA_ORDER3, 1.0),
    # time-dependent exact traces at both ends
    ("table2", {}, 64, 0.0625, GAMMA_ORDER3, 1.0),
    # data that is not symmetric, of limited smoothness
    ("table5", {"theta2": 9 / 11}, 64, 0.003125, GAMMA_ORDER3, 0.25),
    ("table5", {"theta2": 0.5, "b_neq_d": True}, 64, 0.003125, GAMMA_ORDER3, 0.25),
])
def test_mirrored_problem_gives_mirrored_solution(preset, changes, n, k, gamma, t_end):
    problem = experiments._resolve_problem(replace(PRESETS[preset], **changes))
    run = experiments.solve_once(problem, n, k, gamma, t_end)
    _assert_mirrored(run, experiments.solve_once(_mirrored(problem), n, k, gamma, t_end))


@pytest.mark.parametrize("preset, n, t_end", [("table1", 128, 1.0), ("table2", 64, 2.0)])
def test_mirrored_lockstep_block_gives_mirrored_solutions(preset, n, t_end):
    # an error table's six (gamma, k) runs, integrated as one block
    cfg = PRESETS[preset]
    runs = [(gamma, timestep.IntegrationPlan(k=k, t_end=t_end))
            for gamma in cfg.gammas for k in cfg.k_values]
    problem = experiments._resolve_problem(cfg)
    for run, mirror in zip(experiments._solve(problem, n, runs),
                           experiments._solve(_mirrored(problem), n, runs), strict=True):
        _assert_mirrored(run, mirror)
