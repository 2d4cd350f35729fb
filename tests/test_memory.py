"""Memory regression bounds of the set-up and the norms at N = 512.

Measured with tracemalloc (numpy reports its array buffers to it), in units
of one dense (N+1) x (N+1) float64 matrix.  The basis keeps d1 only, the
assembly forms no full D2 or copy of D1, and interpolation runs in blocks of
at most N+1 points, so the bounds below hold with room; a miss reports the
measured value.
"""

import tracemalloc

import numpy as np
import pytest

from bousspec import analysis, experiments, jacobi, semidiscrete

N = 512
UNIT = (N + 1) ** 2 * 8


def _traced(fn):
    """(result, peak, kept) of fn() in matrix units, relative to the start."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, (peak - base) / UNIT, (kept - base) / UNIT


@pytest.mark.parametrize("preset,bound", [("table1", 7.0), ("table5", 5.0)])
def test_basis_and_assembly_peak(preset, bound):
    # table1 has c != 0 (a stiffness fold), table5 c = 0
    problem = experiments._resolve_problem(experiments.PRESETS[preset])

    def setup():
        basis = jacobi.build_basis.__wrapped__(0.0, N)
        return semidiscrete.assemble(basis, problem.params, problem.imap)

    sys_, peak, kept = _traced(setup)
    assert sys_.n == N
    assert peak <= bound, f"{preset}: build_basis + assemble peaked at {peak:.2f} matrices"
    assert kept <= 2.5, f"{preset}: build_basis + assemble kept {kept:.2f} matrices"


def test_convergence_ratio_peak():
    problem = experiments._resolve_problem(experiments.PRESETS["table5"])
    sols = []
    for n in (N // 4, N // 2, N):
        basis = jacobi.build_basis(0.0, n)
        x = problem.imap.to_physical(basis.nodes)
        sols.append(analysis.NodalSolution(basis, problem.imap, np.asarray(problem.eta_init(x)),
                                           np.asarray(problem.u_init(x)), 1.0))
    spec = analysis.NormSpec(1, 1)
    ratio, peak, _ = _traced(lambda: analysis.convergence_ratio(sols, spec))
    assert np.isfinite(ratio)
    assert peak <= 2.5, f"convergence_ratio peaked at {peak:.2f} matrices"
