"""Memory regression bounds of the set-up and the norms at N = 512.

Measured with tracemalloc (numpy reports its array buffers to it), in units
of one dense (N+1) x (N+1) float64 matrix.  The basis keeps O(N) data, D1
is formed in blocks, and interpolation runs in blocks of 2^16 entries.
The assembly folds the top half rows of G, and then of B2, straight into
the operator stack and frees each once folded; it solves each half block
by one LAPACK call per source block (G, B2) and one for the edge columns.
tracemalloc counts the zeroed operator stack in full from its allocation,
although its pages are touched only as they are written, and does not see
LAPACK's internal copies of a block and its right-hand side.  Each bound
is the measured value plus about 25 %; a miss reports the measured value.
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


# (peak, kept) bounds, set from the measured table1 2.58 and 1.02, table3
# 2.10 and 1.02, table5 1.60 and 0.51
SETUP_BOUNDS = {"table1": (3.2, 1.28), "table3": (2.6, 1.28), "table5": (2.0, 0.65)}


@pytest.mark.parametrize("preset", list(SETUP_BOUNDS))
def test_basis_and_assembly_peak(preset):
    # table1 has c != 0 (a stiffness fold), table5 c = 0, and table3 b != d
    # (two mass coefficients, one operator stack per equation)
    bound, kept_bound = SETUP_BOUNDS[preset]
    problem = experiments._resolve_problem(experiments.PRESETS[preset])

    def setup():
        basis = jacobi.build_basis.__wrapped__(0.0, N)
        return semidiscrete.assemble(basis, problem.params, problem.imap)

    sys_, peak, kept = _traced(setup)
    assert sys_.n == N
    assert peak <= bound, f"{preset}: build_basis + assemble peaked at {peak:.2f} matrices"
    assert kept <= kept_bound, f"{preset}: build_basis + assemble kept {kept:.2f} matrices"


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
    assert peak <= 0.8, f"convergence_ratio peaked at {peak:.2f} matrices"     # measured 0.65
