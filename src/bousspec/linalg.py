"""Dense solves of the folded mass blocks, by LAPACK through numpy.

``semidiscrete.assemble`` checks each half block once, ``lu_factor(block)``,
and solves it against one source block of right-hand sides at a time and
then against its edge columns, ``lu_solve(block, rhs)``: one LAPACK
``gesv`` call (``numpy.linalg.solve``) each, which factors and solves, so
that LAPACK's internal copies hold one source block, not all of them.  The two names stay apart
because the benchmark's tracer (``perfbench/bench_trace.LAYERS``) times
``linalg.lu_factor`` and ``linalg.lu_solve``; ``lu_factor`` checks the
matrix and ``lu_solve`` does the work.  Neither overwrites its argument.

Each column of a matrix right-hand side is solved to the same bits
whichever other columns it is solved with, so splitting the right-hand
sides into calls changes no result.  OpenBLAS solves a single right-hand
side by another path (``trsv``, not ``trsm``), with other rounding, so a
matrix of one column is solved as two.

The contracts the rest of the package relies on: ``ValueError`` for a
matrix that is not square, ``FloatingPointError`` for non-finite entries
(an overflow upstream, reported as a numerical failure) and
``SingularMatrixError``, an ``ArithmeticError`` like it, for an exactly
singular matrix.
"""

from __future__ import annotations

import numpy as np


class SingularMatrixError(ArithmeticError):
    """Raised when LAPACK finds the matrix exactly singular."""


def lu_factor(a) -> np.ndarray:
    """Check that ``a`` is a square matrix with finite entries and return
    it as a float array, the argument ``lu_solve`` takes."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise FloatingPointError("matrix has non-finite entries")
    return a


def lu_solve(a: np.ndarray, rhs) -> np.ndarray:
    """Solve A x = rhs, a vector or a matrix, for ``a = lu_factor(A)``."""
    try:
        if np.ndim(rhs) == 2 and np.shape(rhs)[1] == 1:
            return np.linalg.solve(a, np.repeat(rhs, 2, axis=1))[:, :1]
        return np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError:
        raise SingularMatrixError("matrix is singular") from None
