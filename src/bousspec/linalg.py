"""Dense solves of the folded mass blocks, by LAPACK through numpy.

``semidiscrete.assemble`` solves each half block once against all of its
right-hand sides, ``lu_solve(lu_factor(block), rhs)``: one LAPACK ``gesv``
call (``numpy.linalg.solve``), which factors and solves.  The two names
stay apart only because the benchmark's tracer
(``perfbench/bench_trace.LAYERS``) times ``linalg.lu_factor`` and
``linalg.lu_solve``; ``lu_factor`` checks the matrix and ``lu_solve`` does
the work.  Neither overwrites its argument.

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
        return np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError:
        raise SingularMatrixError("matrix is singular") from None
