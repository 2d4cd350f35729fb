"""Dense pivoted LU factorization and solves with vector or matrix right-hand sides.

Matrices are plain 2-D ``numpy.ndarray`` objects (row major).  The
factorization is LAPACK-backed (``scipy.linalg``); this module pins the
contracts the rest of the package relies on: explicit shape checks, an
exact-singularity error carrying the failing column, and a permutation
vector with its sign for determinant bookkeeping.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

#: pivots smaller than this are treated as exactly singular
_SINGULAR_TOL = 1e-300


class SingularMatrixError(ValueError):
    """Raised when elimination meets a pivot that is numerically zero."""

    def __init__(self, column: int):
        self.column = column
        super().__init__(f"matrix is singular: zero pivot in column {column}")


def _as_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    return a


@dataclass(frozen=True)
class LuFactorization:
    """Packed L\\U factors of P @ A with row-permutation metadata.

    ``perm`` maps factored rows back to original rows (``P A = L U`` with
    ``P[i, perm[i]] = 1``); ``sign`` is det(P).
    """

    lu: np.ndarray
    piv: np.ndarray
    perm: np.ndarray
    sign: int

    @property
    def shape(self):
        return self.lu.shape


def lu_factor(a) -> LuFactorization:
    """Partial-pivot LU factorization of a square matrix."""
    a = _as_matrix(a)
    n, m = a.shape
    if n != m:
        raise ValueError(f"matrix must be square, got {a.shape}")
    with np.errstate(all="ignore"), warnings.catch_warnings():
        # singularity is detected below and raised with the failing column
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(a, check_finite=False)
    diag = np.abs(np.diag(lu))
    bad = np.nonzero(~(diag > _SINGULAR_TOL))[0]
    if bad.size:
        raise SingularMatrixError(int(bad[0]))
    perm = np.arange(n)
    sign = 1
    for i, p in enumerate(piv):
        if p != i:
            perm[[i, p]] = perm[[p, i]]
            sign = -sign
    return LuFactorization(lu=lu, piv=piv, perm=perm, sign=sign)


def lu_solve(f: LuFactorization, rhs) -> np.ndarray:
    """Solve A x = rhs from a prior factorization; rhs may be a vector or matrix."""
    rhs = np.asarray(rhs, dtype=float)
    n = f.lu.shape[0]
    if rhs.shape[0] != n:
        raise ValueError(f"rhs has {rhs.shape[0]} rows, factorization is {n}x{n}")
    return scipy.linalg.lu_solve((f.lu, f.piv), rhs, check_finite=False)

