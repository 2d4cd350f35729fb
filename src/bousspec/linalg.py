"""Dense pivoted LU factorization and solves with vector or matrix right-hand sides.

Matrices are plain 2-D ``numpy.ndarray`` objects (row major), and the
arithmetic is numpy's alone.  The factorization is Toledo's recursive
partial-pivot LU (*SIAM J. Matrix Anal. Appl.* 18 (1997) 1065-1081): it
halves the columns, so nearly all of its flops are ``@`` products, and
factors blocks of at most ``_LEAF`` columns column by column.  The
triangular solves halve the same way; a leaf block is applied as the
inverse of its ``_LEAF`` x ``_LEAF`` triangle.  The pivot sequence is the
one LAPACK ``getrf`` picks (first largest magnitude in the column).

Both work in place, as LAPACK ``getrf``/``getrs`` do: ``lu_factor``
overwrites its matrix with the packed factors and returns it with the row
permutation, the two things ``lu_solve`` reads, and ``lu_solve``
overwrites its right-hand side with the solution and returns it.  A caller
that still needs either passes a copy.  The contracts the rest of the
package relies on are explicit shape checks, ``FloatingPointError`` for
non-finite entries and an exact-singularity error carrying the failing
column.
"""

from __future__ import annotations

import numpy as np

#: pivots smaller than this are treated as exactly singular
_SINGULAR_TOL = 1e-300
#: widest block handled without further halving; against 16, a factor and
#: solve took 5-16 % less time at n = 31-512 (fewer leaf inverses and levels)
_LEAF = 32


class SingularMatrixError(ValueError):
    """Raised when elimination meets a pivot that is numerically zero."""

    def __init__(self, column: int):
        self.column = column
        super().__init__(f"matrix is singular: zero pivot in column {column}")

    def __reduce__(self):
        return type(self), (self.column,), vars(self)


def _as_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        # an overflow upstream, not a bad argument: the caller's numerical failure
        raise FloatingPointError("matrix has non-finite entries")
    return a


def _permute_rows(a: np.ndarray, p: np.ndarray) -> None:
    """a[:] = a[p] in place, copying only the rows that move."""
    moved = np.flatnonzero(p != np.arange(p.size))
    if moved.size:
        a[moved] = a[p[moved]]


def _factor_leaf(a: np.ndarray, col0: int) -> np.ndarray:
    """Partial-pivot LU of a tall block in place; returns its row order.

    Crout order on a transposed copy: each column is a contiguous row, is
    brought up to date by one ``@`` with the factored columns left of it,
    and only then searched for its pivot.
    """
    t = a.T.copy()
    n, m = t.shape
    order = list(range(m))
    for c in range(n):
        col = t[c, c:]
        col -= t[c, :c] @ t[:c, c:]
        r = c + int(np.abs(col).argmax())
        pivot = t[c, r]
        if not abs(pivot) > _SINGULAR_TOL:
            raise SingularMatrixError(col0 + c)
        if r != c:
            row = t[:, c].copy()
            t[:, c] = t[:, r]
            t[:, r] = row
            order[c], order[r] = order[r], order[c]
        t[c, c + 1:] /= pivot
        t[c + 1:, c] -= t[c + 1:, :c] @ t[:c, c]
    a[:] = t.T
    return np.array(order, dtype=np.intp)


def _factor(a: np.ndarray, col0: int) -> np.ndarray:
    """Recursive partial-pivot LU of an m x n block (m >= n) in place.

    Returns the block's row order: the factored rows are the original rows
    ``order``.  ``col0`` is the block's first column in the whole matrix,
    for the error a zero pivot raises.
    """
    n = a.shape[1]
    if n <= _LEAF:
        return _factor_leaf(a, col0)
    h = n // 2
    left, right = a[:, :h], a[:, h:]
    order = _factor(left, col0)
    _permute_rows(right, order)
    _solve_lower_unit(left[:h], right[:h])
    right[h:] -= left[h:] @ right[:h]
    lower = _factor(right[h:], col0 + h)
    _permute_rows(left[h:], lower)
    order[h:] = order[h:][lower]
    return order


def _solve_lower_unit(lu: np.ndarray, b: np.ndarray) -> None:
    """b <- L^-1 b in place for the unit lower triangle L of ``lu``."""
    n = lu.shape[0]
    if n <= _LEAF:
        leaf = np.tril(lu, -1)
        np.fill_diagonal(leaf, 1.0)
        b[:] = np.linalg.inv(leaf) @ b
        return
    h = n // 2
    _solve_lower_unit(lu[:h, :h], b[:h])
    b[h:] -= lu[h:, :h] @ b[:h]
    _solve_lower_unit(lu[h:, h:], b[h:])


def _solve_upper(lu: np.ndarray, b: np.ndarray) -> None:
    """b <- U^-1 b in place for the upper triangle U of ``lu``."""
    n = lu.shape[0]
    if n <= _LEAF:
        b[:] = np.linalg.inv(np.triu(lu)) @ b
        return
    h = n // 2
    _solve_upper(lu[h:, h:], b[h:])
    b[:h] -= lu[:h, h:] @ b[h:]
    _solve_upper(lu[:h, :h], b[:h])


def lu_factor(a) -> tuple[np.ndarray, np.ndarray]:
    """Partial-pivot LU factorization of a square matrix, in place:
    ``(lu, perm)``, with ``lu`` the matrix ``a`` itself (when it is a
    float64 array) overwritten by the packed L\\U factors of P A, and
    the row order ``perm`` (row i of P A is row ``perm[i]`` of A)."""
    lu = _as_matrix(a)
    n, m = lu.shape
    if n != m:
        raise ValueError(f"matrix must be square, got {lu.shape}")
    with np.errstate(all="ignore"):
        perm = _factor(lu, 0)
    return lu, perm


def lu_solve(factors: tuple[np.ndarray, np.ndarray], rhs) -> np.ndarray:
    """Solve A x = rhs from ``lu_factor(A)``, in place: rhs (a vector or
    matrix; itself when it is a float64 array) is overwritten by x and
    returned."""
    lu, perm = factors
    x = np.asarray(rhs, dtype=float)
    n = lu.shape[0]
    if x.shape[0] != n:
        raise ValueError(f"rhs has {x.shape[0]} rows, factorization is {n}x{n}")
    _permute_rows(x, perm)
    _solve_lower_unit(lu, x)
    _solve_upper(lu, x)
    return x
