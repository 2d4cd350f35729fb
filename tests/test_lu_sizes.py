"""LU factorization and solves at sizes that reach the recursive code paths.

The cases in test_linalg.py stay at n <= 12, below the leaf width, so these
cover the halving in both the factorization and the triangular solves.
"""

import numpy as np
import pytest

from bousspec import linalg


@pytest.mark.parametrize("n", [1, 2, 33, 64, 65, 257, 511])
@pytest.mark.parametrize("ncols", [None, "n+2"])
def test_factor_and_solve_past_leaf(rng, n, ncols):
    a = rng.standard_normal((n, n))
    rhs = rng.standard_normal(n if ncols is None else (n, n + 2))
    f = linalg.lu_factor(a.copy())
    lu, perm = f
    lower = np.tril(lu, -1) + np.eye(n)
    upper = np.triu(lu)
    assert np.abs(a[perm] - lower @ upper).max() <= 1e-12 * np.abs(a).max()

    x = linalg.lu_solve(f, rhs.copy())
    assert x.shape == rhs.shape
    resid = np.abs(a @ x - rhs).max()
    assert resid <= 1e-10 * (np.abs(a).max() * np.abs(x).max() + np.abs(rhs).max())
    ref = np.linalg.solve(a, rhs)
    assert np.abs(x - ref).max() <= 1e-10 * np.abs(ref).max()


def test_row_swap_at_every_column(rng):
    # A = P^T L U with |l| < 1: partial pivoting recovers P, here a cyclic
    # shift that needs an interchange at every column but the last
    n = 65
    perm = np.roll(np.arange(n), -1)
    lower = np.tril(rng.uniform(-0.5, 0.5, (n, n)), -1) + np.eye(n)
    upper = np.triu(rng.standard_normal((n, n)), 1) + np.diag(rng.uniform(1.0, 2.0, n))
    a = np.empty((n, n))
    a[perm] = lower @ upper
    lu, found = linalg.lu_factor(a)
    assert np.array_equal(found, perm)
    # with P recovered, L and U are unique: the factors are the ones built
    assert np.abs(np.tril(lu, -1) + np.eye(n) - lower).max() <= 1e-10
    assert np.abs(np.triu(lu) - upper).max() <= 1e-10 * np.abs(upper).max()


@pytest.mark.parametrize("column", [16, 37, 63])
def test_singular_column_past_first_block(rng, column):
    a = rng.standard_normal((64, 64))
    a[:, column] = 0.0
    with pytest.raises(linalg.SingularMatrixError) as err:
        linalg.lu_factor(a)
    assert err.value.column == column
