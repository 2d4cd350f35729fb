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
    f = linalg.lu_factor(a)
    lower = np.tril(f.lu, -1) + np.eye(n)
    upper = np.triu(f.lu)
    assert np.abs(a[f.perm] - lower @ upper).max() <= 1e-12 * np.abs(a).max()

    x = linalg.lu_solve(f, rhs)
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
    f = linalg.lu_factor(a)
    assert np.all(f.piv[:-1] != np.arange(n - 1))
    assert np.array_equal(f.perm, perm)
    assert f.sign == (-1) ** (n - 1)
    det = np.linalg.det(a)
    assert f.sign == np.sign(det)
    assert abs(f.sign * np.prod(np.diag(f.lu)) - det) <= 1e-10 * abs(det)


@pytest.mark.parametrize("column", [16, 37, 63])
def test_singular_column_past_first_block(rng, column):
    a = rng.standard_normal((64, 64))
    a[:, column] = 0.0
    with pytest.raises(linalg.SingularMatrixError) as err:
        linalg.lu_factor(a)
    assert err.value.column == column
