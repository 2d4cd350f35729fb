"""Dense solves at sizes up to n = 511, about half the interior of N = 1024.

The cases in test_linalg.py stay at n <= 12; these reach past LAPACK's
block width, a pivot pattern that needs a row interchange at every column,
and zero pivots deep in the elimination.
"""

import numpy as np
import pytest

from bousspec import linalg


def _residual_ok(a, rhs):
    x = linalg.lu_solve(linalg.lu_factor(a), rhs)
    assert x.shape == rhs.shape
    resid = np.abs(a @ x - rhs).max()
    return resid <= 1e-10 * (np.abs(a).max() * np.abs(x).max() + np.abs(rhs).max())


@pytest.mark.parametrize("n", [1, 2, 33, 64, 65, 257, 511])
@pytest.mark.parametrize("ncols", [None, "n+2"])
def test_factor_and_solve_past_leaf(rng, n, ncols):
    a = rng.standard_normal((n, n))
    rhs = rng.standard_normal(n if ncols is None else (n, n + 2))
    assert _residual_ok(a, rhs)


def test_row_swap_at_every_column(rng):
    # A = P^T L U with |l| < 1: partial pivoting needs an interchange at
    # every column but the last, here a cyclic shift
    n = 65
    perm = np.roll(np.arange(n), -1)
    lower = np.tril(rng.uniform(-0.5, 0.5, (n, n)), -1) + np.eye(n)
    upper = np.triu(rng.standard_normal((n, n)), 1) + np.diag(rng.uniform(1.0, 2.0, n))
    a = np.empty((n, n))
    a[perm] = lower @ upper
    rhs = rng.standard_normal((n, 3))
    assert _residual_ok(a, rhs)


@pytest.mark.parametrize("column", [16, 37, 63])
def test_singular_column_past_first_block(rng, column):
    a = rng.standard_normal((64, 64))
    a[:, column] = 0.0
    factors = linalg.lu_factor(a)
    with pytest.raises(linalg.SingularMatrixError, match="matrix is singular"):
        linalg.lu_solve(factors, np.ones(64))
