"""LU factorization and solves.  Both work in place, so a test that reads
the matrix or the right-hand side afterwards passes a copy."""

import numpy as np
import pytest

from bousspec import linalg


def test_lu_identity():
    f = linalg.lu_factor(np.eye(3))
    assert np.array_equal(f[1], np.arange(3))
    assert np.array_equal(linalg.lu_solve(f, np.array([1.0, 2.0, 3.0])), [1, 2, 3])


def test_lu_diagonal():
    f = linalg.lu_factor(np.diag([2.0, 3.0]))
    assert np.allclose(np.diag(f[0]), [2.0, 3.0])
    assert np.allclose(linalg.lu_solve(f, np.array([8.0, 9.0])), [4.0, 3.0])


def test_lu_reconstruction(rng):
    a = rng.standard_normal((8, 8)) + 4.0 * np.eye(8)
    lu, perm = linalg.lu_factor(a.copy())
    lower = np.tril(lu, -1) + np.eye(8)
    upper = np.triu(lu)
    pa = a[perm]
    assert np.abs(pa - lower @ upper).max() < 1e-12 * np.abs(a).max()


def test_solve_residual(rng):
    a = rng.standard_normal((10, 10))
    a = a @ a.T + 10.0 * np.eye(10)
    rhs = rng.standard_normal(10)
    x = linalg.lu_solve(linalg.lu_factor(a.copy()), rhs.copy())
    resid = np.abs(a @ x - rhs).max()
    scale = np.abs(a).max() * np.abs(x).max() + np.abs(rhs).max()
    assert resid <= 1e-10 * scale


def test_solve_matrix_rhs(rng):
    a = rng.standard_normal((6, 6)) + 3.0 * np.eye(6)
    rhs = rng.standard_normal((6, 4))
    x = linalg.lu_solve(linalg.lu_factor(a.copy()), rhs.copy())
    assert np.abs(a @ x - rhs).max() < 1e-10


def test_singular_matrix_reports_column():
    a = np.eye(4)
    a[2, 2] = 0.0
    with pytest.raises(linalg.SingularMatrixError) as err:
        linalg.lu_factor(a)
    assert 0 <= err.value.column <= 3


def test_roundtrip_poorly_conditioned(rng):
    # conditioning around 1e8: residual bound must still hold
    q, _ = np.linalg.qr(rng.standard_normal((12, 12)))
    a = q @ np.diag(np.logspace(0, 8, 12)) @ q.T
    x_true = rng.standard_normal(12)
    rhs = a @ x_true
    x = linalg.lu_solve(linalg.lu_factor(a.copy()), rhs.copy())
    resid = np.abs(a @ x - rhs).max()
    assert resid <= 1e-10 * (np.abs(a).max() * np.abs(x).max() + np.abs(rhs).max())


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_entries_are_a_numerical_failure(bad):
    # FloatingPointError is an ArithmeticError, which the CLI reports as exit
    # 3, not a ValueError (exit 2, a bad config)
    a = np.eye(3)
    a[1, 2] = bad
    with pytest.raises(FloatingPointError, match="non-finite"):
        linalg.lu_factor(a)


@pytest.mark.parametrize("cols", [None, 3])
def test_factor_and_solve_overwrite_their_arguments(rng, cols):
    # as LAPACK getrf/getrs: the factors replace the matrix, the solution the rhs
    a = rng.standard_normal((40, 40)) + 6.0 * np.eye(40)
    rhs = rng.standard_normal(40 if cols is None else (40, cols))
    a0, rhs0 = a.copy(), rhs.copy()
    lu, perm = linalg.lu_factor(a)
    assert lu is a and not np.array_equal(a, a0)
    x = linalg.lu_solve((lu, perm), rhs)
    assert x is rhs and np.shares_memory(x, rhs)
    assert np.abs(a0 @ x - rhs0).max() < 1e-10 * np.abs(rhs0).max()
    lower = np.tril(lu, -1) + np.eye(40)
    assert np.abs(a0[perm] - lower @ np.triu(lu)).max() <= 1e-12 * np.abs(a0).max()
