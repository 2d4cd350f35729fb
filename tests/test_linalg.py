"""The dense solve of a mass block: residuals, and the errors the package relies on."""

import numpy as np
import pytest

from bousspec import linalg


def _solve(a, rhs):
    """``lu_solve(lu_factor(a), rhs)``, checking that neither argument is overwritten."""
    a0, rhs0 = np.array(a, copy=True), np.array(rhs, copy=True)
    x = linalg.lu_solve(linalg.lu_factor(a), rhs)
    assert x.shape == np.shape(rhs)
    assert np.array_equal(a, a0) and np.array_equal(rhs, rhs0)
    return x


def _residual_ok(a, x, rhs):
    resid = np.abs(a @ x - rhs).max()
    return resid <= 1e-10 * (np.abs(a).max() * np.abs(x).max() + np.abs(rhs).max())


def test_lu_identity():
    f = linalg.lu_factor(np.eye(3))
    assert np.array_equal(f, np.eye(3))
    assert np.array_equal(linalg.lu_solve(f, np.array([1.0, 2.0, 3.0])), [1, 2, 3])


def test_lu_diagonal():
    f = linalg.lu_factor(np.diag([2.0, 3.0]))
    assert np.array_equal(f, np.diag([2.0, 3.0]))
    assert np.allclose(linalg.lu_solve(f, np.array([8.0, 9.0])), [4.0, 3.0])


def test_lu_reconstruction(rng):
    # solving A X = A gives back the identity
    a = rng.standard_normal((8, 8)) + 4.0 * np.eye(8)
    x = _solve(a, a)
    assert np.abs(x - np.eye(8)).max() < 1e-12


def test_solve_residual(rng):
    a = rng.standard_normal((10, 10))
    a = a @ a.T + 10.0 * np.eye(10)
    rhs = rng.standard_normal(10)
    assert _residual_ok(a, _solve(a, rhs), rhs)


def test_solve_matrix_rhs(rng):
    a = rng.standard_normal((6, 6)) + 3.0 * np.eye(6)
    rhs = rng.standard_normal((6, 4))
    assert np.abs(a @ _solve(a, rhs) - rhs).max() < 1e-10


def test_roundtrip_poorly_conditioned(rng):
    # conditioning around 1e8: residual bound must still hold
    q, _ = np.linalg.qr(rng.standard_normal((12, 12)))
    a = q @ np.diag(np.logspace(0, 8, 12)) @ q.T
    x_true = rng.standard_normal(12)
    rhs = a @ x_true
    assert _residual_ok(a, _solve(a, rhs), rhs)


def test_singular_matrix_is_reported_by_the_solve(rng):
    # a numerical failure (exit 3) like FloatingPointError, not a bad config
    assert issubclass(linalg.SingularMatrixError, ArithmeticError)
    assert not issubclass(linalg.SingularMatrixError, ValueError)
    # a zero row stays zero through elimination and ends as an exactly zero pivot
    a = rng.standard_normal((64, 64))
    a[21, :] = 0.0
    factors = linalg.lu_factor(a)
    with pytest.raises(linalg.SingularMatrixError, match="matrix is singular"):
        linalg.lu_solve(factors, np.ones((64, 2)))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_entries_are_a_numerical_failure(bad):
    # FloatingPointError is an ArithmeticError, which the CLI reports as exit
    # 3, not a ValueError (exit 2, a bad config)
    a = np.eye(3)
    a[1, 2] = bad
    with pytest.raises(FloatingPointError, match="non-finite"):
        linalg.lu_factor(a)


@pytest.mark.parametrize("shape", [(3, 4), (3,)])
def test_non_square_matrix_is_refused(shape):
    with pytest.raises(ValueError, match="must be square"):
        linalg.lu_factor(np.ones(shape))
