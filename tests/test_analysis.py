import math

import numpy as np
import pytest

from bousspec import analysis, jacobi, model
from bousspec.analysis import NodalSolution, NormSpec
from bousspec.model import IntervalMap


def poly_solution(imap, n, eta_fn, u_fn):
    basis = jacobi.build_basis(0.0, n)
    x = imap.to_physical(basis.nodes)
    return NodalSolution(basis=basis, imap=imap, eta=eta_fn(x), u=u_fn(x), t=0.0)


def test_norm_spec_validation():
    with pytest.raises(ValueError):
        NormSpec(3, 0)
    with pytest.raises(ValueError):
        NormSpec(0, -1)
    spec = NormSpec(2, 1)
    assert spec.label == "H2xH1"
    imap = IntervalMap(-1.0, 1.0)
    assert analysis._grid(spec, imap, 512)[0].size == 1025
    assert analysis._grid(spec, imap, 8)[0].size == 65


def test_eval_solution_at_own_nodes_and_outside():
    imap = IntervalMap(-3.0, 9.0)
    sol = poly_solution(imap, 12, lambda x: x**2, lambda x: np.zeros_like(x))
    x = imap.to_physical(sol.basis.nodes)
    got = analysis.eval_solution(sol, x, "eta", 0)
    assert np.abs(got - x**2).max() < 1e-11
    with pytest.raises(ValueError):
        analysis.eval_solution(sol, np.array([9.5]), "eta")


def test_eval_solution_physical_derivatives(rng):
    imap = IntervalMap(-2.0, 4.0)
    sol = poly_solution(imap, 10, lambda x: x**3, lambda x: x)
    pts = rng.uniform(-2.0, 4.0, size=25)
    d1 = analysis.eval_solution(sol, pts, "eta", 1)
    assert np.abs(d1 - 3 * pts**2).max() < 1e-11 * 48
    d2 = analysis.eval_solution(sol, pts, "eta", 2)
    assert np.abs(d2 - 6 * pts).max() < 1e-9


def test_second_derivative_composition_oracle():
    # deriv=2 equals interpolating deriv=1 on a refinement grid and
    # differentiating that once more
    imap = IntervalMap(-1.0, 3.0)
    basis = jacobi.build_basis(0.0, 48)
    x = imap.to_physical(basis.nodes)
    vals = np.sin(1.7 * x)
    sol = NodalSolution(basis=basis, imap=imap, eta=vals, u=vals, t=0.0)
    fine = jacobi.build_basis(0.0, 96)
    xf = imap.to_physical(fine.nodes)
    mid = analysis.eval_solution(sol, xf, "eta", 1)
    resampled = NodalSolution(basis=fine, imap=imap, eta=mid, u=mid, t=0.0)
    probe = np.linspace(-0.9, 2.9, 31)
    two_step = analysis.eval_solution(resampled, probe, "eta", 1)
    direct = analysis.eval_solution(sol, probe, "eta", 2)
    assert np.abs(two_step - direct).max() < 1e-8


def test_sobolev_norm_constants():
    rule = jacobi.glj_rule(0.0, 64)
    assert analysis.sobolev_norm([np.zeros(65)], rule.weights) == 0.0
    ones = np.ones(65)
    assert analysis.sobolev_norm([ones], rule.weights) == pytest.approx(math.sqrt(2.0), rel=1e-14)


def test_sobolev_norm_sine_h1():
    # || sin(pi x) ||_{H1}^2 = 1 + pi^2 on [-1, 1]
    rule = jacobi.glj_rule(0.0, 64)
    vals = np.sin(np.pi * rule.nodes)
    dvals = np.pi * np.cos(np.pi * rule.nodes)
    got = analysis.sobolev_norm([vals, dvals], rule.weights)
    assert got == pytest.approx(math.sqrt(1 + np.pi**2), rel=1e-10)


def test_error_vs_exact_interpolation_baseline():
    # interpolated exact data at t=0: error equals the (tiny) interpolation error
    sol_exact = model.solitary_bona_smith(9 / 11)
    imap = IntervalMap(-32.0, 32.0)
    basis = jacobi.build_basis(0.0, 256)
    x = imap.to_physical(basis.nodes)
    ns = NodalSolution(
        basis=basis, imap=imap, eta=sol_exact.eta(x, 0.0), u=sol_exact.u(x, 0.0), t=0.0
    )
    err = analysis.error_vs_exact(ns, sol_exact, 0.0, NormSpec(2, 1))
    assert err < 1e-4
    # and it is purely spectral: the weaker norms sit far lower
    assert analysis.error_vs_exact(ns, sol_exact, 0.0, NormSpec(0, 0)) < 1e-6


def test_error_symmetry_between_sampled_exact_solutions():
    sol_exact = model.solitary_bona_smith(9 / 11)
    imap = IntervalMap(-32.0, 32.0)
    b1 = jacobi.build_basis(0.0, 200)
    b2 = jacobi.build_basis(0.0, 256)
    mk = lambda basis, t: NodalSolution(
        basis=basis, imap=imap,
        eta=sol_exact.eta(imap.to_physical(basis.nodes), t),
        u=sol_exact.u(imap.to_physical(basis.nodes), t), t=t,
    )
    spec = NormSpec(1, 1)
    pts, w = analysis._grid(spec, imap, 512)
    assert pts.size == 1025
    s1 = analysis._sample(mk(b1, 0.0), pts, spec)
    s2 = analysis._sample(mk(b2, 0.3), pts, spec)
    a = analysis._diff_norm(s1, s2, w)
    b = analysis._diff_norm(s2, s1, w)
    assert a == pytest.approx(b, rel=1e-13)


def test_convergence_ratio_validation_and_zero_denominator():
    imap = IntervalMap(-1.0, 1.0)
    mk = lambda n: poly_solution(imap, n, lambda x: x**2, lambda x: x)
    with pytest.raises(ValueError):
        analysis.convergence_ratio([mk(8), mk(16), mk(24)], NormSpec(0, 0))
    # identical (zero) solutions: the denominator vanishes and is flagged
    zero = lambda n: poly_solution(imap, n, np.zeros_like, np.zeros_like)
    with pytest.raises(ZeroDivisionError):
        analysis.convergence_ratio([zero(8), zero(16), zero(32)], NormSpec(0, 0))


def test_convergence_ratio_scale_invariance():
    imap = IntervalMap(-1.0, 1.0)
    rng = np.random.default_rng(7)

    def rough(n, scale):
        basis = jacobi.build_basis(0.0, n)
        x = imap.to_physical(basis.nodes)
        vals = scale * (np.abs(x) ** 1.5)
        return NodalSolution(basis=basis, imap=imap, eta=vals, u=0.5 * vals, t=0.0)

    spec = NormSpec(0, 0)
    base = analysis.convergence_ratio([rough(8, 1.0), rough(16, 1.0), rough(32, 1.0)], spec)
    scaled = analysis.convergence_ratio([rough(8, 3.7), rough(16, 3.7), rough(32, 3.7)], spec)
    assert base == pytest.approx(scaled, rel=1e-12)


def test_rate_table():
    rec = analysis.rate_table([0.2, 0.1], [4.0, 1.0])
    assert rec.ratios == [4.0]
    assert rec.rates == [2.0]
    rec = analysis.rate_table([0.3, 0.1], [9.0, 1.0])
    assert rec.rates == [None]
    with pytest.raises(ValueError):
        analysis.rate_table([1.0], [2.0])


def test_product_norm_is_euclidean():
    # sqrt(|eta|^2 + |u|^2): constants 3 and 4 on an interval of length 2
    imap = IntervalMap(-1.0, 1.0)
    sol = poly_solution(imap, 8, lambda x: np.full_like(x, 3.0), lambda x: np.full_like(x, 4.0))
    assert analysis.self_norm(sol, NormSpec(0, 0)) == pytest.approx(5 * math.sqrt(2), rel=1e-14)
    # the derivative columns of constants add nothing
    assert analysis.self_norm(sol, NormSpec(1, 2)) == pytest.approx(5 * math.sqrt(2), rel=1e-12)


def test_sobolev_norm_polynomial_exactness(rng):
    # the quadrature estimate is exact when the squared integrand stays
    # within the rule's degree, matching the monomial moment oracle
    rule = jacobi.glj_rule(0.0, 16)
    coeff = rng.uniform(-1.0, 1.0, size=9)  # degree 8, squared degree 16 <= 31
    poly = np.polynomial.Polynomial(coeff)
    got = analysis.sobolev_norm([poly(rule.nodes)], rule.weights)
    sq = poly * poly
    exact = sum(
        c * jacobi.weight_moment(0.0, k) for k, c in enumerate(sq.coef)
    )
    assert got == pytest.approx(math.sqrt(exact), rel=1e-12)
