import math

import numpy as np
import pytest

from bousspec import jacobi

MUS = (-0.5, -0.25, 0.0, 0.25, 0.5)


# --- polynomial evaluation -------------------------------------------------

def test_degree_zero_is_one():
    assert jacobi.jacobi_eval(0.0, 0, 0.37) == 1.0


def test_legendre_p2_at_zero():
    assert jacobi.jacobi_eval(0.0, 2, 0.0) == pytest.approx(-0.5, abs=1e-15)


def test_chebyshev_zero_structure():
    # J_3 for mu = -1/2 is proportional to cos(3 theta)
    assert jacobi.jacobi_eval(-0.5, 3, math.cos(math.pi / 6)) == pytest.approx(0.0, abs=1e-15)


def _jacobi_rows(a, n, x):
    """Rows 0..n of the symmetric Jacobi family J_k^(a,a)(x), standard normalization."""
    out = np.empty((n + 1,) + x.shape)
    out[0] = 1.0
    if n >= 1:
        out[1] = (a + 1.0) * x
    for k in range(2, n + 1):
        s = 2.0 * k + 2.0 * a
        c1 = 2.0 * k * (k + 2.0 * a) * (s - 2.0)
        c2 = (s - 1.0) * s * (s - 2.0)
        c3 = 2.0 * (k + a - 1.0) ** 2 * s
        out[k] = (c2 * x * out[k - 1] - c3 * out[k - 2]) / c1
    return out


@pytest.mark.parametrize("a", [0.0, -0.5, 1.0, 2.0])
@pytest.mark.parametrize("n", [0, 1, 2, 17])
def test_two_row_recurrence_matches_all_rows(a, n):
    x = np.linspace(-1.0, 1.0, 41)
    assert np.array_equal(jacobi._sym_jacobi(a, n, x), _jacobi_rows(a, n, x)[-1])


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        jacobi.jacobi_eval(1.5, 2, 0.0)
    with pytest.raises(ValueError):
        jacobi.jacobi_eval(0.0, -1, 0.0)
    with pytest.raises(ValueError):
        jacobi.jacobi_eval(0.0, 2, 1.1)


def test_p1_slope_constant():
    xs = np.linspace(-1.0, 1.0, 5)
    vals = jacobi.jacobi_deriv(0.0, 1, xs, 1)
    assert np.allclose(vals, 1.0, atol=1e-15)


def test_p2_derivative():
    assert jacobi.jacobi_deriv(0.0, 2, 0.5, 1) == pytest.approx(1.5, abs=1e-14)


def test_second_derivative_matches_finite_difference():
    mu, n, x, h = 0.5, 4, 0.2, 1e-5
    fd = (jacobi.jacobi_deriv(mu, n, x + h, 1) - jacobi.jacobi_deriv(mu, n, x - h, 1)) / (2 * h)
    got = jacobi.jacobi_deriv(mu, n, x, 2)
    assert got == pytest.approx(fd, rel=1e-6)


@pytest.mark.parametrize("mu", MUS)
@pytest.mark.parametrize("n", [3, 6, 11])
def test_jacobi_ode_residual(mu, n, rng):
    # (1-x^2) J'' - 2 x (mu+1) J' + n (n+2mu+1) J = 0
    xs = rng.uniform(-0.95, 0.95, size=12)
    j0 = jacobi.jacobi_eval(mu, n, xs)
    j1 = jacobi.jacobi_deriv(mu, n, xs, 1)
    j2 = jacobi.jacobi_deriv(mu, n, xs, 2)
    resid = (1 - xs**2) * j2 - 2 * xs * (mu + 1) * j1 + n * (n + 2 * mu + 1) * j0
    scale = np.abs(n * (n + 2 * mu + 1) * j0).max()
    assert np.abs(resid).max() <= 1e-9 * scale


def test_weight_derivative_identity(rng):
    # w'(x) = -2 x mu w(x) / (1 - x^2), checked against a central difference
    mu = 0.3
    xs = rng.uniform(-0.9, 0.9, size=8)
    h = 1e-6
    w = lambda x: (1 - x * x) ** mu
    fd = (w(xs + h) - w(xs - h)) / (2 * h)
    analytic = -2 * xs * mu * w(xs) / (1 - xs * xs)
    assert np.abs(fd - analytic).max() <= 1e-12 * np.abs(analytic).max() + 1e-9


# --- moments ---------------------------------------------------------------

def test_moment_basics():
    assert jacobi.weight_moment(0.0, 0) == pytest.approx(2.0, rel=1e-15)
    assert jacobi.weight_moment(0.7, 3) == 0.0
    assert jacobi.weight_moment(-0.5, 0) == pytest.approx(math.pi, rel=1e-15)


def test_moment_against_quadrature_of_fine_rule():
    mu = 0.25
    rule = jacobi.glj_rule(mu, 80)
    for k in (2, 4, 10):
        assert rule.integrate(rule.nodes**k) == pytest.approx(
            jacobi.weight_moment(mu, k), rel=1e-12
        )


# --- nodes and weights -----------------------------------------------------

def test_gll_n2_nodes_and_weights():
    rule = jacobi.glj_rule(0.0, 2)
    assert np.allclose(rule.nodes, [-1.0, 0.0, 1.0], atol=1e-15)
    assert np.allclose(rule.weights, [1 / 3, 4 / 3, 1 / 3], atol=1e-14)


def test_chebyshev_lobatto_closed_form():
    rule = jacobi.glj_rule(-0.5, 4)
    expected = np.array([-1.0, -math.sqrt(2) / 2, 0.0, math.sqrt(2) / 2, 1.0])
    assert np.abs(rule.nodes - expected).max() < 1e-14


@pytest.mark.parametrize("n", [2, 3, 4, 16])
def test_chebyshev_lobatto_weights(n):
    # pi/N inside, pi/(2N) at the ends; the forward recurrence for J_N loses
    # about N^2 eps near the ends, so larger N cannot hold 1e-14
    expected = np.full(n + 1, math.pi / n)
    expected[[0, n]] /= 2.0
    weights = jacobi.glj_rule(-0.5, n).weights
    assert np.abs(weights / expected - 1.0).max() < 1e-14


def test_gll_weights_match_closed_form_large_n():
    for n in (96, 512, 1024):
        rule = jacobi.glj_rule(0.0, n)
        pn = jacobi.jacobi_eval(0.0, n, rule.nodes)
        ref = 2.0 / (n * (n + 1) * pn**2)
        assert np.abs(rule.weights / ref - 1.0).max() < 1e-14, n


@pytest.mark.parametrize("mu", MUS)
@pytest.mark.parametrize("n", [4, 8, 16])
def test_node_structure(mu, n):
    nodes = jacobi.glj_nodes(mu, n)
    assert nodes[0] == -1.0 and nodes[-1] == 1.0
    assert nodes.size == n + 1
    assert np.all(np.diff(nodes) > 0)
    # interior nodes are zeros of J_n'
    resid = np.abs(jacobi.jacobi_deriv(mu, n, nodes[1:-1], 1))
    scale = np.maximum(1.0, np.abs(jacobi.jacobi_deriv(mu, n, nodes[1:-1], 2)))
    assert np.all(resid <= 1e-13 * scale)
    # even weight: antisymmetric nodes
    assert np.abs(nodes + nodes[::-1]).max() <= 1e-13


@pytest.mark.parametrize("mu", MUS)
@pytest.mark.parametrize("n", [2, 3, 4, 8, 16, 129])
def test_weight_properties(mu, n):
    rule = jacobi.glj_rule(mu, n)
    assert np.all(rule.weights > 0)
    assert rule.weights.sum() == pytest.approx(jacobi.weight_moment(mu, 0), rel=1e-12)
    assert np.array_equal(rule.weights, rule.weights[::-1])


@pytest.mark.parametrize("mu", [-1.0 + 1e-7, -0.99999, -0.999])
@pytest.mark.parametrize("n", [8, 33, 64])
def test_interior_weights_stay_exact_as_mu_nears_minus_one(mu, n):
    # (1 - x^2) x^k vanishes at the ends, so these moments check the interior
    # weights alone, against the exponent mu + 1; the end weights, about
    # 1/(1 + mu), dominate every moment the oracle in glj_weights checks
    rule = jacobi.glj_rule(mu, n)
    x, w = rule.nodes, rule.weights
    for k in range(0, 2 * n - 2, 2):
        got = w @ ((1.0 - x * x) * x**k)
        assert got == pytest.approx(jacobi.weight_moment(mu + 1.0, k), rel=1e-12)


@pytest.mark.parametrize("j", [8, 12, 16])
def test_moment_gate_sees_an_interior_weight_error_as_mu_nears_minus_one(j):
    # a 1e-6 relative error on one interior weight hides below the gate in
    # the full moments, which the end weights carry, but not in the interior ones
    mu, n = -0.999, 33
    rule = jacobi.glj_rule(mu, n)
    assert jacobi._moment_error(mu, rule.nodes, rule.weights) < 1e-13
    w = rule.weights.copy()
    w[j] *= 1.0 + 1e-6
    full = max(abs(w @ rule.nodes**k - jacobi.weight_moment(mu, k))
               / jacobi.weight_moment(mu, k - k % 2) for k in range(2 * n))
    assert full < jacobi._WEIGHT_VERIFY_TOL
    assert jacobi._moment_error(mu, rule.nodes, w) > 10 * jacobi._WEIGHT_VERIFY_TOL


@pytest.mark.parametrize("mu", MUS)
@pytest.mark.parametrize("n", [4, 8, 16])
def test_exactness_on_random_polynomials(mu, n, rng):
    # quadrature must integrate P_{2n-1} exactly against the weight
    rule = jacobi.glj_rule(mu, n)
    moments = np.array([jacobi.weight_moment(mu, k) for k in range(2 * n)])
    scale = np.array(
        [jacobi.weight_moment(mu, k if k % 2 == 0 else k - 1) for k in range(2 * n)]
    )
    powers = np.vstack([rule.nodes**k for k in range(2 * n)])
    for _ in range(20):
        coeff = rng.uniform(-1.0, 1.0, size=2 * n)
        got = rule.integrate(coeff @ powers)
        want = coeff @ moments
        assert got == pytest.approx(want, abs=1e-10 * (np.abs(coeff) @ scale))


def test_mu_03_interior_nodes_symmetric():
    nodes = jacobi.glj_nodes(0.3, 8)
    assert nodes.size == 9
    assert np.abs(nodes + nodes[::-1]).max() <= 1e-13


@pytest.mark.parametrize("n", [17, 64, 128])
def test_chebyshev_lobatto_nodes_closed_form(n):
    # for mu = -1/2 the Newton guesses are the nodes cos(pi j / n) themselves
    nodes = jacobi.glj_nodes(-0.5, n)
    assert np.abs(nodes - np.cos(np.pi * np.arange(n, -1, -1) / n)).max() <= 1e-15


@pytest.mark.parametrize("mu,n", [(0.5, 128), (0.45, 256)])
def test_bisection_node_search_builds_large_rules(mu, n):
    # Newton from the Chebyshev-Lobatto guesses stalled for these (mu, n);
    # from the asymptotic guesses it must give a rule that passes the moment
    # oracle inside glj_rule
    nodes = jacobi.glj_rule(mu, n).nodes
    assert nodes.size == n + 1
    assert np.all(np.diff(nodes) > 0.0)
    assert np.array_equal(nodes, -nodes[::-1])


@pytest.mark.parametrize("mu", [-0.999, -0.5, 0.0, 0.25, 0.5, 0.6, 0.95, 0.999])
@pytest.mark.parametrize("n", [2, 3, 16, 17, 128, 512, 1024])
def test_newton_node_search_needs_no_fallback(monkeypatch, mu, n):
    # Newton from the asymptotic guesses converges quadratically: at most 7
    # steps (one recurrence pass each, plus two for the residual gate)
    passes = []
    pair = jacobi._sym_jacobi_pair
    monkeypatch.setattr(jacobi, "_sym_jacobi_pair", lambda *a: passes.append(1) or pair(*a))
    nodes = jacobi.glj_nodes(mu, n)
    assert np.all(np.diff(nodes) > 0.0)
    assert len(passes) <= 7 + 2


def test_node_search_raises_at_the_iteration_cap(monkeypatch):
    monkeypatch.setattr(jacobi, "_NODE_MAX_ITERS", 1)
    with pytest.raises(jacobi.QuadratureError, match="1-step cap"):
        jacobi.glj_nodes(0.0, 64)


# --- nodal basis and matrices ----------------------------------------------

@pytest.fixture(scope="module")
def basis8():
    return jacobi.build_basis(0.25, 8)


def test_kronecker_property(basis8):
    n = basis8.n
    psi = jacobi.nodal_eval(basis8, np.eye(n + 1), basis8.nodes)
    for j in (0, 3, n):
        expect = np.zeros(n + 1)
        expect[j] = 1.0
        assert np.abs(psi[:, j] - expect).max() < 1e-12


def test_partition_of_unity(basis8):
    xs = np.linspace(-1.0, 1.0, 17)
    total = jacobi.nodal_eval(basis8, np.eye(basis8.n + 1), xs).sum(axis=1)
    assert np.abs(total - 1.0).max() < 1e-12


def test_nodal_derivative_matches_d1_columns(basis8):
    dpsi = jacobi.nodal_eval(basis8, np.eye(basis8.n + 1), basis8.nodes, 1)
    for j in (0, 2, 5, 8):
        assert np.abs(dpsi[:, j] - basis8.d1[:, j]).max() < 1e-10


def test_closed_form_matches_barycentric_two_normalizations(basis8):
    # psi_j(x) = C (1-x^2) J_n'(x) / ((x_j - x) J_n(x_j)); the ratio is
    # invariant under rescaling the polynomial family.
    n, mu = basis8.n, basis8.mu
    xs = np.linspace(-0.97, 0.94, 9)
    psi = jacobi.nodal_eval(basis8, np.eye(n + 1), xs)
    for j in (0, 4, n):
        c = (mu + 1 if j in (0, n) else 1.0) / (n * (n + 2 * mu + 1))
        for scale_factor in (1.0, 3.7):
            jn_x = scale_factor * jacobi.jacobi_deriv(mu, n, xs, 1)
            jn_at = scale_factor * jacobi.jacobi_eval(mu, n, basis8.nodes[j])
            closed = c * (1 - xs**2) * jn_x / ((basis8.nodes[j] - xs) * jn_at)
            assert np.abs(closed - psi[:, j]).max() < 1e-11


@pytest.mark.parametrize("mu", MUS)
@pytest.mark.parametrize("n", [4, 8, 16])
def test_d1_exactness_and_d2_product(mu, n):
    basis = jacobi.build_basis(mu, n)
    assert np.abs(basis.d1 @ np.ones(n + 1)).max() < 1e-12
    if n >= 3:
        got = basis.d1 @ basis.nodes**3
        assert np.abs(got - 3 * basis.nodes**2).max() < 1e-11 * n**2
    got2 = basis.d2 @ basis.nodes**2
    assert np.abs(got2 - 2.0).max() < 1e-10 * n**2
    assert np.abs(basis.d2 - basis.d1 @ basis.d1).max() <= 1e-10 * np.abs(basis.d2).max()


def _product_bary(nodes):
    """1 / prod_{k != j} 2 (x_j - x_k): in range only up to about N = 1097."""
    diff = 2.0 * np.subtract.outer(nodes, nodes)
    np.fill_diagonal(diff, 1.0)
    return 1.0 / np.prod(diff, axis=1)


@pytest.mark.parametrize("mu", [-0.999, -0.5, 0.0, 0.5, 0.95])
@pytest.mark.parametrize("n", [2, 3, 16, 17, 128, 511, 1024])
def test_bary_weights_from_the_rule_match_the_product_form(mu, n):
    rule = jacobi.glj_rule(mu, n)
    ratio = _product_bary(rule.nodes) / jacobi.bary_weights(rule)
    assert np.abs(ratio / ratio[0] - 1.0).max() <= 1e-10


@pytest.mark.parametrize("mu", [-0.5, 0.0, 0.5])
def test_d1_stays_finite_and_exact_at_n_2048(mu):
    # the product form of the barycentric weights overflows from N = 1098 on
    n = 2048
    basis = jacobi.build_basis.__wrapped__(mu, n)     # uncached: 34 MB per d1
    x = basis.nodes
    assert np.all(np.isfinite(basis.d1))
    assert np.abs(basis.d1 @ x**3 - 3.0 * x**2).max() < 1e-13 * n**2


def test_basis_stores_no_second_derivative_or_aux_matrix():
    # O(N) data only: d1, d2 and psi are formed on access, for diagnostics
    # and tests only
    from dataclasses import fields
    assert [f.name for f in fields(jacobi.JacobiBasis)] == ["mu", "n", "rule", "bary", "d1_diag"]
    basis = jacobi.build_basis(0.25, 8)
    assert np.array_equal(basis.d1, jacobi.diff_matrix(basis.nodes, basis.bary))
    assert np.array_equal(basis.d2, basis.d1 @ basis.d1)
    assert np.array_equal(basis.psi, jacobi.aux_matrix(0.25, basis.nodes, basis.d1))


@pytest.mark.parametrize("mu,n", [(0.0, 8), (0.25, 9), (-0.5, 64), (0.0, 511), (0.5, 1024)])
def test_d1_blocks_tile_diff_matrix_bit_for_bit(mu, n):
    # the stored diagonal is diff_matrix's negative row sum, and a block of
    # any shape holds the dense matrix's entries exactly
    basis = jacobi.build_basis(mu, n)
    dense = jacobi.diff_matrix(basis.nodes, basis.bary)
    assert np.array_equal(basis.d1_diag, np.diag(dense))
    cuts = sorted({0, 1, n // 3, n // 2 + 1, n, n + 1})
    for r0, r1 in zip(cuts, cuts[1:]):
        for c0, c1 in zip(cuts, cuts[1:]):
            block = jacobi.d1_block(basis, slice(r0, r1), slice(c0, c1))
            assert np.array_equal(block, dense[r0:r1, c0:c1]), (r0, r1, c0, c1)


def test_d1_products_in_blocks_match_the_dense_matrix(monkeypatch, rng):
    # blocks of three rows or columns at N = 32, the last one short
    monkeypatch.setattr(jacobi, "_BLOCK_ENTRIES", 100)
    basis = jacobi.build_basis(0.25, 32)
    dense = basis.d1
    v = rng.standard_normal((33, 4))
    tol = 1e-13 * np.abs(dense).sum(axis=1).max() * np.abs(v).max()
    assert np.abs(jacobi.d1_matmul(basis, v) - dense @ v).max() <= tol
    assert np.abs(jacobi.d1_matmul(basis, v[:, 0]) - dense @ v[:, 0]).max() <= tol
    assert np.abs(jacobi.matmul_d1(v.T, basis) - v.T @ dense).max() <= tol


def test_aux_matrix_zero_for_legendre():
    basis = jacobi.build_basis(0.0, 8)
    assert np.all(basis.psi == 0.0)


def test_aux_matrix_sparsity_and_diagonal(basis8):
    n, mu = basis8.n, basis8.mu
    psi = basis8.psi
    for j in range(1, n):
        xj = basis8.nodes[j]
        assert psi[j, j - 1] == pytest.approx(2 * xj * mu / (1 - xj * xj), rel=1e-14)
        for h in range(1, n):
            if h != j:
                assert psi[h, j - 1] == 0.0


def test_aux_matrix_boundary_rows(basis8):
    # Endpoint values of 2 x mu psi_j(x)/(1-x^2): the closed form
    # mu/((1+mu)(x_j - x_p)) needs the factor J_n(x_p)/J_n(x_j); both
    # routes below agree with the assembled -mu * d1 rows.
    n, mu = basis8.n, basis8.mu
    jn = jacobi.jacobi_eval(mu, n, basis8.nodes)
    for j in range(1, n):
        xj = basis8.nodes[j]
        for row, xp in ((0, -1.0), (n, 1.0)):
            ratio = jn[row] / jn[j]
            closed = mu / ((1 + mu) * (xj - xp)) * ratio
            assert basis8.psi[row, j - 1] == pytest.approx(closed, rel=1e-12)
            eps = 1e-7
            x_near = xp - math.copysign(eps, xp)
            psi_j = jacobi.nodal_eval(basis8, np.eye(n + 1), x_near)[j]
            limit = 2 * x_near * mu * psi_j / (1 - x_near**2)
            assert basis8.psi[row, j - 1] == pytest.approx(limit, rel=1e-5)


def test_nodal_eval_derivative_orders(rng):
    basis = jacobi.build_basis(0.0, 24)
    coeff = rng.standard_normal(7)
    poly = np.polynomial.Polynomial(coeff)
    vals = poly(basis.nodes)
    xs = rng.uniform(-1.0, 1.0, size=40)
    block = np.column_stack([vals, np.cos(basis.nodes), basis.nodes**24])
    for d in range(3):
        got = jacobi.nodal_eval(basis, vals, xs, d)
        want = poly.deriv(d)(xs) if d else poly(xs)
        assert np.abs(got - want).max() < 1e-10
        # a 2-D block evaluates column by column (up to BLAS summation order)
        cols = np.column_stack([jacobi.nodal_eval(basis, c, xs, d) for c in block.T])
        got = jacobi.nodal_eval(basis, block, xs, d)
        assert got.shape == (xs.size, 3)
        assert np.abs(got - cols).max() <= 1e-14 * np.abs(cols).max()


def test_nodal_eval_at_nodes_uses_exact_branch():
    basis = jacobi.build_basis(0.0, 12)
    vals = np.sin(basis.nodes)
    got = jacobi.nodal_eval(basis, vals, basis.nodes.copy(), 1)
    assert np.abs(got - basis.d1 @ vals).max() < 1e-13


@pytest.mark.parametrize("mu,n", [(0.0, 12), (0.25, 8), (0.0, 512)])
def test_nodal_eval_points_on_nodes_give_unit_rows(mu, n):
    basis = jacobi.build_basis(mu, n)
    eye = np.eye(n + 1)
    assert np.array_equal(jacobi.nodal_eval(basis, eye, basis.nodes), eye)
    # within the hit tolerance of a node, still the exact unit row
    near = basis.nodes[[0, n // 3, n]] + np.array([4e-13, -4e-13, -4e-13])
    assert np.array_equal(jacobi.nodal_eval(basis, eye, near), eye[[0, n // 3, n]])
    vals = np.cos(3.0 * basis.nodes)
    assert jacobi.nodal_eval(basis, vals, basis.nodes[n // 3]) == vals[n // 3]


def test_nodal_eval_in_row_blocks_matches_point_by_point(monkeypatch, rng):
    # blocks of one point, the least a block holds: 33 points, four of them
    # on or next to a node
    monkeypatch.setattr(jacobi, "_BLOCK_ENTRIES", 1)
    basis = jacobi.build_basis(0.25, 10)
    vals = np.column_stack([np.sin(basis.nodes), np.cos(2.0 * basis.nodes)])
    xs = np.concatenate([rng.uniform(-1.0, 1.0, size=20), basis.nodes[[0, 4, 10]],
                         rng.uniform(-1.0, 1.0, size=9), basis.nodes[[7]] + 1e-13])
    rng.shuffle(xs)
    got = jacobi.nodal_eval(basis, vals, xs)
    for i, x in enumerate(xs):
        one = jacobi.nodal_eval(basis, vals, x)
        assert np.abs(got[i] - one).max() <= 1e-14
        hit = np.abs(basis.nodes - x) < 1e-12
        if hit.any():
            assert np.array_equal(got[i], vals[hit][0])


def test_build_basis_is_cached_and_readonly():
    a = jacobi.build_basis(0.0, 16)
    b = jacobi.build_basis(0.0, 16)
    assert a is b
    with pytest.raises(ValueError):
        a.d1[0, 0] = 1.0


def test_build_basis_rejects_unmirrored_nodes(monkeypatch):
    # the folded assembly needs x_{N-j} == -x_j bit for bit
    rule = jacobi.glj_rule(0.0, 8)
    nodes = rule.nodes.copy()
    nodes[2] = np.nextafter(nodes[2], 0.0)
    bent = jacobi.QuadratureRule(mu=0.0, nodes=nodes, weights=rule.weights)
    monkeypatch.setattr(jacobi, "glj_rule", lambda mu, n: bent)
    with pytest.raises(jacobi.QuadratureError, match="mirrored"):
        jacobi.build_basis.__wrapped__(0.0, 8)
    monkeypatch.setattr(jacobi, "glj_rule", lambda mu, n: rule)
    assert np.array_equal(jacobi.build_basis.__wrapped__(0.0, 8).nodes, rule.nodes)
