import collections

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bousspec import jacobi, model, semidiscrete, timestep
from bousspec.model import BoundaryData, IntervalMap

ZERO_EDGES = np.zeros((4, 2))   # homogeneous data at one time, as BoundaryData.at


def full_blocks(basis, params, imap):
    """Oracle assembly: full (N-1) x (N+1) blocks built from basis data only.

    Keeps the boundary columns in place; eliminating them must reproduce
    boundary_rhs term by term.
    """
    s = imap.scale
    w = s * basis.weights
    d1 = basis.d1 / s
    d2 = basis.d2 / (s * s)
    psi = basis.psi / s
    n = basis.n
    test = d1[:, 1:n] - psi
    test[[0, n]] = (1.0 + basis.mu) * d1[[0, n], 1:n]   # as assembly: no cancellation as mu -> -1
    g = test.T * w[None, :]
    mass = g @ d1
    third = g @ d2
    kd1 = w[1:n, None] * d1[1:n, :]
    return w, g, mass, third, kd1


def dense_operator(folded, m):
    """The m x m operator a folded (2, half, half) block stands for.

    Applies it to the unit vectors: each folds to top + mirror and
    top - mirror, the blocks give the top halves of the odd and the even
    part of the image, and the image is even + odd on top, even - odd on
    the mirrored half.
    """
    half = folded.shape[1]
    eye = np.eye(m)
    top, mirror = eye[:half], eye[::-1][:half]
    odd_part = folded[0].T @ (top + mirror)
    even_part = folded[1].T @ (top - mirror)
    a = np.empty((m, m))
    a[:half] = even_part + odd_part
    a[::-1][:half] = even_part - odd_part
    return a


def eval_field(sys_, t, y, edges):
    """(eta', u') at the stacked interior vector y and the boundary values
    ``edges``, through the solved boundary vector and rhs_eval."""
    dy = semidiscrete.rhs_eval(sys_, np.full((1, 1), t), y[None],
                               semidiscrete.boundary_rhs(sys_, edges))[0]
    m = y.size // 2
    return dy[:m], dy[m:]


@pytest.fixture(scope="module")
def setup_mu():
    basis = jacobi.build_basis(0.25, 10)
    params = model.SystemParams(b=0.2, c=-0.15, d=0.35)
    imap = IntervalMap(-3.0, 5.0)
    return basis, params, imap


def test_lhs_matches_direct_quadrature_of_weak_form():
    # (psi_k'', psi_i)_w from the assembled blocks equals the high-resolution
    # integral of psi_k'' psi_i w (the quadrature is exact for this degree)
    basis = jacobi.build_basis(0.25, 8)
    imap = IntervalMap(-1.0, 1.0)
    n = basis.n
    _, g, mass, third, _ = full_blocks(basis, model.SystemParams(b=1.0, c=0.0, d=1.0), imap)
    fine = jacobi.glj_rule(0.25, 200)
    unit = np.eye(n + 1)
    vals0 = np.stack([jacobi.nodal_eval(basis, unit[i], fine.nodes, 0) for i in range(n + 1)])
    vals2 = np.stack([jacobi.nodal_eval(basis, unit[i], fine.nodes, 2) for i in range(n + 1)])
    for i in range(1, n):
        for k in range(n + 1):
            integral = fine.weights @ (vals2[k] * vals0[i])
            assert mass[i - 1, k] == pytest.approx(-integral, abs=1e-9)


def test_lhs_third_derivative_block_against_integral():
    basis = jacobi.build_basis(0.25, 8)
    imap = IntervalMap(-1.0, 1.0)
    n = basis.n
    _, _, _, third, _ = full_blocks(basis, model.SystemParams(b=1.0, c=0.0, d=1.0), imap)
    fine = jacobi.glj_rule(0.25, 200)
    unit = np.eye(n + 1)
    for i in (1, n // 2, n - 1):
        pi = jacobi.nodal_eval(basis, unit[i], fine.nodes, 0)
        for k in range(n + 1):
            # third derivative of psi_k sampled via its exact nodal second
            # derivative (a polynomial of degree n-2)
            d3 = jacobi.nodal_eval(basis, basis.d2[:, k], fine.nodes, 1)
            integral = fine.weights @ (d3 * pi)
            assert third[i - 1, k] == pytest.approx(-integral, abs=1e-9)


def test_legendre_reduction_and_general_path_agree():
    # the general weak form G = (D1 - Psi)^T K reduces to the Legendre one
    # exactly: the auxiliary matrix is identically zero for mu = 0
    for n in (2, 12, 64):
        assert np.all(jacobi.build_basis(0.0, n).psi == 0.0)
    assert np.abs(jacobi.build_basis(0.25, 12).psi).max() > 0.0


def test_degenerate_mass_is_diagonal():
    basis = jacobi.build_basis(0.0, 6)
    params = model.SystemParams(b=0.0, c=0.0, d=0.0)
    imap = IntervalMap(-1.0, 1.0)
    sys_ = semidiscrete.assemble(basis, params, imap)
    _, g, _, _, _ = full_blocks(basis, params, imap)
    w = imap.scale * basis.weights[1:-1]
    # M = W: the solution operator is the test matrix divided by the weights;
    # b == d and c == 0 leave one operator with no stiffness rows
    half = basis.n // 2
    assert sys_.ops.shape == (2, half, half)
    op = dense_operator(sys_.ops, basis.n - 1)
    assert np.abs(w[:, None] * op - g[:, 1:-1]).max() < 1e-13 * np.abs(g).max()


def test_mass_matrix_spd_for_bbm(setup_mu):
    basis, _, imap = setup_mu
    params = model.SystemParams(b=1 / 6, c=0.0, d=1 / 6)
    sys_ = semidiscrete.assemble(basis, params, imap)
    # equal mass coefficients share one solution operator
    assert sys_.ops.ndim == 3
    w, g, mass, _, _ = full_blocks(basis, params, imap)
    n = basis.n
    lhs = np.diag(w[1:n]) + params.b * mass[:, 1:n]
    eig = np.linalg.eigvalsh(0.5 * (lhs + lhs.T))
    assert eig.min() > 0
    # and the folded operator solves that mass system against G
    op = dense_operator(sys_.ops, n - 1)
    assert np.abs(lhs @ op - g[:, 1:n]).max() < 1e-13 * np.abs(g).max()


def test_interval_scaling_factors():
    # against the reference-domain assembly: weights x scale, one 1/scale
    # per derivative
    basis = jacobi.build_basis(0.0, 8)
    params = model.SystemParams(b=0.3, c=-0.1, d=0.2)
    s = 8.0
    # weak blocks: the multiplied-through equation carries one quadrature
    # factor of scale, so the weak l-th derivative block scales as s^(1-l)
    w_ref, g_ref, mass_ref, third_ref, kd1_ref = full_blocks(basis, params, IntervalMap(-1.0, 1.0))
    w_phys, g_phys, mass_phys, third_phys, kd1_phys = full_blocks(
        basis, params, IntervalMap(-8.0, 8.0)
    )
    assert np.abs(kd1_phys - kd1_ref).max() < 1e-14 * np.abs(kd1_ref).max()
    assert np.abs(g_phys - g_ref).max() < 1e-14 * np.abs(g_ref).max()
    assert np.abs(mass_phys - mass_ref / s).max() < 1e-14 * np.abs(mass_ref).max()
    assert np.abs(third_phys - third_ref / s**2).max() < 1e-13 * np.abs(third_ref).max()
    # the assembled operators solve the physically scaled mass systems
    n = basis.n
    phys = semidiscrete.assemble(basis, params, IntervalMap(-8.0, 8.0))
    half = n // 2
    for eq, coeff in ((0, params.b), (1, params.d)):
        lhs = np.diag(w_phys[1:n]) + coeff * mass_phys[:, 1:n]
        op = dense_operator(phys.ops[:, eq, :half], n - 1)
        assert np.abs(lhs @ op - g_phys[:, 1:n]).max() < 1e-13 * np.abs(g_phys).max()
    # the stiffness rows of the u equation hold -|c| M_d^-1 B2
    stiff = dense_operator(phys.ops[:, 1, half:], n - 1)
    third = abs(params.c) * third_phys[:, 1:n]
    assert np.abs(lhs @ stiff + third).max() < 1e-13 * np.abs(third).max()


@pytest.mark.parametrize("n", [2, 3, 9, 10])
@pytest.mark.parametrize("params", [
    model.SystemParams(b=0.3, c=0.0, d=0.3),
    model.SystemParams(b=0.3, c=-0.1, d=0.3),
    model.SystemParams(b=0.2, c=-0.15, d=0.35),
])
def test_assembled_system_holds_no_full_operator(n, params):
    # every operator is stored as two half blocks; only the boundary
    # columns keep all N-1 rows
    sys_ = semidiscrete.assemble(jacobi.build_basis(0.0, n), params, IntervalMap(-1.0, 1.0))
    m, half = n - 1, n // 2
    arrays = {k: v for k, v in vars(sys_).items()
              if isinstance(v, np.ndarray) and v.dtype.kind == "f"}
    assert "ops" in arrays
    for name, a in arrays.items():
        assert not (a.ndim >= 2 and a.shape[-2:] == (m, m) and m > 1), name
    # one operator stack when b == d; stiffness rows below the flux rows iff c != 0
    width = half if params.c == 0.0 else 2 * half
    shared = params.b == params.d
    assert sys_.ops.shape == ((2, width, half) if shared else (2, 2, width, half))
    assert sys_.edge_eta.shape == (m, 4) and sys_.edge_u.shape == (m, 6)


@pytest.mark.parametrize("n", [9, 10, 511, 512])
@pytest.mark.parametrize("params", [
    model.SystemParams(b=0.3, c=0.0, d=0.3),
    model.SystemParams(b=0.3, c=-0.1, d=0.3),
    model.SystemParams(b=0.2, c=-0.15, d=0.35),
])
def test_operators_start_on_a_cache_line(n, params):
    # the batched product of rhs_eval runs markedly slower on a misaligned
    # operator, and where a fresh array lands is up to the allocator
    sys_ = semidiscrete.assemble(jacobi.build_basis(0.0, n), params, IntervalMap(-1.0, 1.0))
    assert sys_.ops.ctypes.data % 64 == 0
    assert sys_.ops.flags.c_contiguous


def test_gamma_vanishes_for_homogeneous_data(setup_mu):
    basis, params, imap = setup_mu
    sys_ = semidiscrete.assemble(basis, params, imap)
    assert np.all(semidiscrete.boundary_rhs(sys_, ZERO_EDGES) == 0.0)
    deta, du = eval_field(sys_, 0.0, np.zeros(2 * (basis.n - 1)), ZERO_EDGES)
    assert np.abs(deta).max() == 0.0 and np.abs(du).max() == 0.0


def test_gamma_against_dense_elimination_oracle(setup_mu, rng):
    # keep boundary columns in the full system, move them to the right-hand
    # side explicitly, and compare with the solved boundary contribution
    basis, params, imap = setup_mu
    n = basis.n
    sys_ = semidiscrete.assemble(basis, params, imap)
    w, g, mass, third, kd1 = full_blocks(basis, params, imap)

    edges = rng.uniform(-1.0, 1.0, size=8).reshape(4, 2)
    eta = rng.uniform(-0.5, 0.5, size=n - 1)
    u = rng.uniform(-0.5, 0.5, size=n - 1)
    y = np.concatenate([eta, u])

    eta_full, u_full = semidiscrete.nodal_values(y, edges)
    bcols = [0, n]
    deta_b, du_b = edges[2], edges[3]

    # eta equation: (W + b M) etadot_full + (K D1) u_full - G (eta u)_full = 0
    rhs1 = (
        -params.b * mass[:, bcols] @ deta_b
        - kd1 @ u_full
        + g @ (eta_full * u_full)
    )
    gamma1_ref = rhs1 + kd1[:, 1:n] @ u - g[:, 1:n] @ (eta * u)
    # u equation
    rhs2 = (
        -params.d * mass[:, bcols] @ du_b
        - (kd1 + abs(params.c) * third) @ eta_full
        + g @ (0.5 * u_full * u_full)
    )
    gamma2_ref = (
        rhs2
        + (kd1[:, 1:n] + abs(params.c) * third[:, 1:n]) @ eta
        - g[:, 1:n] @ (0.5 * u * u)
    )

    lhs_eta = np.diag(w[1:n]) + params.b * mass[:, 1:n]
    lhs_u = np.diag(w[1:n]) + params.d * mass[:, 1:n]
    solved = semidiscrete.boundary_rhs(sys_, edges)
    g1, g2 = lhs_eta @ solved[: n - 1], lhs_u @ solved[n - 1 :]
    scale = max(np.abs(gamma1_ref).max(), np.abs(gamma2_ref).max(), 1.0)
    assert np.abs(g1 - gamma1_ref).max() < 1e-12 * scale
    assert np.abs(g2 - gamma2_ref).max() < 1e-12 * scale

    # and rhs_eval solves the eliminated interior system
    deta, du = eval_field(sys_, 0.0, y, edges)
    assert np.abs(lhs_eta @ deta - rhs1).max() < 1e-11 * scale
    assert np.abs(lhs_u @ du - rhs2).max() < 1e-11 * scale


def test_semidiscrete_residual_spectral_decay():
    sol = model.solitary_bona_smith(9 / 11)
    imap = IntervalMap(-32.0, 32.0)
    errs = []
    for n in (64, 128, 256, 512):
        basis = jacobi.build_basis(0.0, n)
        sys_ = semidiscrete.assemble(basis, sol.params, imap)
        x = imap.to_physical(basis.nodes)
        y = np.concatenate([sol.eta(x, 0.0)[1:-1], sol.u(x, 0.0)[1:-1]])
        deta, du = eval_field(sys_, 0.0, y, ZERO_EDGES)
        cs = sol.speed
        err = max(
            np.abs(deta + cs * sol.eta(x, 0.0, 1)[1:-1]).max(),
            np.abs(du + cs * sol.u(x, 0.0, 1)[1:-1]).max(),
        )
        errs.append(err)
    assert errs[-1] <= 1e-6
    assert all(a > b for a, b in zip(errs, errs[1:]))
    assert errs[0] / errs[-1] > 1e6


def test_manufactured_inhomogeneous_boundaries():
    # exact solitary wave on a truncated interval: endpoint values become
    # (small) inhomogeneous Dirichlet data flowing through boundary_rhs
    sol = model.solitary_bona_smith(9 / 11)
    imap = IntervalMap(-8.0, 8.0)
    bdata = BoundaryData.from_exact(sol, -8.0, 8.0)
    basis = jacobi.build_basis(0.0, 128)
    sys_ = semidiscrete.assemble(basis, sol.params, imap)
    x = imap.to_physical(basis.nodes)
    for t in (0.0, 0.5):
        y = np.concatenate([sol.eta(x, t)[1:-1], sol.u(x, t)[1:-1]])
        deta, du = eval_field(sys_, t, y, bdata.at(t))
        cs = sol.speed
        err = max(
            np.abs(deta + cs * sol.eta(x, t, 1)[1:-1]).max(),
            np.abs(du + cs * sol.u(x, t, 1)[1:-1]).max(),
        )
        assert err <= 1e-7


def test_initial_state_interpolates():
    basis = jacobi.build_basis(0.0, 12)
    imap = IntervalMap(-2.0, 6.0)
    m = basis.n - 1
    y = semidiscrete.initial_state(
        basis, imap, lambda x: np.ones_like(x), lambda x: 0.25 * np.ones_like(x)
    )
    assert y.shape == (2 * m,) and np.all(y[:m] == 1.0) and np.all(y[m:] == 0.25)
    # polynomial data of degree <= n is reproduced exactly at the nodes
    poly = lambda x: 0.5 * x**3 - x + 2.0
    y = semidiscrete.initial_state(basis, imap, poly, poly)
    x = imap.to_physical(basis.nodes)[1:-1]
    assert np.abs(y[:m] - poly(x)).max() < 1e-12
    # tent data: the node nearest zero carries 1 - |x_node|
    imap01 = IntervalMap(-1.0, 1.0)
    eta0, u0 = model.nonsmooth_data("tent")
    y = semidiscrete.initial_state(basis, imap01, eta0, u0)
    x_int = basis.nodes[1:-1]
    j = int(np.argmin(np.abs(x_int)))
    assert y[j] == 1.0 - abs(x_int[j])


@pytest.mark.parametrize("case", ["bore", "tent"])
def test_nodal_values_round_trip(case):
    # the interior comes back from y and the endpoints from the Dirichlet
    # data, which for the bore differ from the initial data by its tanh tail
    if case == "bore":
        imap = IntervalMap(-14.0, 50.0)
        eta0, u0, bdata = model.bore_data(0.25, 0.7)
    else:
        imap = IntervalMap(-1.0, 1.0)
        eta0, u0 = model.nonsmooth_data("tent")
        bdata = BoundaryData.homogeneous()
    basis = jacobi.build_basis(0.0, 33)
    x = imap.to_physical(basis.nodes)
    edges = bdata.at(0.0)
    eta, u = semidiscrete.nodal_values(semidiscrete.initial_state(basis, imap, eta0, u0), edges)
    gap = bdata.compatibility_mismatch(eta0, u0, imap.left, imap.right)
    assert (gap > 0.0) == (case == "bore")
    for got, data, ends in ((eta, eta0(x), edges[0]), (u, u0(x), edges[1])):
        assert got.shape == (basis.n + 1,)
        assert np.array_equal(got[1:-1], data[1:-1])
        assert np.array_equal(got[[0, -1]], ends)
        assert np.abs(got - data).max() <= gap


def test_assembled_once_reuse_instrumentation(monkeypatch):
    basis = jacobi.build_basis(0.0, 32)
    imap = IntervalMap(-8.0, 8.0)
    params = model.params_from_theta(2 / 3)
    bdata = BoundaryData.homogeneous()
    calls = []
    real_assemble = semidiscrete.assemble

    def counting_assemble(*args, **kwargs):
        calls.append(args)
        return real_assemble(*args, **kwargs)

    monkeypatch.setattr(semidiscrete, "assemble", counting_assemble)
    sys_ = semidiscrete.assemble(basis, params, imap)
    eta0, u0 = model.nonsmooth_data("tent")
    y0 = semidiscrete.initial_state(basis, imap, lambda x: 0.1 * eta0(x / 8), lambda x: u0(x))
    field = semidiscrete.make_vector_field(sys_, bdata)
    timestep.integrate(
        field, y0, [(timestep.GAMMA_ORDER3, timestep.IntegrationPlan(k=0.05, t_end=1.0))]
    )
    assert len(calls) == 1


def test_nonfinite_state_aborts():
    basis = jacobi.build_basis(0.0, 8)
    imap = IntervalMap(-1.0, 1.0)
    sys_ = semidiscrete.assemble(basis, model.params_from_theta(2 / 3), imap)
    bad = np.full(2 * (basis.n - 1), np.nan)
    with pytest.raises(FloatingPointError):
        eval_field(sys_, 0.0, bad, ZERO_EDGES)
    field = semidiscrete.make_vector_field(sys_, BoundaryData.homogeneous())
    with pytest.raises(FloatingPointError):
        field(np.zeros((1, 1)), bad[None])


def test_small_amplitude_energy_stays_bounded():
    # skew-dominant structure: the advection block is skew-adjoint against
    # the interior weights, so the mass-form energy eta' M_b eta + u' M_d u
    # is conserved by the linearized flow; the midpoint step preserves it up
    # to the O(amplitude) relative drift of the cubic terms
    basis = jacobi.build_basis(0.0, 48)
    imap = IntervalMap(-1.0, 1.0)
    params = model.params_from_theta(2 / 3)
    sys_ = semidiscrete.assemble(basis, params, imap)
    bdata = BoundaryData.homogeneous()
    amp = 1e-3
    y0 = semidiscrete.initial_state(
        basis, imap,
        lambda x: amp * np.sin(np.pi * x), lambda x: amp * np.sin(2 * np.pi * x),
    )
    field = semidiscrete.make_vector_field(sys_, bdata)
    n = basis.n
    w, _, mass, _, _ = full_blocks(basis, params, imap)
    m_b = np.diag(w[1:n]) + params.b * mass[:, 1:n]
    energy = lambda y: float(y[: n - 1] @ m_b @ y[: n - 1] + y[n - 1 :] @ m_b @ y[n - 1 :])
    y = y0.copy()
    e0 = energy(y)
    for step in range(10):
        y = timestep.sdirk_step(field, 0.1 * step, y, 0.1, 0.5)
    assert energy(y) == pytest.approx(e0, rel=5 * amp)


def test_steady_data_is_marked_by_its_constructors():
    sol = model.solitary_bona_smith(9 / 11)
    assert BoundaryData.homogeneous().steady
    assert BoundaryData.constant(1.0, 0.0, 0.5, 0.0).steady
    assert model.bore_data(0.25, 0.7)[2].steady
    assert not BoundaryData.from_exact(sol, -8.0, 8.0).steady


def test_boundary_traces_evaluated_once_per_stage_time():
    # every fixed-point iteration of a stage shares its time, so the traced
    # data is evaluated (and solved) once per distinct stage time of a row,
    # for one run and for a table2-style batch (both SDIRK members at one k)
    # whose rows sit at different stage times in one field call
    sol = model.solitary_bona_smith(9 / 11)
    calls = []
    for name in ("eta", "u"):
        def traced(x, t, deriv=0, _f=getattr(sol, name)):
            calls.append(t)
            return _f(x, t, deriv)
        setattr(sol, name, traced)
    imap = IntervalMap(-8.0, 8.0)
    bdata = BoundaryData.from_exact(sol, -8.0, 8.0)
    basis = jacobi.build_basis(0.0, 32)
    sys_ = semidiscrete.assemble(basis, sol.params, imap)
    y = semidiscrete.initial_state(
        basis, imap, lambda x: sol.eta(x, 0.0), lambda x: sol.u(x, 0.0)
    )
    k = 0.05
    plan = timestep.IntegrationPlan(k=k, t_end=4 * k)
    for gammas in ([timestep.GAMMA_ORDER3], [0.5, timestep.GAMMA_ORDER3]):
        field = semidiscrete.make_vector_field(sys_, bdata)
        del calls[:]
        _, stats = timestep.integrate(field, y, [(g, plan) for g in gammas])
        # the midpoint member's two stages share one abscissa
        stage_times = {step * k + a * k for g in gammas for step in range(4)
                       for a in (g, 1.0 - g)}
        assert set(calls) == stage_times
        assert max(collections.Counter(calls).values()) <= 4
        assert stats.steps == 4 * len(gammas)
        assert stats.rhs_evals > 2 * 2 * stats.steps     # the stages did iterate


def _field_against_direct_solve(basis, params, imap, bdata, rows):
    """Max relative difference of the assembled field on a block, one row
    per (eta0, u0, t) of ``rows``, from numpy.linalg.solve of the unsolved
    G-NI blocks (advection kept as K D1), row by row."""
    n = basis.n
    sys_ = semidiscrete.assemble(basis, params, imap)
    field = semidiscrete.make_vector_field(sys_, bdata)
    x = imap.to_physical(basis.nodes)
    w, g, mass, third, kd1 = full_blocks(basis, params, imap)
    lhs_eta = np.diag(w[1:n]) + params.b * mass[:, 1:n]
    lhs_u = np.diag(w[1:n]) + params.d * mass[:, 1:n]
    y = np.array([np.concatenate([eta0(x)[1:-1], u0(x)[1:-1]]) for eta0, u0, _ in rows])
    block = field(np.array([[t] for *_, t in rows]), y)
    rel = 0.0
    for got, state, (_, _, t) in zip(block, y, rows):
        edges = bdata.at(t)
        eta_full, u_full = semidiscrete.nodal_values(state, edges)
        rhs1 = (-params.b * mass[:, [0, n]] @ edges[2]
                - kd1 @ u_full + g @ (eta_full * u_full))
        rhs2 = (-params.d * mass[:, [0, n]] @ edges[3]
                - (kd1 + abs(params.c) * third) @ eta_full + g @ (0.5 * u_full * u_full))
        ref = np.concatenate([np.linalg.solve(lhs_eta, rhs1), np.linalg.solve(lhs_u, rhs2)])
        rel = max(rel, np.abs(got - ref).max() / np.abs(ref).max())
    return rel


@pytest.mark.parametrize(
    "case", ["table4-bore", "table6-tent", "table3-bneqd", "table2-traces", "table1-c",
             "mu-0.5-N64", "mu-0.5-N33", "mu+0.5-N64", "mu+0.5-N33",
             "bneqd-c-N10", "bneqd-c-N9"]
)
def test_field_matches_direct_solve_of_assembled_blocks(case):
    # the folded solution operators against a direct solve of the unsolved
    # blocks; at N=1024 the mass matrix on [-1, 1] has cond ~1.6e7.  The
    # mu != 0 and small-N cases take b != d, c != 0 and inhomogeneous
    # boundary data, at an even and an odd N (odd N - 1 has a centre node)
    mu = 0.0
    if case.startswith(("mu", "bneqd")):
        mu = float(case[2:6]) if case.startswith("mu") else 0.0
        n = int(case.rsplit("N", 1)[1])
        params, imap = model.SystemParams(b=0.2, c=-0.15, d=0.35), IntervalMap(-3.0, 5.0)
        eta0 = lambda x: 0.3 * np.sin(0.7 * x) + 0.1
        u0 = lambda x: 0.2 * np.cos(0.5 * x)
        bdata, t = BoundaryData.constant(eta0(-3.0), eta0(5.0), u0(-3.0), u0(5.0)), 0.0
    elif case == "table4-bore":
        n, params, imap = 1024, model.params_from_theta(2 / 3), IntervalMap(-14.0, 50.0)
        eta0, u0, bdata = model.bore_data(0.25, 0.7)
        t = 0.0
    elif case == "table6-tent":
        n, params, imap = 1024, model.params_from_theta(2 / 3), IntervalMap(-1.0, 1.0)
        eta0, u0 = model.nonsmooth_data("tent")
        bdata, t = BoundaryData.homogeneous(), 0.0
    else:
        sol, n, imap = {
            "table3-bneqd": (model.solitary_b_neq_d(1.0), 512, IntervalMap(-32.0, 32.0)),
            "table2-traces": (model.traveling_bbm(2.0, 1.0), 256, IntervalMap(-16.0, 16.0)),
            "table1-c": (model.solitary_bona_smith(9 / 11), 512, IntervalMap(-32.0, 32.0)),
        }[case]
        params, t = sol.params, 0.7
        bdata = BoundaryData.from_exact(sol, imap.left, imap.right)
        eta0, u0 = (lambda x: sol.eta(x, t)), (lambda x: sol.u(x, t))
    basis = jacobi.build_basis(mu, n)
    rel = _field_against_direct_solve(basis, params, imap, bdata, [(eta0, u0, t)])
    print(f"{case}: N={n} max relative difference {rel:.2e}")
    assert rel <= 1e-9


@pytest.mark.parametrize("data", ["constant", "table2-traces"])
@pytest.mark.parametrize("n", [9, 10])
@pytest.mark.parametrize("params", [
    model.SystemParams(b=0.2, c=-0.15, d=0.35),
    model.SystemParams(b=0.3, c=-0.1, d=0.3),
], ids=["bneqd-c", "beqd-c"])
def test_field_block_rows_match_direct_solve(params, n, data):
    # every row of a three-row block, each a different state (and, for
    # traced data, at a different time), against a dense solve of its own;
    # odd N - 1 has a centre node, and c != 0 puts eta after each flux
    if data == "constant":
        imap = IntervalMap(-3.0, 5.0)
        rows = [(lambda x, a=a: a * np.sin(0.7 * x) + 0.1,
                 lambda x, a=a: a * np.cos(0.5 * x), 0.0) for a in (0.3, -0.2, 0.45)]
        eta0, u0, _ = rows[0]
        bdata = BoundaryData.constant(eta0(-3.0), eta0(5.0), u0(-3.0), u0(5.0))
    else:
        sol, imap = model.traveling_bbm(2.0, 1.0), IntervalMap(-16.0, 16.0)
        bdata = BoundaryData.from_exact(sol, imap.left, imap.right)
        rows = [(lambda x, t=t: sol.eta(x, t), lambda x, t=t: sol.u(x, t), t)
                for t in (0.7, 0.85, 1.3)]
    basis = jacobi.build_basis(0.0, n)
    assert _field_against_direct_solve(basis, params, imap, bdata, rows) <= 1e-9


@st.composite
def general_mu_systems(draw):
    """(mu, N, b, c, d): any weight exponent, odd and even N, b = d in some
    draws, and |c| <= d as in the Bona-Smith and b != d families.  With d = 0
    the draw of c is 0.0 or -0.0: ``SystemParams`` refuses |c| > d, so c < 0 there, where
    the term |c| B2 eta is not smoothed by a mass matrix and a float64
    evaluation of it is off by about 1e-9 relative at N >= 54."""
    mu = draw(st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True))
    n = draw(st.integers(2, 64))
    b = draw(st.floats(0.0, 1.0))
    d = b if draw(st.booleans()) else draw(st.floats(0.0, 1.0))
    return mu, n, b, draw(st.floats(-d, 0.0)), d


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(general_mu_systems())
def test_general_mu_path_builds_and_matches_direct_solve(system):
    # the rule passes its moment oracle inside glj_rule, with exactly
    # mirrored nodes and weights; build_basis accepts the nodes; the folded
    # field agrees with a dense solve of the unsolved blocks
    mu, n, b, c, d = system
    rule = jacobi.glj_rule(mu, n)
    assert np.array_equal(rule.nodes, -rule.nodes[::-1])
    assert np.array_equal(rule.weights, rule.weights[::-1])
    basis = jacobi.build_basis(mu, n)
    params, imap = model.SystemParams(b=b, c=c, d=d), IntervalMap(-3.0, 5.0)
    eta0 = lambda x: 0.3 * np.sin(0.7 * x) + 0.1
    u0 = lambda x: 0.2 * np.cos(0.5 * x)
    bdata = BoundaryData.constant(eta0(-3.0), eta0(5.0), u0(-3.0), u0(5.0))
    assert _field_against_direct_solve(basis, params, imap, bdata, [(eta0, u0, 0.0)]) <= 1e-9
