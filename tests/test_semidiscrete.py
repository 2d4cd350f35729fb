import numpy as np
import pytest

from bousspec import jacobi, model, semidiscrete, timestep
from bousspec.model import BoundaryData, IntervalMap
from bousspec.semidiscrete import BoundaryValues, State


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
    g = (d1[:, 1:n] - psi).T * w[None, :]
    mass = g @ d1
    third = g @ d2
    kd1 = w[1:n, None] * d1[1:n, :]
    return w, g, mass, third, kd1


def constant(v):
    return lambda t: v


def eval_state(sys_, st):
    """(eta', u') of a State through the solved boundary vector and rhs_eval."""
    dy = semidiscrete.rhs_eval(sys_, st.t, st.vector, semidiscrete.boundary_rhs(sys_, st.bc))
    m = st.eta.size
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
    # M = W: the solution operator is the test matrix divided by the weights
    assert np.abs(w[:, None] * sys_.op_eta - g[:, 1:-1]).max() < 1e-13 * np.abs(g).max()
    assert sys_.op_u is sys_.op_eta and sys_.stiff_u is None


def test_mass_matrix_spd_for_bbm(setup_mu):
    basis, _, imap = setup_mu
    params = model.SystemParams(b=1 / 6, c=0.0, d=1 / 6)
    sys_ = semidiscrete.assemble(basis, params, imap)
    # equal mass coefficients share one solution operator
    assert sys_.op_u is sys_.op_eta
    w, g, mass, _, _ = full_blocks(basis, params, imap)
    n = basis.n
    lhs = np.diag(w[1:n]) + params.b * mass[:, 1:n]
    eig = np.linalg.eigvalsh(0.5 * (lhs + lhs.T))
    assert eig.min() > 0


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
    for op, coeff in ((phys.op_eta, params.b), (phys.op_u, params.d)):
        lhs = np.diag(w_phys[1:n]) + coeff * mass_phys[:, 1:n]
        assert np.abs(lhs @ op - g_phys[:, 1:n]).max() < 1e-13 * np.abs(g_phys).max()


def test_gamma_vanishes_for_homogeneous_data(setup_mu):
    basis, params, imap = setup_mu
    sys_ = semidiscrete.assemble(basis, params, imap)
    st = State(
        eta=np.zeros(basis.n - 1), u=np.zeros(basis.n - 1), t=0.0, bc=BoundaryValues()
    )
    assert np.all(semidiscrete.boundary_rhs(sys_, st.bc) == 0.0)
    deta, du = eval_state(sys_, st)
    assert np.abs(deta).max() == 0.0 and np.abs(du).max() == 0.0


def test_gamma_against_dense_elimination_oracle(setup_mu, rng):
    # keep boundary columns in the full system, move them to the right-hand
    # side explicitly, and compare with the solved boundary contribution
    basis, params, imap = setup_mu
    n = basis.n
    sys_ = semidiscrete.assemble(basis, params, imap)
    w, g, mass, third, kd1 = full_blocks(basis, params, imap)

    bc = BoundaryValues(*rng.uniform(-1.0, 1.0, size=8))
    eta = rng.uniform(-0.5, 0.5, size=n - 1)
    u = rng.uniform(-0.5, 0.5, size=n - 1)
    st = State(eta=eta, u=u, t=0.0, bc=bc)

    eta_full = st.eta_full()
    u_full = st.u_full()
    bcols = [0, n]
    deta_b = np.array([bc.deta_left, bc.deta_right])
    du_b = np.array([bc.du_left, bc.du_right])

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
    solved = semidiscrete.boundary_rhs(sys_, bc)
    g1, g2 = lhs_eta @ solved[: n - 1], lhs_u @ solved[n - 1 :]
    scale = max(np.abs(gamma1_ref).max(), np.abs(gamma2_ref).max(), 1.0)
    assert np.abs(g1 - gamma1_ref).max() < 1e-12 * scale
    assert np.abs(g2 - gamma2_ref).max() < 1e-12 * scale

    # and rhs_eval solves the eliminated interior system
    deta, du = eval_state(sys_, st)
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
        st = State(
            eta=sol.eta(x, 0.0)[1:-1], u=sol.u(x, 0.0)[1:-1], t=0.0, bc=BoundaryValues()
        )
        deta, du = eval_state(sys_, st)
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
        st = State(
            eta=sol.eta(x, t)[1:-1],
            u=sol.u(x, t)[1:-1],
            t=t,
            bc=BoundaryValues.at_time(bdata, t),
        )
        deta, du = eval_state(sys_, st)
        cs = sol.speed
        err = max(
            np.abs(deta + cs * sol.eta(x, t, 1)[1:-1]).max(),
            np.abs(du + cs * sol.u(x, t, 1)[1:-1]).max(),
        )
        assert err <= 1e-7


def test_initial_state_interpolates():
    basis = jacobi.build_basis(0.0, 12)
    imap = IntervalMap(-2.0, 6.0)
    bdata = BoundaryData.constant(1.0, 1.0, 0.25, 0.25)
    st = semidiscrete.initial_state(
        basis, imap, lambda x: np.ones_like(x), lambda x: 0.25 * np.ones_like(x), bdata
    )
    assert np.all(st.eta == 1.0) and np.all(st.u == 0.25)
    # polynomial data of degree <= n is reproduced exactly at the nodes
    poly = lambda x: 0.5 * x**3 - x + 2.0
    st = semidiscrete.initial_state(basis, imap, poly, poly, bdata)
    x = imap.to_physical(basis.nodes)[1:-1]
    assert np.abs(st.eta - poly(x)).max() < 1e-12
    # tent data: the node nearest zero carries 1 - |x_node|
    imap01 = IntervalMap(-1.0, 1.0)
    eta0, u0 = model.nonsmooth_data("tent")
    st = semidiscrete.initial_state(basis, imap01, eta0, u0, BoundaryData.homogeneous())
    x_int = basis.nodes[1:-1]
    j = int(np.argmin(np.abs(x_int)))
    assert st.eta[j] == 1.0 - abs(x_int[j])


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
    st0 = semidiscrete.initial_state(basis, imap, lambda x: 0.1 * eta0(x / 8), lambda x: u0(x), bdata)
    field = semidiscrete.make_vector_field(sys_, bdata)
    timestep.integrate(
        field, st0.vector, timestep.SdirkScheme.order3(),
        timestep.IntegrationPlan(k=0.05, t_end=1.0),
    )
    assert len(calls) == 1


def test_nonfinite_state_aborts():
    basis = jacobi.build_basis(0.0, 8)
    imap = IntervalMap(-1.0, 1.0)
    sys_ = semidiscrete.assemble(basis, model.params_from_theta(2 / 3), imap)
    bad = np.full(basis.n - 1, np.nan)
    st = State(eta=bad, u=bad, t=0.0, bc=BoundaryValues())
    with pytest.raises(FloatingPointError):
        eval_state(sys_, st)
    field = semidiscrete.make_vector_field(sys_, BoundaryData.homogeneous())
    with pytest.raises(FloatingPointError):
        field(0.0, st.vector)


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
    st0 = semidiscrete.initial_state(
        basis, imap,
        lambda x: amp * np.sin(np.pi * x), lambda x: amp * np.sin(2 * np.pi * x),
        bdata,
    )
    field = semidiscrete.make_vector_field(sys_, bdata)
    n = basis.n
    w, _, mass, _, _ = full_blocks(basis, params, imap)
    m_b = np.diag(w[1:n]) + params.b * mass[:, 1:n]
    energy = lambda y: float(y[: n - 1] @ m_b @ y[: n - 1] + y[n - 1 :] @ m_b @ y[n - 1 :])
    y = st0.vector.copy()
    e0 = energy(y)
    for step in range(10):
        y = timestep.sdirk_step(field, 0.1 * step, y, 0.1, timestep.SdirkScheme.midpoint())
    assert energy(y) == pytest.approx(e0, rel=5 * amp)


def test_steady_data_is_marked_by_its_constructors():
    sol = model.solitary_bona_smith(9 / 11)
    assert BoundaryData.homogeneous().steady
    assert BoundaryData.constant(1.0, 0.0, 0.5, 0.0).steady
    assert model.bore_data(0.25, 0.7)[2].steady
    assert not BoundaryData.from_exact(sol, -8.0, 8.0).steady


def test_boundary_traces_evaluated_once_per_stage_time():
    # every fixed-point iteration of a stage shares its time, so the traced
    # data is evaluated (and solved) once per distinct stage time
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
    st0 = semidiscrete.initial_state(
        basis, imap, lambda x: sol.eta(x, 0.0), lambda x: sol.u(x, 0.0), bdata
    )
    field = semidiscrete.make_vector_field(sys_, bdata)
    y, stats = st0.vector, timestep.IntegrationStats()
    for step in range(4):
        del calls[:]
        y = timestep.sdirk_step(
            field, 0.05 * step, y, 0.05, timestep.SdirkScheme.order3(), stats=stats
        )
        assert len(calls) <= 2 * 8 and len(set(calls)) == 2
    assert stats.rhs_evals > 2 * 4 * 2     # the stages did iterate


def _field_against_direct_solve(basis, params, imap, bdata, eta0, u0, t):
    """Max relative difference of the assembled field from numpy.linalg.solve
    of the unsolved G-NI blocks (advection kept as K D1)."""
    n = basis.n
    sys_ = semidiscrete.assemble(basis, params, imap)
    field = semidiscrete.make_vector_field(sys_, bdata)
    x = imap.to_physical(basis.nodes)
    bc = BoundaryValues.at_time(bdata, t)
    st = State(eta=eta0(x)[1:-1], u=u0(x)[1:-1], t=t, bc=bc)
    w, g, mass, third, kd1 = full_blocks(basis, params, imap)
    eta_full, u_full = st.eta_full(), st.u_full()
    rhs1 = (-params.b * mass[:, [0, n]] @ [bc.deta_left, bc.deta_right]
            - kd1 @ u_full + g @ (eta_full * u_full))
    rhs2 = (-params.d * mass[:, [0, n]] @ [bc.du_left, bc.du_right]
            - (kd1 + abs(params.c) * third) @ eta_full + g @ (0.5 * u_full * u_full))
    ref = np.concatenate([
        np.linalg.solve(np.diag(w[1:n]) + params.b * mass[:, 1:n], rhs1),
        np.linalg.solve(np.diag(w[1:n]) + params.d * mass[:, 1:n], rhs2),
    ])
    return np.abs(field(t, st.vector) - ref).max() / np.abs(ref).max()


@pytest.mark.parametrize(
    "case", ["table4-bore", "table6-tent", "table3-bneqd", "table2-traces", "table1-c"]
)
def test_field_matches_direct_solve_of_assembled_blocks(case):
    # the precomputed solution operators against a direct solve of the
    # unsolved blocks; at N=1024 the mass matrix on [-1, 1] has cond ~1.6e7
    if case == "table4-bore":
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
    basis = jacobi.build_basis(0.0, n)
    rel = _field_against_direct_solve(basis, params, imap, bdata, eta0, u0, t)
    print(f"{case}: N={n} max relative difference {rel:.2e}")
    assert rel <= 1e-9
