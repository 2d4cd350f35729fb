import math

import numpy as np
import pytest

from bousspec import model


def test_bona_smith_coefficients():
    p = model.params_from_theta(2 / 3)
    assert (p.b, p.c, p.d) == (pytest.approx(1 / 6), 0.0, pytest.approx(1 / 6))
    p = model.params_from_theta(1.0)
    assert (p.b, p.c) == (pytest.approx(1 / 3), pytest.approx(-1 / 3))
    p = model.params_from_theta(9 / 11)
    assert p.b == pytest.approx(8 / 33)
    assert p.c == pytest.approx(-5 / 33)


def test_bona_smith_bbm_branch_is_exact():
    assert model.params_from_theta(2 / 3).c == 0.0


@pytest.mark.parametrize("theta2", [0.5, 1.2])
def test_bona_smith_range(theta2):
    with pytest.raises(ValueError):
        model.params_from_theta(theta2)


def test_b_neq_d_coefficients():
    p = model.params_b_neq_d(7 / 9)
    assert p.b == pytest.approx(2 / 9)
    assert p.d == pytest.approx(1 / 9)
    assert p.c == 0.0
    # theta^2 = 2/3 lands back on the BBM-BBM coefficients
    p = model.params_b_neq_d(2 / 3)
    assert p.b == pytest.approx(1 / 6) and p.d == pytest.approx(1 / 6)
    # b -> 0+ at the lower end of the range
    assert model.params_b_neq_d(1 / 3 + 1e-9).b == pytest.approx(0.0, abs=1e-9)
    with pytest.raises(ValueError):
        model.params_b_neq_d(0.2)


@pytest.mark.parametrize("b, c, d, fragment", [
    (0.1, 0.1, 0.1, "c must be <= 0"),
    (-0.1, 0.0, 0.1, "b and d must be >= 0"),
    (0.1, 0.0, -0.1, "b and d must be >= 0"),
    # no u-mass smoothing for the c eta_xxx term, or too little of it
    (0.1, -0.1, 0.0, "must not exceed d"),
    (0.0, -5e-324, 0.0, "must not exceed d"),
    (0.0, -1.0, 1e-12, "must not exceed d, got c = -1.0, d = 1e-12"),
])
def test_system_params_rejects(b, c, d, fragment):
    with pytest.raises(ValueError, match=fragment):
        model.SystemParams(b=b, c=c, d=d)


def test_system_params_accepts_c_down_to_minus_d():
    p = model.SystemParams(b=0.0, c=-0.5, d=0.5)
    assert -p.c == p.d


@pytest.mark.parametrize("c", [0.0, -0.0])
def test_system_params_accepts_signed_zero_c_without_d(c):
    # a strategy drawing c from [-d, 0] gives -0.0 at d = 0
    p = model.SystemParams(b=0.2, c=c, d=0.0)
    assert p.c == 0.0 and p.d == 0.0


def test_interval_map_roundtrip(rng):
    imap = model.IntervalMap(-14.0, 50.0)
    xs = rng.uniform(-1.0, 1.0, size=32)
    back = imap.to_reference(imap.to_physical(xs))
    assert np.abs(back - xs).max() < 1e-15
    assert imap.scale == 32.0 and imap.shift == 18.0
    with pytest.raises(ValueError):
        model.IntervalMap(3.0, 3.0)


# --- closed-form solutions ---------------------------------------------------

def test_solitary_bona_smith_parameters():
    sol = model.solitary_bona_smith(9 / 11)
    assert sol.eta(0.0, 0.0) == pytest.approx(1.0, rel=1e-12)   # the crest's eta0
    assert sol.u(0.0, 0.0) / sol.eta(0.0, 0.0) == pytest.approx(math.sqrt(3) / 2, rel=1e-12)   # B
    assert sol.speed == pytest.approx(5 * math.sqrt(3) / 6, rel=1e-12)
    with pytest.raises(ValueError):
        model.solitary_bona_smith(0.7)


def test_solitary_b_neq_d_parameters():
    sol = model.solitary_b_neq_d(1.0)
    assert sol.u(0.0, 0.0) == pytest.approx(math.sqrt(3) / 2, rel=1e-12)   # the crest's u0
    assert sol.speed == pytest.approx(5 / math.sqrt(12), rel=1e-12)
    # lam = (1/2) sqrt(2 / ((2/9) * 5))
    lam_ref = 0.5 * math.sqrt(9 / 5)
    probe = sol.eta(1.0, 0.0) / sol.eta(0.0, 0.0)
    assert probe == pytest.approx(1 / math.cosh(lam_ref) ** 2, rel=1e-12)
    with pytest.raises(ValueError):
        model.solitary_b_neq_d(-1.0)  # 3/(eta0+3) in [1, 2]


def test_traveling_bbm_far_field():
    sol = model.traveling_bbm(2.0, 1.0)
    far = -1.0 + (1.0 * (1 / 6) * 2.0) ** 2 * 4 / 9
    assert sol.eta(40.0, 0.0) == pytest.approx(far, abs=1e-12)


def test_traveling_bbm_translation_property(rng):
    sol = model.traveling_bbm(2.0, 1.0)
    for x, t, delta in rng.uniform(-2.0, 2.0, size=(5, 3)):
        a = sol.eta(x, t)
        b = sol.eta(x - sol.speed * delta, t - delta)
        assert a == pytest.approx(b, rel=1e-13, abs=1e-14)


@pytest.mark.parametrize(
    "factory",
    [
        lambda: model.solitary_bona_smith(9 / 11),
        lambda: model.traveling_bbm(2.0, 1.0),
        lambda: model.solitary_b_neq_d(1.0),
    ],
)
def test_residual_gate_all_families(factory):
    sol = factory()
    assert max(sol.residual) <= 1e-8   # what the gate measured
    grid = np.linspace(-40.0, 40.0, 2001)
    for t in (0.0, 0.5, 1.0):
        r1, r2 = model.pde_residual(sol, grid, t)
        assert max(r1, r2) <= 1e-8


def test_residual_zero_solution():
    zero = model.ExactSolution(
        model.params_from_theta(9 / 11), 1.0, 0.0,
        lambda xi, d: np.zeros_like(np.asarray(xi, dtype=float)),
        lambda xi, d: np.zeros_like(np.asarray(xi, dtype=float)),
    )
    r1, r2 = model.pde_residual(zero, np.linspace(-1, 1, 11), 0.0)
    assert r1 == 0.0 and r2 == 0.0


def test_residual_detects_perturbed_amplitude():
    sol = model.solitary_bona_smith(9 / 11)
    bad = model.ExactSolution(
        sol.params, sol.speed, 0.0,
        lambda xi, d: 1.01 * sol._eta(xi, d), sol._u, label="perturbed",
    )
    r1, r2 = model.pde_residual(bad, np.linspace(-20.0, 20.0, 2001), 0.0)
    assert max(r1, r2) >= 1e-4


# --- experiment data ----------------------------------------------------------

def test_bore_velocity_scale():
    assert model.bore_u0(0.25) == pytest.approx(0.23717082451262847, rel=1e-12)


def test_bore_data_shape_and_compatibility():
    eta0, u0, bdata = model.bore_data(0.25, 0.7)
    assert eta0(-40.0) == pytest.approx(0.25, abs=1e-12)
    assert eta0(40.0) == pytest.approx(0.0, abs=1e-12)
    edges = bdata.at(3.0)
    assert edges.shape == (4, 2) and edges[0, 0] == 0.25 and edges[2, 0] == 0.0
    # tanh tail mismatch on [-14, 50]: below the accepted 1e-8, above 1e-10
    gap = bdata.compatibility_mismatch(eta0, u0, -14.0, 50.0)
    assert 1e-10 < gap <= 1e-8


def test_piecewise_quadratic_data():
    eta0, u0 = model.nonsmooth_data("piecewise-quadratic")
    assert eta0(0.0) == 1.0
    assert eta0(-1.0) == 0.0 and eta0(1.0) == 0.0
    assert u0(0.3) == eta0(0.3)
    # second derivative jumps from 2 to -6 across zero
    h = 1e-4
    left = (eta0(-2 * h) - 2 * eta0(-h) + eta0(0.0)) / h**2
    right = (eta0(0.0) - 2 * eta0(h) + eta0(2 * h)) / h**2
    assert left == pytest.approx(2.0, abs=1e-6)
    assert right == pytest.approx(-6.0, abs=1e-6)


def test_tent_data():
    eta0, u0 = model.nonsmooth_data("tent")
    assert eta0(0.0) == 1.0 and eta0(1.0) == 0.0 and eta0(-1.0) == 0.0
    assert np.all(u0(np.linspace(-1, 1, 5)) == 0.0)
    with pytest.raises(ValueError):
        model.nonsmooth_data("sawtooth")


def test_boundary_data_from_exact_time_derivatives():
    sol = model.solitary_bona_smith(9 / 11)
    bdata = model.BoundaryData.from_exact(sol, -5.0, 5.0)
    h = 1e-6
    # (value row, derivative row, end): eta on the left, u on the right
    for row, drow, end in ((0, 2, 0), (1, 3, 1)):
        fd = (bdata.at(1.0 + h)[row, end] - bdata.at(1.0 - h)[row, end]) / (2 * h)
        assert bdata.at(1.0)[drow, end] == pytest.approx(fd, rel=1e-8, abs=1e-12)


@pytest.mark.parametrize("sol", [model.solitary_bona_smith(9 / 11, x0=1.5),
                                 model.traveling_bbm(2.0, 1.0)])
def test_boundary_data_from_exact_matches_closed_forms(sol):
    # rows eta, u, eta_t, u_t; columns the left and right ends
    left, right = -5.0, 7.0
    bdata = model.BoundaryData.from_exact(sol, left, right)
    for t in (0.0, 0.3, 2.0):
        edges = bdata.at(t)
        assert edges.shape == (4, 2)
        for j, x in enumerate((left, right)):
            expected = [sol.eta(x, t), sol.u(x, t),
                        -sol.speed * sol.eta(x, t, 1), -sol.speed * sol.u(x, t, 1)]
            assert edges[:, j] == pytest.approx(expected, rel=1e-14, abs=0.0)
