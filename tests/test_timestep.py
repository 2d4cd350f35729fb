import math

import numpy as np
import pytest

from bousspec import analysis, experiments, model, semidiscrete, timestep
from bousspec.jacobi import build_basis
from bousspec.timestep import GAMMA_ORDER3, IntegrationPlan

# the second- and third-order members of the SDIRK family, by gamma
ORDER = {0.5: 2, GAMMA_ORDER3: 3}
SCHEMES = pytest.mark.parametrize("gamma", list(ORDER), ids=["scheme0", "scheme1"])


def test_presets():
    assert GAMMA_ORDER3 == pytest.approx((3 + math.sqrt(3)) / 6, rel=1e-15)


def test_zero_field_is_fixed_point():
    y0 = np.array([1.0, -2.0])
    f = lambda t, y: np.zeros_like(y)
    y1 = timestep.sdirk_step(f, 0.0, y0, 0.3, 0.5)
    assert np.array_equal(y1, y0)


def test_midpoint_scalar_amplification():
    # one step of y' = -y multiplies by R(-k) = (1 - k/2)/(1 + k/2)
    y = timestep.sdirk_step(lambda t, v: -v, 0.0, np.array([1.0]), 0.1, 0.5)
    assert y[0] == pytest.approx(0.95 / 1.05, rel=1e-12)


def test_plan_validation():
    with pytest.raises(ValueError):
        IntegrationPlan(k=-0.1, t_end=1.0)
    with pytest.raises(ValueError):
        IntegrationPlan(k=0.1, t_end=1.0, snapshot_times=(2.0,))
    with pytest.raises(ValueError):
        IntegrationPlan(k=0.3, t_end=1.0).n_steps
    with pytest.raises(ValueError, match="positive and finite"):
        IntegrationPlan(k=math.inf, t_end=1.0)
    with pytest.raises(ValueError, match="not finite"):
        IntegrationPlan(k=0.125, t_end=1e308).n_steps
    assert IntegrationPlan(k=0.1, t_end=1.0).n_steps == 10
    # snapshot times map to the nearest step, and two may not give one snapshot
    assert IntegrationPlan(k=0.1, t_end=0.8, snapshot_times=(0.8, 0.0, 0.44)).snapshot_steps == {
        0, 4, 8}
    with pytest.raises(ValueError, match="0.41 and 0.42 both give the snapshot t0.4"):
        IntegrationPlan(k=0.1, t_end=0.8, snapshot_times=(0.41, 0.42)).snapshot_steps


def test_integrate_zero_time():
    y0 = np.array([2.0])
    [(tf, y, snaps, stats)], _ = timestep.integrate(
        lambda t, v: -v, y0, [(0.5, IntegrationPlan(k=0.1, t_end=0.0))]
    )
    assert tf == 0.0 and np.array_equal(y, y0) and stats.steps == 0


def test_snapshots_at_step_boundaries():
    plan = IntegrationPlan(k=0.1, t_end=1.0, snapshot_times=(0.0, 0.5, 1.0))
    [(_, _, snaps, _)], _ = timestep.integrate(
        lambda t, v: -v, np.array([1.0]), [(0.5, plan)]
    )
    times = [t for t, _ in snaps]
    assert times == pytest.approx([0.0, 0.5, 1.0])
    assert snaps[1][1][0] == pytest.approx(math.exp(-0.5), rel=1e-3)


def test_step_doubling_consistency_midpoint():
    # two half steps agree with one step to the local order O(k^3)
    f = lambda t, v: -v
    y0 = np.array([1.0])
    k = 0.1
    one = timestep.sdirk_step(f, 0.0, y0, k, 0.5)
    half = timestep.sdirk_step(f, 0.0, y0, k / 2, 0.5)
    two = timestep.sdirk_step(f, k / 2, half, k / 2, 0.5)
    assert abs(one[0] - two[0]) < k**3


@SCHEMES
def test_scalar_convergence_order(gamma):
    errs = []
    for k in (0.02, 0.01, 0.005):
        [(_, y, _, _)], _ = timestep.integrate(
            lambda t, v: -v, np.array([1.0]), [(gamma, IntegrationPlan(k=k, t_end=1.0))]
        )
        errs.append(abs(y[0] - math.exp(-1.0)))
    rate = math.log2(errs[1] / errs[2])
    assert rate == pytest.approx(ORDER[gamma], abs=0.05)


def test_stage_divergence_detection():
    # Lipschitz constant far above 1/(gamma k): fixed point cannot contract
    stiff = lambda t, v: -1e9 * v
    with pytest.raises(timestep.StageDivergenceError):
        timestep.sdirk_step(stiff, 0.0, np.array([1.0]), 0.1, 0.5)


def test_stage_iteration_cap():
    # the first stage Y = 1 + (k / 2) 1.8 Y with k = 1 contracts by 0.9 per
    # iteration: the change never grows, but it is still about 3e-5 after
    # the last allowed iteration
    calls = []

    def f(t, v):
        calls.append(t)
        return 1.8 * v

    cap = f"exceeded {timestep.MAX_STAGE_ITERS} iterations at step 0"
    with pytest.raises(timestep.StageDivergenceError, match=cap):
        timestep.integrate(f, np.array([1.0]),
                           [(0.5, IntegrationPlan(k=1.0, t_end=1.0))])
    assert len(calls) == timestep.MAX_STAGE_ITERS


# --- stage predictor ----------------------------------------------------------

_ROTATION = np.array([[0.0, -1.0], [1.0, 0.0]])


@SCHEMES
@pytest.mark.parametrize("lam, f, y0", [
    (-1.0, lambda t, v: -v, np.array([1.0])),
    # (x, y) as z = x + iy: the rotation is z' = i z, eigenvalues +-i
    (1j, lambda t, v: v @ _ROTATION.T, np.array([1.0, 0.0])),
])
def test_integrate_matches_stability_function_power(gamma, lam, f, y0):
    # predicted starting values change only where the stage iterations
    # begin; the converged steps still multiply by R(k lam)
    k, n = 0.1, 10
    [(_, y, _, stats)], _ = timestep.integrate(f, y0, [(gamma, IntegrationPlan(k=k, t_end=n * k))])
    z = timestep.stability_function(gamma, k * lam) ** n
    want = np.array([z.real, z.imag]) if y0.size == 2 else np.array([z.real])
    assert np.abs(y - want).max() <= 1e-12 * np.abs(want).max()
    assert stats.steps == n


@SCHEMES
def test_first_integrate_step_is_sdirk_step(gamma):
    f = lambda t, v: -v + np.cos(t) * v * v
    y0 = np.array([0.3, -0.2, 0.5])
    plan = IntegrationPlan(k=0.05, t_end=0.1, snapshot_times=(0.05,))
    [(_, _, snaps, _)], _ = timestep.integrate(f, y0, [(gamma, plan)])
    assert np.array_equal(snaps[0][1], timestep.sdirk_step(f, 0.0, y0, 0.05, gamma))


def test_predictor_evaluation_count_table5():
    # 3.1 evaluations per step; 5.0 when each stage extrapolates its last
    # two steps linearly, 7.0 from its last step alone, 10.0 with cold starts
    cfg = experiments.PRESETS["table5"]
    problem = experiments._resolve_problem(cfg)
    run = experiments.solve_once(problem, 128, cfg.step_for(128), cfg.gammas[0], cfg.t_end)
    assert run.stats.rhs_evals / run.stats.steps <= 3.5


@SCHEMES
def test_quadratic_forcing_is_predicted_exactly(gamma):
    # each stage's derivative is a quadratic in the step index, which the
    # three-step extrapolation reproduces: from the fourth step on, every
    # stage ends in its first round (43 and 45 evaluations in all)
    k, steps, times = 0.1, 20, []

    def f(t, v):
        times.append(t[0, 0])
        return 0.3 - 2.0 * t + 5.0 * t * t + 0.0 * v

    [(_, _, _, stats)], _ = timestep.integrate(f, np.array([1.0]),
                                               [(gamma, IntegrationPlan(k=k, t_end=steps * k))])
    assert sum(t > 3 * k for t in times) == 2 * (steps - 3)
    assert stats.steps == steps and stats.rhs_evals <= 2 * steps + 6


# --- lockstep runs -------------------------------------------------------------

# different gamma and k, snapshots (one at t = 0) and a plan of zero steps
_LOCKSTEP_RUNS = [
    (0.5, IntegrationPlan(k=0.1, t_end=0.5, snapshot_times=(0.0, 0.2))),
    (GAMMA_ORDER3, IntegrationPlan(k=0.05, t_end=0.5, snapshot_times=(0.25, 0.5))),
    (GAMMA_ORDER3, IntegrationPlan(k=0.125, t_end=0.0, snapshot_times=(0.0,))),
    (0.3, IntegrationPlan(k=0.125, t_end=0.25)),
]


def _assert_lockstep_matches_alone(f, y0, runs, atol):
    results, total = timestep.integrate(f, y0, runs)
    assert len(results) == len(runs)
    for (gamma, plan), (t, y, snaps, stats) in zip(runs, results):
        [(t1, y1, snaps1, stats1)], _ = timestep.integrate(f, y0, [(gamma, plan)])
        assert t == t1 and stats.steps == stats1.steps == plan.n_steps
        assert (stats.rhs_evals, stats.max_stage_iters) == (stats1.rhs_evals, stats1.max_stage_iters)
        assert stats.max_stage_residual == pytest.approx(stats1.max_stage_residual, rel=0, abs=atol)
        assert [s for s, _ in snaps] == [s for s, _ in snaps1]
        for a, b in [(y, y1)] + [(v, v1) for (_, v), (_, v1) in zip(snaps, snaps1)]:
            if atol == 0.0:
                assert np.array_equal(a, b)
            else:
                assert np.abs(a - b).max() <= atol
    assert total.steps == sum(r[3].steps for r in results)
    assert total.rhs_evals == sum(r[3].rhs_evals for r in results)
    assert total.max_stage_iters == max(r[3].max_stage_iters for r in results)
    assert 0.0 < total.max_stage_residual <= timestep.STAGE_TOL


@pytest.mark.parametrize("f, y0", [
    (lambda t, v: -v, np.array([1.0, -0.5])),
    (lambda t, v: -v + np.cos(t) * v * v, np.array([0.3, -0.2, 0.5])),
])
def test_lockstep_runs_match_runs_alone_bit_for_bit(f, y0):
    # an elementwise field computes each row as it would alone
    _assert_lockstep_matches_alone(f, y0, _LOCKSTEP_RUNS, 0.0)


@pytest.mark.parametrize("preset", ["table1", "table2", "table3"])
def test_lockstep_runs_match_runs_alone_gni(preset):
    # the folded products take all rows at once, so they may round
    # differently from a product of one row: c != 0 (table1, table3),
    # time-dependent boundary traces (table2) and b != d (table3)
    problem = experiments._resolve_problem(experiments.PRESETS[preset])
    basis = build_basis(0.0, 33)
    field = semidiscrete.make_vector_field(
        semidiscrete.assemble(basis, problem.params, problem.imap), problem.bdata)
    y0 = semidiscrete.initial_state(basis, problem.imap, problem.eta_init, problem.u_init)
    _assert_lockstep_matches_alone(field, y0, _LOCKSTEP_RUNS, 1e-13)


def test_stage_divergence_names_the_run():
    # y' = -10 y: the first stage contracts by 10 gamma k, 0.25 at k = 0.05
    # and 2.5 at k = 0.5, where it diverges in the first step
    f = lambda t, v: -10.0 * v
    small, large = (IntegrationPlan(k=k, t_end=1.0) for k in (0.05, 0.5))
    runs = [(0.5, small), (0.5, large)]
    with pytest.raises(timestep.StageDivergenceError,
                       match=r"diverging .* at step 0 of the run gamma=0.5, k=0.5;") as info:
        timestep.integrate(f, np.array([1.0]), runs)
    assert (info.value.gamma, info.value.k, info.value.step) == (0.5, 0.5, 0)
    [(_, y, _, stats)], _ = timestep.integrate(f, np.array([1.0]), runs[:1])
    assert stats.steps == 20 and 0.0 < y[0] < 1.0


def test_later_failure_after_the_block_shrank_names_its_run():
    # the decay rate jumps from 1 to 50 after t = 0.33: the one-step run
    # leaves the block, then the k = 0.1 run's first stage at 0.35 contracts
    # by 50 gamma k = 2.5 and diverges in its fourth step, while the k = 0.01
    # run's contracts by 0.39
    heights = []

    def f(t, v):
        heights.append(len(t))
        return -np.where(t > 0.33, 50.0, 1.0) * v

    runs = [(GAMMA_ORDER3, IntegrationPlan(k=0.05, t_end=0.05)),
            (0.5, IntegrationPlan(k=0.1, t_end=1.0)),
            (GAMMA_ORDER3, IntegrationPlan(k=0.01, t_end=1.0))]
    with pytest.raises(timestep.StageDivergenceError,
                       match=r"diverging .* at step 3 of the run gamma=0.5, k=0.1;") as info:
        timestep.integrate(f, np.array([1.0, -0.5]), runs)
    assert info.value.step == 3
    # the one-step run's two stages end in round 17; the k = 0.1 run's first
    # three steps take 11, 10 and 9 rounds, and its fourth step's first stage
    # has grown five times in its sixth round, round 36
    assert heights == [3] * 17 + [2] * 19


# --- stability function and dispersion --------------------------------------

def test_stability_function_basics():
    mid = 0.5
    assert timestep.stability_function(mid, 0.0) == 1.0
    zs = [0.3 + 0.2j, -1.0 + 0.7j, 2.4j]
    for z in zs:
        ref = (1 + z / 2) / (1 - z / 2)
        assert timestep.stability_function(mid, z) == pytest.approx(ref, rel=1e-14)
    with pytest.raises(ZeroDivisionError):
        timestep.stability_function(mid, 2.0)


@SCHEMES
def test_stability_function_series_order(gamma):
    # R(z) - e^z = O(z^{p+1}): halving z shrinks the defect by ~2^{p+1}
    h = 0.02
    d1 = abs(timestep.stability_function(gamma, h) - math.exp(h))
    d2 = abs(timestep.stability_function(gamma, h / 2) - math.exp(h / 2))
    assert math.log2(d1 / d2) == pytest.approx(ORDER[gamma] + 1, abs=0.05)


def test_midpoint_nondissipative_on_imaginary_axis():
    mid = 0.5
    for y in np.linspace(-10.0, 10.0, 201):
        assert abs(abs(timestep.stability_function(mid, 1j * y)) - 1.0) <= 1e-13


def test_order3_scheme_is_dissipative_but_a_stable():
    # |R(iy)| < 1 for y != 0: numerator y^4 coefficient alpha^2 is below
    # the denominator's gamma^4, so the order-3 member damps on the
    # imaginary axis (it is not nondissipative).
    o3 = GAMMA_ORDER3
    _, alpha = timestep._numerator(o3)
    assert alpha**2 < o3**4
    mods = np.array(
        [abs(timestep.stability_function(o3, 1j * y)) for y in np.linspace(-10, 10, 401)]
    )
    assert np.all(mods <= 1.0 + 1e-14)
    assert abs(timestep.stability_function(o3, 1j * 1.0)) < 0.97


def test_dispersion_error_basics():
    assert timestep.dispersion_error(0.5, 0.0) == 0.0
    # midpoint: Phi(y) = y^3/12 + O(y^5)
    y = 1e-2
    got = timestep.dispersion_error(0.5, y)
    assert got == pytest.approx(y**3 / 12, rel=1e-3)


def test_dispersion_error_is_odd():
    o3 = GAMMA_ORDER3
    ys = np.linspace(-0.5, 0.5, 11)
    phi = timestep.dispersion_error(o3, ys)
    assert np.abs(phi + phi[::-1]).max() < 1e-16


def test_dispersion_slopes_true_orders():
    # phase error is odd in y, so slopes are odd: 3 for the second-order
    # member (q = 2) and 5 for the third-order member (q = 4).
    assert timestep.dispersion_slope(0.5) == pytest.approx(3.0, abs=0.1)
    assert timestep.dispersion_slope(GAMMA_ORDER3) == pytest.approx(5.0, abs=0.1)


def test_order3_dispersion_leading_coefficient():
    # Phi(y) = (5 sqrt(3) + 9)/180 * y^5 + O(y^7) up to sign
    o3 = GAMMA_ORDER3
    y = 1e-2
    coeff = abs(timestep.dispersion_error(o3, y)) / y**5
    assert coeff == pytest.approx((5 * math.sqrt(3) + 9) / 180, rel=1e-3)


# --- stage-time handling with time-dependent boundary data -------------------

@pytest.fixture(scope="module")
def truncated_solitary():
    sol = model.solitary_bona_smith(9 / 11)
    imap = model.IntervalMap(-5.0, 5.0)
    bdata = model.BoundaryData.from_exact(sol, -5.0, 5.0)
    basis = build_basis(0.0, 64)
    sys_ = semidiscrete.assemble(basis, sol.params, imap)
    y0 = semidiscrete.initial_state(
        basis, imap, lambda x: sol.eta(x, 0.0), lambda x: sol.u(x, 0.0)
    )
    field = semidiscrete.make_vector_field(sys_, bdata)
    return sol, imap, basis, bdata, y0, field


def _run_with_mode(fixture, k, mode):
    sol, imap, basis, bdata, y0, field = fixture
    y = y0.copy()
    n = round(1.0 / k)
    for step in range(n):
        tn = step * k
        f = field if mode == "stage" else (lambda t, v, tn=tn: field(np.full_like(t, tn), v))
        y = timestep.sdirk_step(f, tn, y, k, GAMMA_ORDER3)
    ns = analysis.NodalSolution(basis, imap, *semidiscrete.nodal_values(y, bdata.at(1.0)), 1.0)
    return analysis.error_vs_exact([ns], sol, 1.0, analysis.NormSpec(1, 1))[0]


def test_stage_times_preserve_third_order(truncated_solitary):
    errs = [_run_with_mode(truncated_solitary, k, "stage") for k in (0.1, 0.05, 0.025)]
    rates = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(rates) > 2.8


def test_frozen_stage_times_degrade_order(truncated_solitary):
    errs = [_run_with_mode(truncated_solitary, k, "frozen") for k in (0.1, 0.05, 0.025)]
    rates = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert max(rates) < 2.0
    stage_err = _run_with_mode(truncated_solitary, 0.025, "stage")
    assert errs[-1] > 50 * stage_err
