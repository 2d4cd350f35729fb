"""Acceptance suite: every criterion with its pinned tolerance.

Each test prints one ``ACCEPTANCE <id>: PASS|FAIL`` line (visible with
``pytest -s`` or on failure).  Criteria 1-5 and 7-10 run in the default
suite (minutes); criterion 6 (the bore refinement chain) is marked slow
and needs ``--runslow``.

Criteria 1-6 run the shipped presets through the path ``solver run``
takes: ``experiments.run_error_table`` for ``table1``-``table3`` (all six
(gamma, k) runs in one lockstep batch) and ``experiments.run_ratio_table``
for ``table5``, ``table5b``, ``table6`` and ``table4``, each on the
doubling chain its criterion reads.  Criterion 7 solves the ``table1``
problem at several N.

Criteria 1-5 also compare their cells with ``golden_cells.json``: the
errors and rates of ``table1``-``table3``, and the quotient rows that
criteria 4 and 5 read, computed at one OpenBLAS thread by the tree that
still factored the mass blocks with its own recursive LU.

Three sub-criteria encode reference targets that the governing equations
themselves contradict; they are kept failing on purpose and document the
measured values:

* 6   - the reference bore quotients require refinement differences that
        GROW under refinement; a convergent discretization produces
        collapsing differences instead (see the companion test).
* 10b - |R(iy)| = 1 for the order-3 integrator: its stability function is
        strictly dissipative on the imaginary axis (|R(i)| ~ 0.965).
* 10e - dispersion slope 4 for the order-3 integrator: the phase error is
        an odd function, so the slope is 5 (dispersion order 4, not 3).
"""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from bousspec import analysis, experiments, jacobi, model, timestep
from bousspec.analysis import NodalSolution
from bousspec.experiments import PRESETS
from bousspec.jacobi import build_basis, glj_rule
from bousspec.timestep import GAMMA_ORDER3, IntegrationPlan


def report(criterion: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _check_error_table(tag, result, reference, reference_rates):
    lines = []
    ok = True
    for gamma, (errors, rates) in result["columns"].items():
        for k, err, ref in zip(result["k_values"], errors, reference[gamma]):
            ratio = err / ref
            ok &= 0.5 <= ratio <= 2.0
            lines.append(f"g={gamma:.3g} k={k}: {err:.4e} ({ratio:.2f}x ref)")
        for rate, ref in zip(rates, reference_rates[gamma]):
            ok &= abs(rate - ref) <= 0.15
            lines.append(f"rate {rate:.2f} (ref {ref})")
    report(tag, ok, "; ".join(lines))


GOLDEN = json.loads(Path(__file__).with_name("golden_cells.json").read_text())
# per cell, relative, with a floor of CELL_FLOOR x the column's largest value
# (an error near the round-off of its column); two BLAS threads moved the
# error tables by at most 2.4e-10
CELL_RTOL, CELL_FLOOR = 1e-9, 1e-12
# a quotient row carries fewer digits than it prints: FOUND 32 in CHANGES.md
# saw table5b's N = 128 row move by 2e-8 under one rounding change
RATIO_RTOL = 1e-7


def _match_golden(what, cells, golden, rtol):
    floor = CELL_FLOOR * max(abs(g) for g in golden)
    off = [f"{c!r} (golden {g!r})" for c, g in zip(cells, golden, strict=True)
           if not abs(c - g) <= max(rtol * abs(g), floor)]
    assert not off, f"{what}: {', '.join(off)}"


def _match_golden_table(preset, result):
    golden = GOLDEN[preset]
    assert list(golden) == [f"{g:.10g}" for g in result["columns"]]
    for gamma, (errors, rates) in result["columns"].items():
        label = f"{gamma:.10g}"
        _match_golden(f"{preset} errors, gamma={label}", errors, golden[label]["errors"], CELL_RTOL)
        _match_golden(f"{preset} rates, gamma={label}", rates, golden[label]["rates"], CELL_RTOL)


def _match_golden_row(preset, row):
    golden = dict(GOLDEN[preset])
    assert row["n"] == golden.pop("n")
    for label, value in golden.items():
        _match_golden(f"{preset} E_{row['n']}({label})", [row[label]], [value], RATIO_RTOL)


def _error_table(preset):
    """The result of ``preset``'s error table."""
    cfg = PRESETS[preset]
    return experiments.run_error_table(cfg, experiments._resolve_problem(cfg))


def _ratio_rows(preset, n_values):
    """The rows of ``preset``'s ratio table on the chain ``n_values``, by N."""
    cfg = dataclasses.replace(PRESETS[preset], n_values=n_values).validate()
    rows = experiments.run_ratio_table(cfg, experiments._resolve_problem(cfg))["rows"]
    return {row["n"]: row for row in rows}


# --- criterion 1: solitary-wave error table ---------------------------------

@pytest.fixture(scope="module")
def table1_result():
    return _error_table("table1")


def test_criterion_1_table1(table1_result):
    reference = {
        0.5: (2.2373e-2, 5.6737e-3, 1.4236e-3),
        timestep.GAMMA_ORDER3: (6.7487e-3, 8.7667e-4, 1.1029e-4),
    }
    rates = {0.5: (1.98, 1.99), timestep.GAMMA_ORDER3: (2.96, 2.99)}
    _check_error_table("1", table1_result, reference, rates)
    _match_golden_table("table1", table1_result)


def test_stage_iteration_regression_guard(table1_result):
    # fixed-point stage counts stay modest at the largest table step size
    assert max(s["max_stage_iters"] for s in table1_result["solves"]) <= 30


# --- criterion 2: BBM-BBM traveling-wave error table -------------------------

def test_criterion_2_table2():
    reference = {
        0.5: (2.6200e-2, 6.6298e-3, 1.6627e-3),
        timestep.GAMMA_ORDER3: (6.8554e-3, 8.6027e-4, 1.0989e-4),
    }
    rates = {0.5: (1.98, 1.99), timestep.GAMMA_ORDER3: (2.99, 2.98)}
    result = _error_table("table2")
    _check_error_table("2", result, reference, rates)
    _match_golden_table("table2", result)


# --- criterion 3: unequal mass coefficients ----------------------------------

def test_criterion_3_table3():
    reference = {
        0.5: (3.6446e-2, 9.2402e-3, 2.3183e-3),
        timestep.GAMMA_ORDER3: (1.0898e-2, 1.4150e-3, 1.7802e-4),
    }
    rates = {0.5: (1.98, 1.99), timestep.GAMMA_ORDER3: (2.95, 2.99)}
    result = _error_table("table3")
    _check_error_table("3", result, reference, rates)
    _match_golden_table("table3", result)


# --- criteria 4-6: refinement quotients --------------------------------------

def test_criterion_4_table5():
    row_a = _ratio_rows("table5", (128, 256, 512))[128]
    row_b = _ratio_rows("table5b", (128, 256, 512))[128]
    e_a, e_b = row_a["H1xH1"], row_b["H1xL2"]
    ok = abs(e_a - 2.818) <= 0.05 and abs(e_b - 2.823) <= 0.05
    ok &= 1.485 <= math.log2(e_a) <= 1.505 and 1.485 <= math.log2(e_b) <= 1.505
    report(
        "4", ok,
        f"E_128(H1xH1, theta2=2/3)={e_a:.4f} (want 2.818+-0.05), "
        f"E_128(H1xL2, theta2=9/11)={e_b:.4f} (want 2.823+-0.05); "
        f"log2 {math.log2(e_a):.4f}, {math.log2(e_b):.4f}",
    )
    _match_golden_row("table5", row_a)
    _match_golden_row("table5b", row_b)


def test_criterion_5_table6():
    row = _ratio_rows("table6", (256, 512, 1024))[256]
    e_l2 = row["L2xL2"]
    e_h1 = row["H1xH1"]
    ok = abs(e_l2 - 2.813) <= 0.05 and abs(e_h1 - 1.413) <= 0.03
    report(
        "5", ok,
        f"E_256(L2xL2)={e_l2:.4f} (want 2.813+-0.05), "
        f"E_256(H1xH1)={e_h1:.4f} (want 1.413+-0.03)",
    )
    _match_golden_row("table6", row)


@pytest.fixture(scope="module")
def bore_chain():
    return _ratio_rows("table4", (128, 256, 512, 1024))


@pytest.mark.slow
def test_criterion_6_table4_reference_values_expected_fail(bore_chain):
    """Reference bore quotients, asserted verbatim; fails by design.

    The reference table has E_N ~ 0.614 (ln = -0.487) constant in N, which
    would mean each refinement CHANGES the solution more than the previous
    one.  A convergent discretization of smooth data cannot produce that:
    measured inter-level differences collapse (1e-2 -> 2e-5 -> 4e-10), so
    the measured quotients are orders of magnitude above 1.
    """
    e128 = bore_chain[128]["L2xL2"]
    e256 = bore_chain[256]["L2xL2"]
    ok = abs(math.log(e128) + 0.487) <= 0.02 and abs(math.log(e256) + 0.487) <= 0.02
    report(
        "6", ok,
        f"ln E_128={math.log(e128):.3f}, ln E_256={math.log(e256):.3f} "
        f"(reference -0.487+-0.02; unattainable for a convergent scheme)",
    )


@pytest.mark.slow
def test_criterion_6_companion_bore_actually_converges(bore_chain):
    # the behavior a convergent scheme must show: quotients far above one,
    # i.e. refinement differences shrinking rapidly
    e128 = bore_chain[128]["L2xL2"]
    e256 = bore_chain[256]["L2xL2"]
    assert e128 > 50.0
    assert e256 > 1.0


# --- criterion 7: spatial spectral convergence at fixed k ---------------------

def test_criterion_7_spatial_spectral_convergence():
    cfg = PRESETS["table1"]
    problem = experiments._resolve_problem(cfg)
    exact, imap, t_end = problem.exact, problem.imap, cfg.t_end
    [spec] = cfg.norms
    errors = []
    for n in (32, 64, 128, 256):
        run = experiments.solve_once(problem, n, 1e-3, timestep.GAMMA_ORDER3, t_end)
        errors += analysis.error_vs_exact([run.solution], exact, t_end, spec)
    ratios = [errors[i] / errors[i + 1] for i in range(len(errors) - 1)]
    monotone = all(r > 1.0 for r in ratios)
    # average decay over the sweep: at least one decade per doubling
    mean_decay = (errors[0] / errors[-1]) ** (1.0 / (len(errors) - 1))
    # once a level is resolved (error below a quarter of the solution size),
    # every further doubling must shave at least a decade
    basis = build_basis(0.0, 256)
    x = imap.to_physical(basis.nodes)
    solution_scale = analysis.self_norm(
        NodalSolution(basis=basis, imap=imap, eta=exact.eta(x, t_end), u=exact.u(x, t_end),
                      t=t_end),
        spec,
    )
    resolved_ok = all(
        r >= 10.0 for e, r in zip(errors, ratios) if e < 0.25 * solution_scale
    )
    ok = monotone and mean_decay >= 10.0 and resolved_ok and errors[-1] < 1e-3
    report(
        "7", ok,
        f"errors {[f'{e:.2e}' for e in errors]}, ratios "
        f"{[f'{r:.1f}' for r in ratios]}, mean decay {mean_decay:.1f}x/doubling",
    )


# --- criterion 8: quadrature and basis property suite -------------------------

def test_criterion_8_quadrature_basis_suite(rng):
    details = []
    ok = True
    for mu in (-0.5, -0.25, 0.0, 0.25, 0.5):
        for n in (4, 8, 16):
            rule = glj_rule(mu, n)
            moments = np.array([jacobi.weight_moment(mu, k) for k in range(2 * n)])
            scale = np.array(
                [jacobi.weight_moment(mu, k if k % 2 == 0 else k - 1) for k in range(2 * n)]
            )
            powers = np.vstack([rule.nodes**k for k in range(2 * n)])
            worst = 0.0
            for _ in range(20):
                coeff = rng.uniform(-1.0, 1.0, size=2 * n)
                err = abs(rule.integrate(coeff @ powers) - coeff @ moments)
                worst = max(worst, err / (np.abs(coeff) @ scale))
            ok &= worst <= 1e-10
    details.append("exactness<=1e-10")
    basis = build_basis(0.25, 16)
    kron = np.abs(jacobi.nodal_eval(basis, np.eye(17), basis.nodes) - np.eye(17)).max()
    ok &= kron < 1e-11
    details.append(f"kronecker {kron:.1e}")
    d1_err = np.abs(basis.d1 @ basis.nodes**3 - 3 * basis.nodes**2).max()
    ok &= d1_err < 1e-11 * 16**2
    details.append(f"d1 exactness {d1_err:.1e}")
    d2_err = np.abs(basis.d2 - basis.d1 @ basis.d1).max() / np.abs(basis.d2).max()
    ok &= d2_err <= 1e-10
    details.append(f"d2=d1@d1 rel {d2_err:.1e}")
    ok &= bool(np.all(build_basis(0.0, 16).psi == 0.0))
    details.append("psi(mu=0)=0")
    report("8", ok, ", ".join(details))


# --- criterion 9: closed-form residual gates ----------------------------------

def test_criterion_9_residual_gates():
    grid = np.linspace(-40.0, 40.0, 2001)
    worst = 0.0
    for factory in (
        lambda: model.solitary_bona_smith(9 / 11),
        lambda: model.traveling_bbm(2.0, 1.0),
        lambda: model.solitary_b_neq_d(1.0),
    ):
        sol = factory()
        worst = max(worst, *model.pde_residual(sol, sol.params, grid, 0.5))
    sol = model.solitary_bona_smith(9 / 11)
    bad = model.ExactSolution(
        sol.params, sol.speed, 0.0,
        lambda xi, d: 1.01 * sol._eta(xi, d), sol._u,
    )
    neg = max(model.pde_residual(bad, sol.params, grid, 0.0))
    ok = worst <= 1e-8 and neg >= 1e-4
    report("9", ok, f"families max residual {worst:.2e}; perturbed control {neg:.2e}")


# --- criterion 10: integrator diagnostics -------------------------------------

def test_criterion_10a_midpoint_nondissipative():
    worst = max(
        abs(abs(timestep.stability_function(0.5, 1j * y)) - 1.0)
        for y in np.linspace(-10.0, 10.0, 401)
    )
    report("10a", worst <= 1e-13, f"max | |R(iy)|-1 | = {worst:.2e} (gamma=1/2)")


def test_criterion_10b_order3_nondissipative_claim_expected_fail():
    """|R(iy)| = 1 to 1e-13 for the order-3 member; fails by design.

    For the two-stage family, |R(iy)| = 1 requires the numerator's y^4
    coefficient alpha^2 to equal gamma^4.  At gamma = (3+sqrt(3))/6,
    alpha^2 = 0.207 < gamma^4 = 0.387, so the scheme is strictly
    dissipative on the imaginary axis (still A-stable).
    """
    worst = max(
        abs(abs(timestep.stability_function(GAMMA_ORDER3, 1j * y)) - 1.0)
        for y in np.linspace(-10.0, 10.0, 401)
    )
    report("10b", worst <= 1e-13, f"max | |R(iy)|-1 | = {worst:.2e} (gamma order-3)")


def test_criterion_10c_consistency_orders():
    measured = {}
    for gamma, order in ((0.5, 2), (GAMMA_ORDER3, 3)):
        errs = []
        for k in (0.02, 0.01, 0.005):
            [(_, y, _, _)], _ = timestep.integrate(
                lambda t, v: -v, np.array([1.0]), [(gamma, IntegrationPlan(k=k, t_end=1.0))]
            )
            errs.append(abs(y[0] - math.exp(-1.0)))
        measured[order] = math.log2(errs[1] / errs[2])
    ok = abs(measured[2] - 2) <= 0.05 and abs(measured[3] - 3) <= 0.05
    report("10c", ok, f"scalar-test orders {measured[2]:.3f}, {measured[3]:.3f}")


def test_criterion_10d_midpoint_dispersion_slope():
    slope = timestep.dispersion_slope(0.5)
    report("10d", abs(slope - 3.0) <= 0.1, f"slope {slope:.3f} (q=2)")


def test_criterion_10e_order3_dispersion_slope_claim_expected_fail():
    """Dispersion slope 4 (q = 3) for the order-3 member; fails by design.

    The phase error of any real-coefficient scheme is odd in y, so only
    odd slopes occur.  The y^3 coefficient cancels at this gamma and the
    y^5 coefficient is (5 sqrt(3)+9)/180, giving slope 5 (q = 4) - which
    also matches the even-stage DIRK dispersion theorem.
    """
    slope = timestep.dispersion_slope(GAMMA_ORDER3)
    report("10e", abs(slope - 4.0) <= 0.1, f"slope {slope:.3f} (true value 5, q=4)")
