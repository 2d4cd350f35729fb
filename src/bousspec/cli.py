"""Command-line experiment runner.

    solver run <config|preset>       execute an experiment, write artifacts
    solver compare <config|preset>   refinement-quotient table (doubling chain)
    solver diagnose <sub> [flags]    quadrature / dispersion / residual dumps

Exit codes: 0 success, 2 configuration error, 3 numerical failure.  The
output root defaults to ./results, overridable with --output or the
BOUSSPEC_OUTPUT_ROOT environment variable.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import experiments, model, timestep
from .experiments import ConfigError, ExperimentConfig, PRESETS
from .jacobi import QuadratureError, build_basis
from .linalg import SingularMatrixError
from .timestep import SdirkScheme, StageDivergenceError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _load_config(target: str) -> ExperimentConfig:
    if target in PRESETS:
        return PRESETS[target]
    if not os.path.exists(target):
        raise ConfigError(f"no preset or config file named {target!r}")
    with open(target) as fh:
        name = os.path.splitext(os.path.basename(target))[0]
        return experiments.parse_config(fh.read(), name=name)


def _cmd_run(args) -> int:
    cfg = _load_config(args.config)
    written = experiments.execute(cfg, outdir=args.output)
    for path in written:
        print(path)
    return EXIT_OK


def _cmd_compare(args) -> int:
    cfg = _load_config(args.config)
    if cfg.mode != "ratio_table":
        raise ConfigError("compare needs a ratio_table config (doubling N chain)")
    return _cmd_run(args)


def _cmd_diagnose(args) -> int:
    if args.sub == "quadrature":
        basis = build_basis(args.mu, args.n)
        print("node,weight")
        for x, w in zip(basis.nodes, basis.weights):
            print(f"{x:.15E},{w:.15E}")
        if args.matrices:
            for label, mat in (("d1", basis.d1), ("d2", basis.d2), ("psi", basis.psi)):
                print(f"# {label}")
                for row in np.atleast_2d(mat):
                    print(",".join(f"{v:.15E}" for v in row))
    elif args.sub == "dispersion":
        scheme = SdirkScheme.from_gamma(args.gamma)
        ys = np.logspace(-3, -1, 25)
        print("y,phase_error")
        for y in ys:
            print(f"{y:.6E},{timestep.dispersion_error(scheme, y):.15E}")
        slope = timestep.dispersion_slope(scheme)
        print(f"# log-log slope = {slope:.4f}")
    elif args.sub == "residual":
        sol = _diagnose_solution(args)
        grid = np.linspace(-30.0, 30.0, 2001)
        r1, r2 = model.pde_residual(sol, sol.params, grid, 0.0)
        print("equation,max_residual")
        print(f"eta,{r1:.6E}")
        print(f"u,{r2:.6E}")
    else:  # pragma: no cover - argparse restricts choices
        raise ConfigError(f"unknown diagnose subcommand {args.sub!r}")
    return EXIT_OK


def _diagnose_solution(args) -> model.ExactSolution:
    preset = args.preset or "bs-solitary"
    if preset == "bs-solitary":
        theta2 = experiments._parse_fraction(args.theta2 or "9/11")
        return model.solitary_bona_smith(theta2)
    if preset == "bbm-traveling":
        return model.traveling_bbm(args.rho, args.cs)
    if preset == "bneqd-solitary":
        theta2 = experiments._parse_fraction(args.theta2 or "7/9")
        return model.solitary_b_neq_d(args.amplitude, theta2)
    raise ConfigError(f"no closed form for preset {preset!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="solver",
        description="Spectral Galerkin solver for Bona-Smith Boussinesq systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment config or preset")
    p_run.add_argument("config", help="config file path or preset name")
    p_run.add_argument("--output", help="output directory override")
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser("compare", help="refinement-quotient study")
    p_cmp.add_argument("config", help="config file path or preset name")
    p_cmp.add_argument("--output", help="output directory override")
    p_cmp.set_defaults(func=_cmd_compare)

    p_diag = sub.add_parser("diagnose", help="dump module diagnostics as CSV")
    p_diag.add_argument("sub", choices=("quadrature", "dispersion", "residual"))
    p_diag.add_argument("--mu", type=float, default=0.0)
    p_diag.add_argument("--N", dest="n", type=int, default=8)
    p_diag.add_argument("--matrices", action="store_true",
                        help="also dump d1/d2/psi matrices")
    p_diag.add_argument("--gamma", type=experiments._parse_gamma, default=0.5)
    p_diag.add_argument("--preset", help="closed-form family to validate")
    p_diag.add_argument("--theta2", help="theta^2, fractions allowed (9/11)")
    p_diag.add_argument("--amplitude", type=float, default=1.0)
    p_diag.add_argument("--rho", type=float, default=2.0)
    p_diag.add_argument("--cs", type=float, default=1.0)
    p_diag.set_defaults(func=_cmd_diagnose)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # SingularMatrixError is a ValueError, so it must be caught first
    except (StageDivergenceError, QuadratureError, SingularMatrixError,
            FloatingPointError, ZeroDivisionError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
