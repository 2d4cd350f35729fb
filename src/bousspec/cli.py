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
from .timestep import StageDivergenceError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _load_config(target: str) -> ExperimentConfig:
    if target in PRESETS:
        return PRESETS[target]
    if not os.path.exists(target):
        raise ConfigError(f"no preset or config file named {target!r}")
    try:
        with open(target) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ConfigError(f"cannot read config {target!r}: {reason}") from exc
    return experiments.parse_config(text, name=os.path.splitext(os.path.basename(target))[0])


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
        # the node search is O(N^2) and --matrices forms dense (N+1)^2 arrays
        if not 2 <= args.n <= experiments.N_MAX:
            raise ConfigError(f"--N must lie in [2, {experiments.N_MAX}], got {args.n}")
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
        try:
            experiments.check_gammas((args.gamma,))
        except ConfigError as exc:
            raise ConfigError(f"--gamma {args.gamma!r}: {exc}") from None
        # every row and the slope before any output, so a failure prints nothing
        rows = [f"{y:.6E},{timestep.dispersion_error(args.gamma, y):.15E}"
                for y in np.logspace(-3, -1, 25)]
        slope = timestep.dispersion_slope(args.gamma)
        print("\n".join(["y,phase_error", *rows, f"# log-log slope = {slope:.4f}"]))
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
    """The closed form of the config that the diagnose flags spell."""
    theta2 = args.theta2 or ("9/11" if args.preset == "bs-solitary" else None)
    flags = [("--preset", "initial-data", args.preset), ("--theta2", "theta2", theta2),
             ("--amplitude", "amplitude", args.amplitude), ("--rho", "rho", args.rho),
             ("--cs", "c-s", args.cs)]
    cfg = experiments.config_from_items([f for f in flags if f[2] is not None])
    return experiments.closed_form(cfg)


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
    p_diag.add_argument("--preset", default="bs-solitary", help="closed-form family to validate")
    p_diag.add_argument("--theta2", help="theta^2, fractions allowed (default 9/11 for bs-solitary)")
    p_diag.add_argument("--amplitude", default="1.0")
    p_diag.add_argument("--rho", default="2.0")
    p_diag.add_argument("--cs", default="1.0")
    p_diag.set_defaults(func=_cmd_diagnose)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # SingularMatrixError is a ValueError, so it must be caught first;
    # ArithmeticError covers overflow and division by zero
    except (StageDivergenceError, QuadratureError, SingularMatrixError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
