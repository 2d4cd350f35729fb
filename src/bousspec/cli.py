"""Command-line experiment runner.

    solver run <config|preset> [--output DIR]   execute an experiment, write artifacts
    solver diagnose quadrature [--mu M] [--N N] [--matrices]   Lobatto rule (and matrices)
    solver diagnose dispersion [--gamma G]      SDIRK phase error y - arg R(iy)
    solver diagnose residual <config|preset>    PDE residuals its closed form's gate measured

Exit codes: 0 success, 2 configuration error or an artifact that cannot be
written, 3 numerical failure: a stage iteration that diverged, a failed
quadrature, an ArithmeticError (overflow, a non-finite stage, a singular
mass block) or a ratio-table worker process that died.  A run writes to
--output DIR, or to results/<name> under the working directory.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import experiments, timestep
from .experiments import ConfigError, ExperimentConfig, PRESETS
from .jacobi import QuadratureError, build_basis
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


def _cmd_quadrature(args) -> int:
    # the node search is O(N^2) and --matrices forms dense (N+1)^2 arrays
    if not 2 <= args.n <= experiments.N_MAX:
        raise ConfigError(f"--N must lie in [2, {experiments.N_MAX}], got {args.n}")
    basis = build_basis(args.mu, args.n)
    print("node,weight")
    for x, w in zip(basis.nodes, basis.weights):
        print(f"{x:.15E},{w:.15E}")
    if args.matrices:
        # one dense matrix at a time: each is freed when its print returns
        for label in ("d1", "d2", "psi"):
            _print_matrix(label, getattr(basis, label))
    return EXIT_OK


def _print_matrix(label: str, mat: np.ndarray) -> None:
    print(f"# {label}")
    for row in np.atleast_2d(mat):
        print(",".join(f"{v:.15E}" for v in row))


def _cmd_dispersion(args) -> int:
    try:
        experiments.check_gammas((args.gamma,))
    except ConfigError as exc:
        raise ConfigError(f"--gamma {args.gamma!r}: {exc}") from None
    # every row and the slope before any output, so a failure prints nothing
    rows = [f"{y:.6E},{timestep.dispersion_error(args.gamma, y):.15E}"
            for y in np.logspace(*timestep.DISPERSION_Y_GRID)]
    slope = timestep.dispersion_slope(args.gamma)
    print("\n".join(["y,phase_error", *rows, f"# log-log slope = {slope:.4f}"]))
    return EXIT_OK


def _cmd_residual(args) -> int:
    cfg = _load_config(args.config)
    sol = experiments.closed_form(cfg)
    if sol is None:
        raise ConfigError(f"{args.config!r} has initial-data {cfg.initial_data!r}, "
                          "which has no closed form")
    print("equation,max_residual")
    for name, r in zip(("eta", "u"), sol.residual):
        print(f"{name},{r:.6E}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="solver",
        description="Spectral Galerkin solver for Bona-Smith Boussinesq systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment config or preset")
    p_run.add_argument("config", help="config file path or preset name")
    p_run.add_argument("--output", metavar="DIR", help="output directory (default results/<name>)")
    p_run.set_defaults(func=_cmd_run)

    p_diag = sub.add_parser("diagnose", help="dump module diagnostics as CSV")
    diag = p_diag.add_subparsers(dest="diagnostic", required=True)
    p_quad = diag.add_parser("quadrature", help="Gauss-Lobatto nodes and weights")
    p_quad.add_argument("--mu", type=float, default=0.0)
    p_quad.add_argument("--N", dest="n", type=int, default=8)
    p_quad.add_argument("--matrices", action="store_true", help="also dump d1/d2/psi matrices")
    p_quad.set_defaults(func=_cmd_quadrature)
    p_disp = diag.add_parser("dispersion", help="phase error y - arg R(iy) of the SDIRK member")
    p_disp.add_argument("--gamma", type=experiments._parse_gamma, default=0.5)
    p_disp.set_defaults(func=_cmd_dispersion)
    p_res = diag.add_parser("residual", help="residuals of a config's closed form, from its gate")
    p_res.add_argument("config", help="config file path or preset name")
    p_res.set_defaults(func=_cmd_residual)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # ArithmeticError covers overflow, division by zero, a non-finite stage and a
    # singular mass block (linalg.SingularMatrixError), ChildProcessError a dead fork_map worker
    except (StageDivergenceError, QuadratureError, ArithmeticError, ChildProcessError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
