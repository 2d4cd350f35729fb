"""Per-configuration child processes of the benchmark.

    python3 child.py setup CONFIG
        import bousspec, resolve the problem (closed-form residual gate
        included) and run ``experiments.solve_once`` to t = 0 for every N of
        CONFIG: basis, assembly, initial state and vector field, no time step.

    python3 child.py trace CONFIG OUTDIR SUMMARY
        run ``solver run CONFIG --output OUTDIR`` through bousspec.cli.main
        with every layer wrapped by bench_trace, and write the span and
        counter aggregates to SUMMARY as JSON.

Both run in a fresh interpreter so that they pay import and set-up the way
a user's run does; the parent times them from outside.
"""

from __future__ import annotations

import json
import os
import sys


def setup(config_path: str) -> int:
    import bousspec.cli  # noqa: F401  (the import a user's run pays)
    from bousspec import experiments

    with open(config_path) as fh:
        name = os.path.splitext(os.path.basename(config_path))[0]
        cfg = experiments.parse_config(fh.read(), name=name).validate()
    problem = experiments._resolve_problem(cfg)
    for n in cfg.n_values:
        # the solver's own set-up path; t_end = 0 takes no time step, so the
        # step size only has to be valid
        experiments.solve_once(problem, n, cfg.step_for(n), cfg.gammas[0], 0.0)
    return 0


def trace(config_path: str, outdir: str, summary_path: str) -> int:
    from bench_trace import Patcher, Tracer, install_layers

    tracer = Tracer()
    with tracer.span("cli.import"):
        import bousspec.cli
    patcher = Patcher()
    missing = install_layers(tracer, patcher)
    try:
        with tracer.span("cli.main"):
            code = bousspec.cli.main(["run", config_path, "--output", outdir])
    finally:
        patcher.restore()
    summary = tracer.summary()
    summary["missing"] = missing
    with open(summary_path, "w") as fh:
        json.dump(summary, fh)
    return code


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "setup":
        return setup(argv[1])
    if len(argv) == 4 and argv[0] == "trace":
        return trace(*argv[1:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
