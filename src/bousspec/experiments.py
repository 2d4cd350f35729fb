"""Declarative experiment runner: configs, presets, solves, table emission.

An experiment is described by a flat key-value config (see ``parse_config``)
or one of the named presets.  Three run styles cover the whole suite:

* error tables: sweep the time step against a validated exact solution;
* ratio tables: sweep the polynomial degree N over a doubling chain and
  report refinement quotients E_N = ||s_N - s_2N|| / ||s_2N - s_4N||;
* snapshot runs: dump (x, eta, u) profiles at requested times.

All norms are the Euclidean product combination sqrt(|eta|^2 + |u|^2) of
the per-component quadrature Sobolev norms, which is what the reference
tables use.  Time steps may be given absolutely (``k``) or as a multiple
of the mesh width h = (right - left)/N (``k_per_h``).
"""

from __future__ import annotations

import math
import os
import time
import warnings
from dataclasses import asdict, dataclass, field, replace
from typing import Callable

import numpy as np

from . import __version__, analysis, model, semidiscrete, timestep
from .jacobi import JacobiBasis, build_basis
from .model import BoundaryData, IntervalMap

BORE_COMPAT_TOL = 1e-8   # accepted smoothed-step/boundary mismatch (tanh tail)


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: system, data, discretization sweep, measurement."""

    name: str = "run"
    mode: str = "error_table"          # error_table | ratio_table | snapshot
    theta2: float | None = None
    b_neq_d: bool = False
    interval: tuple = (-1.0, 1.0)
    n_values: tuple = (16,)
    k: float | None = None
    k_per_h: float | None = None
    k_values: tuple | None = None      # error_table sweep; defaults to the
                                       # halving chain 0.125, 0.0625, 0.03125
    gammas: tuple = (0.5, timestep.GAMMA_ORDER3)
    t_end: float = 1.0
    initial_data: str = "bs-solitary"  # data preset name
    boundary: str = "auto"             # auto | homogeneous | exact
    eta_order: int = 0
    u_order: int = 0
    extra_norms: tuple = ()            # additional (eta_order, u_order) pairs
    amplitude: float = 1.0             # eta0 for solitary/bore data
    kappa: float = 0.7
    rho: float = 2.0
    c_s: float = 1.0
    x0: float = 0.0
    snapshot_times: tuple = ()
    output_dir: str | None = None

    def validate(self) -> "ExperimentConfig":
        if self.mode not in ("error_table", "ratio_table", "snapshot"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if not self.n_values or any(n < 2 for n in self.n_values):
            raise ConfigError("n values must all be >= 2")
        if self.mode == "ratio_table":
            for a, b in zip(self.n_values, self.n_values[1:]):
                if b != 2 * a:
                    raise ConfigError("ratio_table needs a doubling chain of N")
            if len(self.n_values) < 3:
                raise ConfigError("ratio_table needs at least three N values")
        if (self.k is None) == (self.k_per_h is None):
            raise ConfigError("give exactly one of k or k_per_h")
        if self.k_values is not None and any(k <= 0 for k in self.k_values):
            raise ConfigError("k-list entries must be positive")
        if self.boundary not in ("auto", "homogeneous", "exact"):
            raise ConfigError(f"unknown boundary mode {self.boundary!r}")
        if self.t_end <= 0.0:
            raise ConfigError("t_end must be positive")
        if self.initial_data not in DATA_PRESETS:
            raise ConfigError(f"unknown initial data preset {self.initial_data!r}")
        for g in self.gammas:
            if g <= 0.0:
                raise ConfigError("gamma values must be positive")
        return self

    def step_for(self, n: int) -> float:
        if self.k is not None:
            return self.k
        width = self.interval[1] - self.interval[0]
        return self.k_per_h * width / n


DATA_PRESETS = (
    "bs-solitary",
    "bbm-traveling",
    "bneqd-solitary",
    "bore",
    "piecewise-quadratic",
    "tent",
)


@dataclass
class Problem:
    """Resolved experiment data: coefficients, initial data, BCs, exact solution.

    ``boundary_mismatch`` is the largest gap between the t = 0 boundary
    values and the initial data at the endpoints, computed from the rest.
    """

    params: model.SystemParams
    imap: IntervalMap
    eta_init: object
    u_init: object
    bdata: BoundaryData
    exact: model.ExactSolution | None = None
    boundary_mismatch: float = field(init=False)

    def __post_init__(self):
        self.boundary_mismatch = self.bdata.compatibility_mismatch(
            self.eta_init, self.u_init, self.imap.left, self.imap.right
        )


def _resolve_problem(cfg: ExperimentConfig) -> Problem:
    imap = IntervalMap(*cfg.interval)
    exact = None
    if cfg.initial_data == "bs-solitary":
        if cfg.theta2 is None:
            raise ConfigError("'bs-solitary' needs theta2")
        exact = model.solitary_bona_smith(cfg.theta2, cfg.x0)
    elif cfg.initial_data == "bbm-traveling":
        exact = model.traveling_bbm(cfg.rho, cfg.c_s, cfg.x0)
    elif cfg.initial_data == "bneqd-solitary":
        theta2 = cfg.theta2 if cfg.theta2 is not None else 7.0 / 9.0
        exact = model.solitary_b_neq_d(cfg.amplitude, theta2, cfg.x0)

    if exact is not None:
        params = exact.params
        eta_init = lambda x: exact.eta(x, 0.0)
        u_init = lambda x: exact.u(x, 0.0)
        if cfg.boundary == "homogeneous":
            bdata = BoundaryData.homogeneous()
        else:  # exact endpoint traces (auto)
            bdata = BoundaryData.from_exact(exact, imap.left, imap.right)
        return Problem(params, imap, eta_init, u_init, bdata, exact)

    if cfg.theta2 is None:
        raise ConfigError(f"{cfg.initial_data!r} needs theta2")
    params = (
        model.params_b_neq_d(cfg.theta2) if cfg.b_neq_d
        else model.params_from_theta(cfg.theta2)
    )
    if cfg.initial_data == "bore":
        eta_init, u_init, bdata = model.bore_data(cfg.amplitude, cfg.kappa)
    else:
        kind = cfg.initial_data.replace("-", "_")
        eta_init, u_init = model.nonsmooth_data(kind)
        bdata = BoundaryData.homogeneous()
    problem = Problem(params, imap, eta_init, u_init, bdata, None)
    if problem.boundary_mismatch > BORE_COMPAT_TOL:
        warnings.warn(
            f"initial data and boundary values disagree by {problem.boundary_mismatch:.2e} "
            "at the endpoints",
            stacklevel=2,
        )
    return problem


@dataclass
class RunResult:
    solution: analysis.NodalSolution
    snapshots: list
    stats: timestep.IntegrationStats


@dataclass(frozen=True)
class Discretization:
    """Basis, initial state and vector field of one problem at one N.

    Independent of the time step and the SDIRK member, so one instance
    serves every (k, gamma) solve of an error table; the initial state
    ``y0`` is read-only for that reason.
    """

    basis: JacobiBasis
    y0: np.ndarray
    field: Callable[[float, np.ndarray], np.ndarray]


def discretize(problem: Problem, n: int) -> Discretization:
    """Build the basis, assemble the solution operators and the initial state."""
    basis = build_basis(0.0, n)
    sys_ = semidiscrete.assemble(basis, problem.params, problem.imap)
    y0 = semidiscrete.initial_state(basis, problem.imap, problem.eta_init, problem.u_init)
    y0.flags.writeable = False
    return Discretization(basis, y0, semidiscrete.make_vector_field(sys_, problem.bdata))


def solve_once(problem: Problem, n: int, k: float, gamma: float, t_end: float,
               snapshot_times=(), disc: Discretization | None = None) -> RunResult:
    """Integrate and wrap one (N, k, gamma) run; ``disc`` reuses a
    discretization of ``problem`` at this N (built here when omitted)."""
    if disc is None:
        disc = discretize(problem, n)
    plan = timestep.IntegrationPlan(k=k, t_end=t_end, snapshot_times=tuple(snapshot_times))
    return _integrate(problem, disc, [(gamma, plan)])[0]


def _integrate(problem: Problem, disc: Discretization, runs) -> list[RunResult]:
    """Integrate the (gamma, plan) ``runs`` of one discretization in lockstep
    and wrap each, in order."""
    results, _ = timestep.integrate(
        disc.field, disc.y0, [(timestep.SdirkScheme.from_gamma(g), plan) for g, plan in runs]
    )
    wrapped = []
    for tf, y, raw_snaps, stats in results:
        sols = [
            analysis.NodalSolution(
                disc.basis, problem.imap, *semidiscrete.nodal_values(ys, problem.bdata.at(ts)), ts
            )
            for ts, ys in [(tf, y)] + raw_snaps
        ]
        wrapped.append(RunResult(solution=sols[0], snapshots=sols[1:], stats=stats))
    return wrapped


def _solve_record(n: int, k: float, gamma: float, stats: timestep.IntegrationStats) -> dict:
    """The integration statistics of one (N, k, gamma) solve, for run.meta."""
    return {"n": n, "k": k, "gamma": gamma, **asdict(stats)}


def run_error_table(cfg: ExperimentConfig, k_values) -> dict:
    """Errors and observed rates over a time-step sweep, one column per gamma;
    every (gamma, k) run is integrated in one lockstep batch."""
    problem = _resolve_problem(cfg)
    if problem.exact is None:
        raise ConfigError("error_table mode needs a closed-form solution preset")
    spec = analysis.NormSpec(cfg.eta_order, cfg.u_order)
    n = cfg.n_values[0]
    disc = discretize(problem, n)
    runs = iter(_integrate(problem, disc, [
        (gamma, timestep.IntegrationPlan(k=k, t_end=cfg.t_end))
        for gamma in cfg.gammas for k in k_values
    ]))
    finals, solves = {}, []
    for gamma in cfg.gammas:
        finals[gamma] = []
        for k, run in zip(k_values, runs):
            finals[gamma].append(run.solution)
            solves.append(_solve_record(n, k, gamma, run.stats))
    # the norms peak in memory; the solution operators are not needed for them
    del disc
    columns = {}
    for gamma, sols in finals.items():
        errors = [analysis.error_vs_exact(sol, problem.exact, cfg.t_end, spec) for sol in sols]
        columns[gamma] = analysis.rate_table(k_values, errors, label=f"gamma={gamma:.10g}")
    return {"k_values": list(k_values), "columns": columns, "norm": spec.label,
            "solves": solves, "boundary_mismatch": problem.boundary_mismatch}


def run_ratio_table(cfg: ExperimentConfig) -> dict:
    """Refinement quotients E_N along the doubling chain, all requested norms."""
    problem = _resolve_problem(cfg)
    gamma = cfg.gammas[0]
    sols, solves = {}, []
    for n in cfg.n_values:
        k = cfg.step_for(n)
        run = solve_once(problem, n, k, gamma, cfg.t_end)
        sols[n] = run.solution
        solves.append(_solve_record(n, k, gamma, run.stats))
    specs = [analysis.NormSpec(cfg.eta_order, cfg.u_order)] + [
        analysis.NormSpec(*pair) for pair in cfg.extra_norms
    ]
    rows = []
    for n in cfg.n_values[:-2]:
        row = {"n": n}
        for spec in specs:
            row[spec.label] = analysis.convergence_ratio(
                [sols[n], sols[2 * n], sols[4 * n]], spec
            )
        rows.append(row)
    return {"rows": rows, "norms": [s.label for s in specs], "solves": solves,
            "boundary_mismatch": problem.boundary_mismatch}


def run_snapshot(cfg: ExperimentConfig) -> dict:
    problem = _resolve_problem(cfg)
    n = cfg.n_values[0]
    k, gamma = cfg.step_for(n), cfg.gammas[0]
    times = cfg.snapshot_times or (cfg.t_end,)
    run = solve_once(problem, n, k, gamma, cfg.t_end, snapshot_times=times)
    return {"run": run, "problem": problem, "solves": [_solve_record(n, k, gamma, run.stats)],
            "boundary_mismatch": problem.boundary_mismatch}


# ---------------------------------------------------------------------------
# presets for the reference experiment suite

_K_SWEEP = (0.125, 0.0625, 0.03125)

PRESETS: dict[str, ExperimentConfig] = {
    "table1": ExperimentConfig(
        name="table1", mode="error_table", theta2=9.0 / 11.0,
        interval=(-32.0, 32.0), n_values=(512,), k=0.125, t_end=2.0,
        initial_data="bs-solitary", boundary="homogeneous",
        eta_order=2, u_order=1,
    ),
    "table2": ExperimentConfig(
        name="table2", mode="error_table", interval=(-16.0, 16.0),
        n_values=(256,), k=0.125, t_end=2.0, rho=2.0, c_s=1.0,
        initial_data="bbm-traveling", boundary="exact",
        eta_order=2, u_order=2,
    ),
    "table3": ExperimentConfig(
        name="table3", mode="error_table", interval=(-32.0, 32.0),
        n_values=(512,), k=0.125, t_end=2.0, amplitude=1.0, theta2=7.0 / 9.0,
        initial_data="bneqd-solitary", boundary="homogeneous",
        eta_order=2, u_order=2,
    ),
    "table4": ExperimentConfig(
        name="table4", mode="ratio_table", theta2=2.0 / 3.0,
        interval=(-14.0, 50.0), n_values=(64, 128, 256, 512, 1024),
        k=6.25e-4, t_end=20.0, initial_data="bore", amplitude=0.25, kappa=0.7,
        gammas=(timestep.GAMMA_ORDER3,), eta_order=0, u_order=0,
    ),
    "table5": ExperimentConfig(
        name="table5", mode="ratio_table", theta2=2.0 / 3.0,
        interval=(-1.0, 1.0), n_values=(16, 32, 64, 128, 256, 512),
        k_per_h=0.1, t_end=1.0, initial_data="piecewise-quadratic",
        gammas=(timestep.GAMMA_ORDER3,), eta_order=1, u_order=1,
    ),
    "table5b": ExperimentConfig(
        name="table5b", mode="ratio_table", theta2=9.0 / 11.0,
        interval=(-1.0, 1.0), n_values=(16, 32, 64, 128, 256, 512),
        k_per_h=0.1, t_end=1.0, initial_data="piecewise-quadratic",
        gammas=(timestep.GAMMA_ORDER3,), eta_order=1, u_order=0,
    ),
    "table6": ExperimentConfig(
        name="table6", mode="ratio_table", theta2=2.0 / 3.0,
        interval=(-1.0, 1.0), n_values=(16, 32, 64, 128, 256, 512, 1024),
        k_per_h=0.1, t_end=1.0, initial_data="tent",
        gammas=(timestep.GAMMA_ORDER3,), eta_order=0, u_order=0,
        extra_norms=((1, 1),),
    ),
    "bore": ExperimentConfig(
        name="bore", mode="snapshot", theta2=2.0 / 3.0,
        interval=(-14.0, 50.0), n_values=(512,), k_per_h=0.1, t_end=20.0,
        initial_data="bore", amplitude=0.25, kappa=0.7,
        gammas=(timestep.GAMMA_ORDER3,), snapshot_times=(20.0,),
    ),
}


_TRUE_KEYS = {"1", "true", "yes", "on"}
_GAMMA_ALIASES = {"midpoint": 0.5, "order2": 0.5, "order3": timestep.GAMMA_ORDER3}


def _parse_gamma(token: str) -> float:
    token = token.strip().lower()
    if token in _GAMMA_ALIASES:
        return _GAMMA_ALIASES[token]
    return float(token)


def parse_config(text: str, name: str = "run") -> ExperimentConfig:
    """Parse the flat key = value config format.

    Lines are ``key = value`` with ``#`` comments; lists are whitespace
    separated.  ``include-preset`` starts from a named preset, later keys
    override.  Unknown keys are errors, with the offending line reported.
    """
    cfg = ExperimentConfig(name=name)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower().replace("_", "-")
        value = value.strip()
        try:
            if key == "include-preset":
                if value not in PRESETS:
                    raise ConfigError(f"line {lineno}: unknown preset {value!r}")
                cfg = replace(PRESETS[value], name=name)
            elif key == "mode":
                cfg = replace(cfg, mode=value)
            elif key == "theta2":
                cfg = replace(cfg, theta2=_parse_fraction(value))
            elif key == "b-neq-d":
                cfg = replace(cfg, b_neq_d=value.lower() in _TRUE_KEYS)
            elif key == "left":
                cfg = replace(cfg, interval=(float(value), cfg.interval[1]))
            elif key == "right":
                cfg = replace(cfg, interval=(cfg.interval[0], float(value)))
            elif key == "n":
                cfg = replace(cfg, n_values=tuple(int(v) for v in value.split()))
            elif key == "k":
                cfg = replace(cfg, k=float(value), k_per_h=None)
            elif key == "k-list":
                cfg = replace(cfg, k_values=tuple(float(v) for v in value.split()))
            elif key == "k-per-h":
                cfg = replace(cfg, k_per_h=float(value), k=None)
            elif key == "gamma":
                cfg = replace(cfg, gammas=tuple(_parse_gamma(v) for v in value.split()))
            elif key == "t-end":
                cfg = replace(cfg, t_end=float(value))
            elif key == "initial-data":
                cfg = replace(cfg, initial_data=value)
            elif key == "boundary":
                cfg = replace(cfg, boundary=value)
            elif key == "norm":
                eta_order, u_order = _parse_norm(value)
                cfg = replace(cfg, eta_order=eta_order, u_order=u_order)
            elif key == "amplitude":
                cfg = replace(cfg, amplitude=float(value))
            elif key == "kappa":
                cfg = replace(cfg, kappa=float(value))
            elif key == "rho":
                cfg = replace(cfg, rho=float(value))
            elif key == "c-s":
                cfg = replace(cfg, c_s=float(value))
            elif key == "x0":
                cfg = replace(cfg, x0=float(value))
            elif key == "snapshot-times":
                cfg = replace(cfg, snapshot_times=tuple(float(v) for v in value.split()))
            elif key == "output-dir":
                cfg = replace(cfg, output_dir=value)
            else:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
        except (TypeError, ValueError) as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    return cfg.validate()


def _parse_fraction(value: str) -> float:
    if "/" in value:
        num, _, den = value.partition("/")
        return float(num) / float(den)
    return float(value)


def _parse_norm(value: str):
    names = {"l2": 0, "h1": 1, "h2": 2}
    parts = value.lower().replace("x", " ").split()
    if len(parts) != 2 or any(p not in names for p in parts):
        raise ConfigError(f"norm must look like 'H2xH1', got {value!r}")
    return names[parts[0]], names[parts[1]]


# ---------------------------------------------------------------------------
# artifact emission

def _fmt(x: float) -> str:
    return f"{x:.11E}"


def output_root(override: str | None = None) -> str:
    if override:
        return override
    return os.environ.get("BOUSSPEC_OUTPUT_ROOT", "results")


def write_error_table(result: dict, outdir: str, cfg: ExperimentConfig) -> list[str]:
    os.makedirs(outdir, exist_ok=True)
    written = []
    gammas = list(result["columns"])
    path = os.path.join(outdir, "errors.csv")
    with open(path, "w") as fh:
        header = ["k"] + [f"error_gamma_{g:.10g}" for g in gammas]
        fh.write(",".join(header) + "\n")
        for i, k in enumerate(result["k_values"]):
            row = [_fmt(k)] + [_fmt(result["columns"][g].errors[i]) for g in gammas]
            fh.write(",".join(row) + "\n")
    written.append(path)
    path = os.path.join(outdir, "rates.csv")
    with open(path, "w") as fh:
        header = ["k"] + [f"rate_gamma_{g:.10g}" for g in gammas]
        fh.write(",".join(header) + "\n")
        for i in range(1, len(result["k_values"])):
            row = [_fmt(result["k_values"][i])]
            for g in gammas:
                rate = result["columns"][g].rates[i - 1]
                row.append("" if rate is None else f"{rate:.4f}")
            fh.write(",".join(row) + "\n")
    written.append(path)
    path = os.path.join(outdir, "table.md")
    with open(path, "w") as fh:
        fh.write(f"# {cfg.name}: {result['norm']} errors at T={cfg.t_end:g}\n\n")
        head = "| k |"
        rule = "|---|"
        for g in gammas:
            head += f" error (gamma={g:.6g}) | rate |"
            rule += "---|---|"
        fh.write(head + "\n" + rule + "\n")
        for i, k in enumerate(result["k_values"]):
            line = f"| {k:.6g} |"
            for g in gammas:
                col = result["columns"][g]
                rate = "" if i == 0 or col.rates[i - 1] is None else f"{col.rates[i-1]:.2f}"
                line += f" {col.errors[i]:.4E} | {rate} |"
            fh.write(line + "\n")
    written.append(path)
    return written


def write_ratio_table(result: dict, outdir: str, cfg: ExperimentConfig) -> list[str]:
    os.makedirs(outdir, exist_ok=True)
    written = []
    path = os.path.join(outdir, "ratios.csv")
    with open(path, "w") as fh:
        header = ["n"]
        for label in result["norms"]:
            header += [f"E_{label}", f"log2_E_{label}"]
        fh.write(",".join(header) + "\n")
        for row in result["rows"]:
            cells = [str(row["n"])]
            for label in result["norms"]:
                cells += [_fmt(row[label]), f"{math.log2(row[label]):.6f}"]
            fh.write(",".join(cells) + "\n")
    written.append(path)
    path = os.path.join(outdir, "table.md")
    with open(path, "w") as fh:
        fh.write(f"# {cfg.name}: refinement quotients at T={cfg.t_end:g}\n\n")
        head = "| N |"
        rule = "|---|"
        for label in result["norms"]:
            head += f" E_N ({label}) | log2 |"
            rule += "---|---|"
        fh.write(head + "\n" + rule + "\n")
        for row in result["rows"]:
            line = f"| {row['n']} |"
            for label in result["norms"]:
                line += f" {row[label]:.4f} | {math.log2(row[label]):.4f} |"
            fh.write(line + "\n")
    written.append(path)
    return written


def write_snapshots(result: dict, outdir: str, cfg: ExperimentConfig) -> list[str]:
    os.makedirs(os.path.join(outdir, "snapshots"), exist_ok=True)
    written = []
    run: RunResult = result["run"]
    for snap in run.snapshots:
        pts = np.linspace(snap.imap.left, snap.imap.right, 4 * snap.basis.n + 1)
        eta = analysis.eval_solution(snap, pts, "eta", 0)
        u = analysis.eval_solution(snap, pts, "u", 0)
        path = os.path.join(outdir, "snapshots", f"t{snap.t:.6g}.csv")
        with open(path, "w") as fh:
            fh.write("x,eta,u\n")
            for row in zip(pts, eta, u):
                fh.write(",".join(_fmt(v) for v in row) + "\n")
        written.append(path)
    return written


def write_metadata(outdir: str, cfg: ExperimentConfig, wall_time: float,
                   boundary_mismatch: float, solves=()) -> str:
    """Run metadata; lives outside the CSVs so those stay byte-reproducible.

    Records the numpy version (its BLAS does every product and solve) and the
    boundary compatibility mismatch of the problem (``Problem``).  Each
    entry of ``solves`` (see ``_solve_record``) becomes one ``solve = {...}``
    line with the integration statistics of that solve.
    """
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, "run.meta")
    with open(path, "w") as fh:
        fh.write(f"version = {__version__}\n")
        fh.write(f"numpy = {np.__version__}\n")
        fh.write(f"wall_time_seconds = {wall_time:.3f}\n")
        fh.write(f"boundary_mismatch = {boundary_mismatch!r}\n")
        for key, value in sorted(vars(cfg).items()):
            fh.write(f"{key} = {value!r}\n")
        for record in solves:
            fh.write(f"solve = {record!r}\n")
    return path


def execute(cfg: ExperimentConfig, outdir: str | None = None) -> list[str]:
    """Run one experiment end to end and write its artifact files."""
    cfg = cfg.validate()
    outdir = outdir or cfg.output_dir or os.path.join(output_root(), cfg.name)
    started = time.time()
    if cfg.mode == "error_table":
        result = run_error_table(cfg, cfg.k_values or _K_SWEEP)
        written = write_error_table(result, outdir, cfg)
    elif cfg.mode == "ratio_table":
        result = run_ratio_table(cfg)
        written = write_ratio_table(result, outdir, cfg)
    else:
        result = run_snapshot(cfg)
        written = write_snapshots(result, outdir, cfg)
    write_metadata(outdir, cfg, time.time() - started, result["boundary_mismatch"],
                   result["solves"])
    return written
