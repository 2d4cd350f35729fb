"""Declarative experiment runner: configs, presets, solves, table emission.

An experiment is described by a flat key-value config (see ``parse_config``)
or one of the named presets.  Three run styles cover the whole suite:

* error tables: sweep the time step against a validated exact solution;
* ratio tables: sweep the polynomial degree N over a doubling chain and
  report refinement quotients E_N = ||s_N - s_2N|| / ||s_2N - s_4N||;
* snapshot runs: dump (x, eta, u) profiles at requested times.

All norms are the Euclidean product combination sqrt(|eta|^2 + |u|^2) of
the per-component quadrature Sobolev norms, which is what the reference
tables use.  Error tables sweep the time steps ``k_values``; the other runs
take one step, absolute (``k``) or a multiple of the mesh width
h = (right - left)/N (``k_per_h``).  ``CONFIG_KEYS`` maps the config keys to
fields, and ``ExperimentConfig.validate`` checks every value and that the run reads it.

Every run style solves through ``_solve`` (one N, its (gamma, k) runs in
lockstep) and writes its tables through ``_write_tables``.
"""

from __future__ import annotations

import contextlib
import math
import os
import pickle
import resource
import sys
import time
import warnings
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import __version__, analysis, model, semidiscrete, timestep
from .jacobi import build_basis
from .model import BoundaryData, IntervalMap

BORE_COMPAT_TOL = 1e-8   # accepted smoothed-step/boundary mismatch (tanh tail)
# A basis keeps O(N) data, and a run's peak RSS grows as about 2.0 dense
# (N+1)^2 matrices (0.13 GB each at N = 4096) with c = 0 and 2.4-2.7 with
# c != 0: one-step N = 4096 runs peaked at 0.29 GB of RSS (bore, c = 0)
# and 0.36 GB (table1's system, c != 0).  The largest preset N is 1024.
N_MAX = 4096
# the two-stage SDIRK family is stable on the imaginary axis only for gamma >= 1/4,
# and its stage abscissae gamma k and (1 - gamma) k lie in the step only for gamma <= 1
GAMMA_MIN = 0.25
GAMMA_MAX = 1.0

DATA_PRESETS = ("bs-solitary", "bbm-traveling", "bneqd-solitary",  # the closed forms
                "bore", "piecewise-quadratic", "tent")
_CLOSED_FORMS = DATA_PRESETS[:3]
_RUNS = {"error_table": "error tables", "ratio_table": "ratio tables", "snapshot": "snapshot runs"}
_CHOICES = {"mode": tuple(_RUNS),
            "boundary": ("homogeneous", "exact"), "initial_data": DATA_PRESETS}


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


def _read_by(*readers, default=None):
    """A field that only the modes, or only the initial-data presets, ``readers``
    read (``_reads``): others refuse it set (``validate``) or drop a preset's value."""
    return field(default=default, metadata={"readers": readers})


def _reads(cfg: "ExperimentConfig", f) -> bool:
    """Whether ``cfg``'s mode or initial data reads its field ``f``; all do if ``f`` names none."""
    readers = f.metadata.get("readers")
    return readers is None or cfg.mode in readers or cfg.initial_data in readers


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: system, data, discretization sweep, measurement."""

    name: str = "run"
    mode: str = "error_table"          # error_table | ratio_table | snapshot
    # not the BBM wave, which has its own coefficients, nor the b != d wave (theta^2 = 7/9 only)
    theta2: float | None = _read_by("bs-solitary", *DATA_PRESETS[3:])
    b_neq_d: bool = _read_by(*DATA_PRESETS[3:], default=False)   # the data with no closed form
    interval: tuple = (-1.0, 1.0)
    n_values: tuple = (16,)
    k: float | None = _read_by("ratio_table", "snapshot")   # one of k, k_per_h
    k_per_h: float | None = _read_by("ratio_table", "snapshot")
    k_values: tuple = _read_by("error_table", default=(0.125, 0.0625, 0.03125))
    gammas: tuple = (0.5, timestep.GAMMA_ORDER3)
    t_end: float = 1.0
    initial_data: str = "bs-solitary"  # data preset name
    boundary: str = _read_by(*_CLOSED_FORMS, default="exact")   # homogeneous | exact
    # one per table column group; an error table measures one
    norms: tuple = _read_by("error_table", "ratio_table", default=(analysis.NormSpec(),))
    amplitude: float = _read_by("bneqd-solitary", "bore", default=1.0)   # eta0
    kappa: float = _read_by("bore", default=0.7)
    rho: float = _read_by("bbm-traveling", default=2.0)
    c_s: float = _read_by("bbm-traveling", default=1.0)
    x0: float = _read_by(*_CLOSED_FORMS, default=0.0)
    snapshot_times: tuple = _read_by("snapshot", default=())

    def validate(self, written=()) -> "ExperimentConfig":
        """Check every value, so a bad config fails before anything is built;
        ``written`` holds the keys that a config file wrote (see ``_read_by``)."""
        for name, allowed in _CHOICES.items():
            if getattr(self, name) not in allowed:
                raise ConfigError(f"unknown {name} {getattr(self, name)!r}; "
                                  f"expected one of {', '.join(allowed)}")
        for f in fields(self):
            value = getattr(self, f.name)
            for x in value if isinstance(value, tuple) else (value,):
                if isinstance(x, float) and not math.isfinite(x):
                    raise ConfigError(f"{f.name} must be finite, got {x!r}")
            if _reads(self, f):
                continue
            # the key that sets the field: a written one first, then the one named after it
            key = min((k for k, (_, *names) in CONFIG_KEYS.items() if f.name in names),
                      key=lambda k: (k not in written, k.replace("-", "_") != f.name),
                      default=f.name)
            if key in written or value != f.default:
                readers = f.metadata["readers"]
                dim = "mode" if readers[0] in _RUNS else "initial_data"
                raise ConfigError(f"{key} applies to {', '.join(_RUNS.get(r, r) for r in readers)} "
                                  f"only, got {dim.replace('_', '-')} {getattr(self, dim)!r}")
        if not self.n_values:
            raise ConfigError("n needs one or more values")
        if any(not 2 <= n <= N_MAX for n in self.n_values):
            raise ConfigError(f"n values must lie in [2, {N_MAX}]")
        if self.mode == "ratio_table" and (len(self.n_values) < 3 or any(
                b != 2 * a for a, b in zip(self.n_values, self.n_values[1:]))):
            raise ConfigError("ratio_table needs a doubling chain of at least three N values")
        if self.mode == "error_table":
            if len(self.k_values) < 2:
                raise ConfigError("k-list needs at least two entries")
            if self.initial_data not in _CLOSED_FORMS:
                raise ConfigError(f"error tables need closed-form data, got {self.initial_data!r}")
        elif (self.k is None) == (self.k_per_h is None):
            raise ConfigError("give exactly one of k or k_per_h")
        if self.t_end <= 0.0:
            raise ConfigError("t_end must be positive")
        if not (self.interval[0] < self.interval[1]
                and math.isfinite(self.interval[1] - self.interval[0])):
            raise ConfigError(f"need left < right with a finite width, got {self.interval}")
        if self.theta2 is None and self.initial_data not in ("bbm-traveling", "bneqd-solitary"):
            raise ConfigError(f"{self.initial_data!r} needs theta2")
        if self.mode != "ratio_table" and len(self.n_values) > 1:
            raise ConfigError(f"{self.mode} runs use one N; got n = {self.n_values}")
        if self.mode != "error_table" and len(self.gammas) > 1:
            raise ConfigError(f"{self.mode} runs use one gamma; got gamma = {self.gammas}")
        labels = [spec.label for spec in self.norms]
        if not labels or len(set(labels)) < len(labels):
            raise ConfigError("norm needs one or more distinct values; "
                              f"got norm = {' '.join(labels)}")
        if self.mode == "error_table" and len(labels) > 1:
            raise ConfigError(f"error_table runs use one norm; got norm = {' '.join(labels)}")
        check_gammas(self.gammas)
        # an error table has one column per gamma and one row per k, labelled
        # as the writers print them: gamma to 10 digits in errors.csv, k as
        # ``_fmt`` does, and both to 6 in table.md
        for key, values, specs in (("gamma", self.gammas, (".10g", ".6g")),
                                   ("k-list", self.k_values, (".11E", ".6g"))):
            for i, x in enumerate(values):
                for y in values[:i]:
                    if x == y:
                        raise ConfigError(f"{key} values must be distinct; {x:.10g} is repeated")
                    if any(format(x, f) == format(y, f) for f in specs):
                        raise ConfigError(f"{key} values {y!r} and {x!r} print as the same "
                                          "table label")
        steps = self.k_values if self.mode == "error_table" else map(self.step_for, self.n_values)
        for k in steps:
            try:
                timestep.IntegrationPlan(k, self.t_end, self.snapshot_times).snapshot_steps
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
        return self

    def step_for(self, n: int) -> float:
        """The time step at N: k, k_per_h * h, or an error table's first k."""
        if self.k_per_h is not None:
            return self.k_per_h * (self.interval[1] - self.interval[0]) / n
        return self.k_values[0] if self.k is None else self.k


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


def closed_form(cfg: ExperimentConfig) -> model.ExactSolution | None:
    """The closed-form solution of ``cfg``'s initial data, or None if it has none."""
    if cfg.initial_data == "bs-solitary":
        return model.solitary_bona_smith(cfg.theta2, cfg.x0)
    if cfg.initial_data == "bbm-traveling":
        return model.traveling_bbm(cfg.rho, cfg.c_s, cfg.x0)
    if cfg.initial_data == "bneqd-solitary":
        return model.solitary_b_neq_d(cfg.amplitude, cfg.x0)
    return None


def _resolve_problem(cfg: ExperimentConfig) -> Problem:
    imap = IntervalMap(*cfg.interval)
    exact = closed_form(cfg)
    if exact is not None:
        bdata = (BoundaryData.homogeneous() if cfg.boundary == "homogeneous"
                 else BoundaryData.from_exact(exact, imap.left, imap.right))
        return Problem(exact.params, imap, lambda x: exact.eta(x, 0.0),
                       lambda x: exact.u(x, 0.0), bdata, exact)

    params = (model.params_b_neq_d if cfg.b_neq_d else model.params_from_theta)(cfg.theta2)
    if cfg.initial_data == "bore":
        eta_init, u_init, bdata = model.bore_data(cfg.amplitude, cfg.kappa)
    else:
        eta_init, u_init = model.nonsmooth_data(cfg.initial_data)
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
    """One (N, k, gamma) solve; ``record`` is its entry in run.json's ``solves``."""

    solution: analysis.NodalSolution
    snapshots: list
    stats: timestep.IntegrationStats
    record: dict


def _peak_rss_mb() -> float:
    """The peak resident set size of this process so far, in MB (2^20 bytes):
    ``ru_maxrss`` is in KiB on Linux and in bytes on macOS."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return round(peak / (2 ** 20 if sys.platform == "darwin" else 2 ** 10), 2)


def _solve(problem: Problem, n: int, runs) -> list[RunResult]:
    """Build the basis at N, assemble, and integrate the (gamma, plan)
    ``runs`` in lockstep from one read-only initial state; one RunResult
    per run, in order, whose record holds the peak RSS of the process that
    ran the solve, read when the solve ends.  The solution operators are
    freed on return.  A numerical failure of the solve, an ArithmeticError,
    is raised again, of the same type, with N in its message."""
    try:
        basis = build_basis(0.0, n)
        sys_ = semidiscrete.assemble(basis, problem.params, problem.imap)
        y0 = semidiscrete.initial_state(basis, problem.imap, problem.eta_init, problem.u_init)
        y0.flags.writeable = False
        field = semidiscrete.make_vector_field(sys_, problem.bdata)
        results, _ = timestep.integrate(field, y0, runs)
    except ArithmeticError as exc:
        raise type(exc)(f"N={n}: {exc}") from exc
    peak = _peak_rss_mb()
    wrapped = []
    for (gamma, plan), (tf, y, raw_snaps, stats) in zip(runs, results):
        sols = [analysis.NodalSolution(basis, problem.imap,
                                       *semidiscrete.nodal_values(ys, problem.bdata.at(ts)), ts)
                for ts, ys in [(tf, y)] + raw_snaps]
        wrapped.append(RunResult(solution=sols[0], snapshots=sols[1:], stats=stats,
                                 record={"n": n, "k": plan.k, "gamma": gamma, **asdict(stats),
                                         "peak_rss_mb": peak}))
    return wrapped


def solve_once(problem: Problem, n: int, k: float, gamma: float, t_end: float,
               snapshot_times=()) -> RunResult:
    """Solve one (N, k, gamma) run."""
    plan = timestep.IntegrationPlan(k=k, t_end=t_end, snapshot_times=tuple(snapshot_times))
    return _solve(problem, n, [(gamma, plan)])[0]


def run_error_table(cfg: ExperimentConfig, problem: Problem) -> dict:
    """Errors and observed rates over the time steps ``cfg.k_values``, one
    column per gamma; every (gamma, k) run is integrated in one lockstep batch
    and measured in one ``error_vs_exact`` call."""
    [spec] = cfg.norms
    n, nk = cfg.n_values[0], len(cfg.k_values)
    pairs = [(gamma, k) for gamma in cfg.gammas for k in cfg.k_values]
    runs = _solve(problem, n, [(gamma, timestep.IntegrationPlan(k=k, t_end=cfg.t_end))
                               for gamma, k in pairs])
    errors = analysis.error_vs_exact([run.solution for run in runs], problem.exact,
                                     cfg.t_end, spec)
    columns = {}   # gamma -> (errors, rates)
    for i, gamma in enumerate(cfg.gammas):
        errs = errors[i * nk:(i + 1) * nk]
        columns[gamma] = (errs, analysis.rate_table(cfg.k_values, errs, f"gamma={gamma:.10g}"))
    return {"k_values": list(cfg.k_values), "columns": columns, "norm": spec.label,
            "solves": [run.record for run in runs]}


def available_cpus() -> int:
    """The CPUs this process may run on, where the OS reports its affinity
    (Linux); 1 elsewhere, so that only such hosts fork.  On macOS a fork
    after numpy has loaded its BLAS is not safe."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return 1


def _run_share(fn, share) -> tuple[list | None, Exception | None]:
    """``([fn(x) for x in share], None)``, or ``(None, exc)`` for the
    first exception ``exc`` that ``fn`` raises over ``share`` in order."""
    try:
        return [fn(x) for x in share], None
    except Exception as exc:
        return None, exc


def _portable(exc: Exception) -> Exception:
    """``exc`` if it survives pickling, else a RuntimeError with its text."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def _fork_worker(fn, share, inherited) -> tuple[int, int]:
    """Fork a process that runs ``share`` and writes its ``_run_share``
    outcome, pickled, to a pipe; return (pid, read end of the pipe).
    ``inherited`` are earlier workers' read ends, which the worker closes."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            for fd in (read_fd, *inherited):
                os.close(fd)
            results, failure = _run_share(fn, share)
            outcome = (results, None if failure is None else _portable(failure))
            with os.fdopen(write_fd, "wb") as fh:
                pickle.dump(outcome, fh, protocol=pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)   # no atexit handlers, no flush of the parent's buffers
    os.close(write_fd)
    return pid, read_fd


def fork_map(fn, items, processes: int) -> list:
    """``[fn(x) for x in items]``, over ``processes`` (at least 1) processes;
    fewer only if there are fewer items.

    The items are split by position: this process runs the last item, one
    worker each of the next p - 2 from the end, and the last worker the
    rest, so with p = 1 everything runs here.  On a doubling chain, where
    each item costs more than all those before it together, this is the
    longest-processing-time split (Graham 1969).  Workers inherit
    everything built before the call, and send back their results and
    failure pickled.  Every process runs its items in ascending order and
    stops at its first exception, so the exception of smallest index,
    which is re-raised here, is the one the serial loop raises.  A worker
    that dies without a result raises ChildProcessError naming its exit
    status.  Every worker is reaped before this returns or raises; on any
    other failure the workers are killed first.
    """
    cut = max(len(items) - processes + 1, 1)
    shares = [items[:cut], *([x] for x in items[cut:])]   # in item order
    workers, reaped = [], set()
    try:
        for share in shares[-2::-1]:
            workers.append(_fork_worker(fn, share, [fd for _, fd in workers]))
        outcomes = [_run_share(fn, shares[-1])]
        for pid, fd in workers:
            payload = b"".join(iter(lambda: os.read(fd, 1 << 16), b""))
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            reaped.add(pid)
            if status != 0:
                import signal   # lazily, like the kill below: the CLI's import path stays as it was
                how = (f"was killed by signal {signal.Signals(-status).name}" if status < 0
                       else f"exited with status {status}")
                raise ChildProcessError(f"worker process {pid} {how} before sending its results")
            outcomes.append(pickle.loads(payload))
    finally:
        for pid, fd in workers:
            os.close(fd)
            if pid not in reaped:
                import signal
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    results = []
    for done, failure in reversed(outcomes):   # the shares in item order
        if failure is not None:
            raise failure
        results += done
    return results


def run_ratio_table(cfg: ExperimentConfig, problem: Problem) -> dict:
    """Refinement quotients E_N along the doubling chain, in each norm of ``cfg.norms``.

    The solves are independent, so they run in up to one process per
    available CPU (``fork_map``).  Each sends back the
    ``RunResult`` of its solve, and the norms read the basis that came with it.
    """
    n_values, gamma = cfg.n_values, cfg.gammas[0]
    processes = min(available_cpus(), len(n_values))
    runs = fork_map(lambda n: solve_once(problem, n, cfg.step_for(n), gamma, cfg.t_end),
                    n_values, processes)
    sols = {n: run.solution for n, run in zip(n_values, runs)}
    rows = []
    for n in n_values[:-2]:
        chain = [sols[n], sols[2 * n], sols[4 * n]]
        rows.append({"n": n, **{s.label: analysis.convergence_ratio(chain, s) for s in cfg.norms}})
    return {"rows": rows, "norms": [s.label for s in cfg.norms],
            "solves": [run.record for run in runs], "workers": processes}


def run_snapshot(cfg: ExperimentConfig, problem: Problem) -> dict:
    n = cfg.n_values[0]
    run = solve_once(problem, n, cfg.step_for(n), cfg.gammas[0], cfg.t_end,
                     snapshot_times=cfg.snapshot_times or (cfg.t_end,))
    return {"run": run, "solves": [run.record]}


# ---------------------------------------------------------------------------
# presets for the reference experiment suite

PRESETS: dict[str, ExperimentConfig] = {
    "table1": ExperimentConfig(
        name="table1", mode="error_table", theta2=9.0 / 11.0,
        interval=(-32.0, 32.0), n_values=(512,), t_end=2.0,
        initial_data="bs-solitary", boundary="homogeneous", norms=(analysis.NormSpec(2, 1),),
    ),
    "table2": ExperimentConfig(
        name="table2", mode="error_table", interval=(-16.0, 16.0),
        n_values=(256,), t_end=2.0, rho=2.0, c_s=1.0,
        initial_data="bbm-traveling", norms=(analysis.NormSpec(2, 2),),
    ),
    "table3": ExperimentConfig(
        name="table3", mode="error_table", interval=(-32.0, 32.0),
        n_values=(512,), t_end=2.0, amplitude=1.0,
        initial_data="bneqd-solitary", boundary="homogeneous", norms=(analysis.NormSpec(2, 2),),
    ),
    "table4": ExperimentConfig(
        name="table4", mode="ratio_table", theta2=2.0 / 3.0,
        interval=(-14.0, 50.0), n_values=(64, 128, 256, 512, 1024),
        k=6.25e-4, t_end=20.0, initial_data="bore", amplitude=0.25, kappa=0.7,
        gammas=(timestep.GAMMA_ORDER3,),
    ),
    "table5": ExperimentConfig(
        name="table5", mode="ratio_table", theta2=2.0 / 3.0,
        interval=(-1.0, 1.0), n_values=(16, 32, 64, 128, 256, 512),
        k_per_h=0.1, t_end=1.0, initial_data="piecewise-quadratic",
        gammas=(timestep.GAMMA_ORDER3,), norms=(analysis.NormSpec(1, 1),),
    ),
    "table5b": ExperimentConfig(
        name="table5b", mode="ratio_table", theta2=9.0 / 11.0,
        interval=(-1.0, 1.0), n_values=(16, 32, 64, 128, 256, 512),
        k_per_h=0.1, t_end=1.0, initial_data="piecewise-quadratic",
        gammas=(timestep.GAMMA_ORDER3,), norms=(analysis.NormSpec(1, 0),),
    ),
    "table6": ExperimentConfig(
        name="table6", mode="ratio_table", theta2=2.0 / 3.0,
        interval=(-1.0, 1.0), n_values=(16, 32, 64, 128, 256, 512, 1024),
        k_per_h=0.1, t_end=1.0, initial_data="tent",
        gammas=(timestep.GAMMA_ORDER3,), norms=(analysis.NormSpec(0, 0), analysis.NormSpec(1, 1)),
    ),
    "bore": ExperimentConfig(
        name="bore", mode="snapshot", theta2=2.0 / 3.0,
        interval=(-14.0, 50.0), n_values=(512,), k_per_h=0.1, t_end=20.0,
        initial_data="bore", amplitude=0.25, kappa=0.7,
        gammas=(timestep.GAMMA_ORDER3,), snapshot_times=(20.0,),
    ),
}


_GAMMA_ALIASES = {"midpoint": 0.5, "order3": timestep.GAMMA_ORDER3}
_BOOLEANS = {**dict.fromkeys(("1", "true", "yes", "on"), True),
             **dict.fromkeys(("0", "false", "no", "off"), False)}


def check_gammas(gammas) -> None:
    """Refuse an empty list of gammas, a non-finite gamma or one outside
    [``GAMMA_MIN``, ``GAMMA_MAX``], with the messages of
    ``ExperimentConfig.validate``."""
    if not gammas:
        raise ConfigError("gamma needs one or more values")
    for gamma in gammas:
        if not math.isfinite(gamma):
            raise ConfigError(f"gammas must be finite, got {gamma!r}")
    if min(gammas) < GAMMA_MIN:
        raise ConfigError(f"gamma values must be >= {GAMMA_MIN} (stability on the imaginary axis)")
    if max(gammas) > GAMMA_MAX:
        raise ConfigError(f"gamma values must be <= {GAMMA_MAX} (stage times inside the step)")


def _parse_gamma(token: str) -> float:
    token = token.strip().lower()
    return _GAMMA_ALIASES[token] if token in _GAMMA_ALIASES else float(token)


def _parse_fraction(value: str) -> float:
    num, slash, den = value.partition("/")
    return float(num) / float(den) if slash else float(num)


# key -> (converter, field, ...): a key that sets several fields has a
# converter that returns one value per field; ``left``/``right`` set the
# ends of ``interval``.  ``validate`` checks the values.
CONFIG_KEYS: dict[str, tuple] = {
    "mode": (str, "mode"),
    "theta2": (_parse_fraction, "theta2"),
    "b-neq-d": (lambda v: _BOOLEANS[v.lower()], "b_neq_d"),
    "left": (float, "left"),
    "right": (float, "right"),
    "n": (lambda v: tuple(map(int, v.split())), "n_values"),
    "k": (lambda v: (float(v), None), "k", "k_per_h"),
    "k-per-h": (lambda v: (None, float(v)), "k", "k_per_h"),
    "k-list": (lambda v: tuple(map(float, v.split())), "k_values"),
    "gamma": (lambda v: tuple(_parse_gamma(g) for g in v.split()), "gammas"),
    "t-end": (float, "t_end"),
    "initial-data": (str, "initial_data"),
    "boundary": (str, "boundary"),
    "norm": (lambda v: tuple(map(analysis.NormSpec.parse, v.split())), "norms"),
    "amplitude": (float, "amplitude"),
    "kappa": (float, "kappa"),
    "rho": (float, "rho"),
    "c-s": (float, "c_s"),
    "x0": (float, "x0"),
    "snapshot-times": (lambda v: tuple(map(float, v.split())), "snapshot_times"),
}


def parse_config(text: str, name: str = "run") -> ExperimentConfig:
    """Parse the flat key = value config format.

    Lines are ``key = value`` with ``#`` comments; lists are whitespace
    separated and read through ``CONFIG_KEYS``.  ``include-preset``, allowed
    only as the first key, starts from a named preset; later keys override.
    Unknown keys, a later ``include-preset``, a key written twice, both ``k``
    and ``k-per-h``, and bad values are errors naming the lines.  A preset's
    value that the run does not read is dropped for the default; ``validate``
    is told which keys the text wrote.
    """
    base, updates, written = ExperimentConfig(name=name), {}, set()
    setters = {}   # the fields a key sets -> (line, key) that set them
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip().lower().replace("_", "-"), value.strip()
        if key == "include-preset":
            if written:
                raise ConfigError(f"line {lineno}: include-preset must be the first key")
            if value not in PRESETS:
                raise ConfigError(f"line {lineno}: unknown preset {value!r}")
            base = replace(PRESETS[value], name=name)
        elif key not in CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        else:
            convert, *names = CONFIG_KEYS[key]
            if tuple(names) in setters:
                prev, prev_key = setters[tuple(names)]
                raise ConfigError(f"line {lineno}: {key!r} conflicts with {prev_key!r} "
                                  f"on line {prev}")
            setters[tuple(names)] = lineno, key
            try:
                values = convert(value)
            except (ValueError, KeyError, ZeroDivisionError) as exc:
                raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
            updates.update(zip(names, values if len(names) > 1 else (values,)))
        written.add(key)
    interval = (updates.pop("left", base.interval[0]), updates.pop("right", base.interval[1]))
    cfg = replace(base, interval=interval, **updates)
    unread = {f.name: f.default for f in fields(cfg) if f.name not in updates and not _reads(cfg, f)}
    return replace(cfg, **unread).validate(written)


# ---------------------------------------------------------------------------
# artifact emission

def _fmt(x: float) -> str:
    return f"{x:.11E}"


def _write_csv(path: str, header: list, rows) -> str:
    """Write the header and rows of cells as comma-separated lines."""
    with open(path, "w") as fh:
        for cells in [header, *rows]:
            fh.write(",".join(cells) + "\n")
    return path


def _write_tables(outdir: str, csvs, title: str, head: list, rows) -> list[str]:
    """Write the (file name, header, rows) triples ``csvs`` as CSV files and
    ``rows`` under ``title`` and ``head`` as ``table.md``; return the paths."""
    written = [_write_csv(os.path.join(outdir, name), header, body) for name, header, body in csvs]
    path = os.path.join(outdir, "table.md")
    with open(path, "w") as fh:
        fh.write(f"# {title}\n\n")
        fh.write("| " + " | ".join(head) + " |\n" + "|" + "---|" * len(head) + "\n")
        for cells in rows:
            fh.write("| " + " | ".join(cells) + " |\n")
    written.append(path)
    return written


def _rate(rate: float | None, spec: str) -> str:
    return "" if rate is None else format(rate, spec)


def write_error_table(result: dict, outdir: str, cfg: ExperimentConfig) -> list[str]:
    ks, columns = result["k_values"], result["columns"]
    csvs = [
        ("errors.csv", ["k"] + [f"error_gamma_{g:.10g}" for g in columns],
         ([_fmt(k)] + [_fmt(errs[i]) for errs, _ in columns.values()] for i, k in enumerate(ks))),
        ("rates.csv", ["k"] + [f"rate_gamma_{g:.10g}" for g in columns],
         ([_fmt(k)] + [_rate(rates[i], ".4f") for _, rates in columns.values()]
          for i, k in enumerate(ks[1:]))),
    ]
    head = ["k"] + [cell for g in columns for cell in (f"error (gamma={g:.6g})", "rate")]
    rows = ([f"{k:.6g}"] + [cell for errs, rates in columns.values() for cell in (
        f"{errs[i]:.4E}", _rate(rates[i - 1] if i else None, ".2f"))]
        for i, k in enumerate(ks))
    return _write_tables(outdir, csvs, f"{cfg.name}: {result['norm']} errors at T={cfg.t_end:g}",
                         head, rows)


def write_ratio_table(result: dict, outdir: str, cfg: ExperimentConfig) -> list[str]:
    norms, rows = result["norms"], result["rows"]
    csvs = [("ratios.csv",
             ["n"] + [cell for label in norms for cell in (f"E_{label}", f"log2_E_{label}")],
             ([str(row["n"])] + [cell for label in norms
                                 for cell in (_fmt(row[label]), f"{math.log2(row[label]):.6f}")]
              for row in rows))]
    head = ["N"] + [cell for label in norms for cell in (f"E_N ({label})", "log2")]
    cells = ([str(row["n"])] + [cell for label in norms
                                for cell in (f"{row[label]:.4f}", f"{math.log2(row[label]):.4f}")]
             for row in rows)
    return _write_tables(outdir, csvs, f"{cfg.name}: refinement quotients at T={cfg.t_end:g}",
                         head, cells)


def write_snapshots(result: dict, outdir: str, cfg: ExperimentConfig) -> list[str]:
    os.makedirs(os.path.join(outdir, "snapshots"), exist_ok=True)
    written = []
    run: RunResult = result["run"]
    for snap in run.snapshots:
        pts = np.linspace(snap.imap.left, snap.imap.right, 4 * snap.basis.n + 1)
        eta = analysis.eval_solution(snap, pts, "eta", 0)
        u = analysis.eval_solution(snap, pts, "u", 0)
        written.append(_write_csv(os.path.join(outdir, "snapshots", f"t{snap.t:.6g}.csv"),
                                  ["x", "eta", "u"], ([_fmt(v) for v in row] for row in zip(pts, eta, u))))
    return written


def write_metadata(outdir: str, cfg: ExperimentConfig, wall_time: float,
                   boundary_mismatch: float, solves=(), *, workers: int) -> str:
    """Write the run record ``run.json``, apart from the byte-reproducible CSVs:
    the versions (numpy's BLAS does every product and solve, and is named
    with its version), the wall time, the problem's boundary mismatch
    (``Problem``), the processes that ran the solves, the config and each
    solve's ``RunResult.record`` in solve order."""
    import json   # lazily, like fork_map's signal: the CLI's import path stays as it was
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {"version": __version__, "numpy": np.__version__,
              "blas": {"name": blas.get("name"), "version": blas.get("version")},
              "wall_time_seconds": round(wall_time, 3), "boundary_mismatch": boundary_mismatch,
              "workers": workers, "config": asdict(cfg), "solves": list(solves)}
    path = os.path.join(outdir, "run.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, allow_nan=False)
        fh.write("\n")
    return path


def execute(cfg: ExperimentConfig, outdir: str | None = None) -> list[str]:
    """Run one experiment end to end and write its artifact files to
    ``outdir``, by default ``results/<name>`` under the working directory."""
    cfg = cfg.validate()
    outdir = outdir or os.path.join("results", cfg.name)
    started = time.time()
    # before any basis is built, and refused data leave no output directory
    problem = _resolve_problem(cfg)
    # the levels makedirs creates, deepest first, up to the first that exists
    made, level = [], os.path.normpath(outdir)
    while level and not os.path.lexists(level):
        made.append(level)
        level = os.path.dirname(level)
    run, write = {"error_table": (run_error_table, write_error_table),
                  "ratio_table": (run_ratio_table, write_ratio_table),
                  "snapshot": (run_snapshot, write_snapshots)}[cfg.mode]
    before = _paths(outdir)
    try:
        try:
            os.makedirs(outdir, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {outdir!r}: "
                              f"{exc.strerror or exc}") from exc
        result = run(cfg, problem)
        try:
            written = write(result, outdir, cfg)
            write_metadata(outdir, cfg, time.time() - started, problem.boundary_mismatch,
                           result["solves"], workers=result.get("workers", 1))
        except OSError as exc:   # e.g. a directory, or a file, where an artifact goes
            raise ConfigError(f"cannot write {exc.filename or outdir!r}: {exc.strerror or exc}") from exc
    except BaseException:
        # no partial table: remove what the run made, children first, not what was there
        for path in sorted(_paths(outdir) - before, reverse=True) + made:
            with contextlib.suppress(OSError):
                (os.rmdir if os.path.isdir(path) and not os.path.islink(path) else os.remove)(path)
        raise
    return written


def _paths(top: str) -> set:
    """The entries of ``top`` and of its ``snapshots``, where the writers write."""
    return {os.path.join(d, name) for d in (top, os.path.join(top, "snapshots"))
            if os.path.isdir(d) for name in os.listdir(d)}
