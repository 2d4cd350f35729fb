"""Benchmark of the bousspec experiment tables, run from a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a fixed set of experiment configs (``workloads/NAME/*.cfg``,
the paper presets in the repository's own config format).  Every config runs
in a fresh interpreter through ``python3 -m bousspec.cli run``, the path a
user of ``solver run`` takes, so every run pays import, basis build and
assembly.  The seed only fixes the order in which a pass visits the configs.

With ``--trace 0`` the run alternates timed passes over all configs with
set-up passes (import, problem resolution, basis, assembly and initial state
for every N, no time steps) for ``--seconds`` seconds, then tops the set-up
passes up to ``SETUP_REPEATS`` passes and ``SETUP_MIN_S`` seconds; it reports
medians of the end-to-end metrics.
With ``--trace 1`` it makes one untraced pass, then two passes with every
layer wrapped from outside (``child.py trace``) and reports the per-layer
aggregates of the first, the tracing overhead (traced span calls times the
measured cost of one wrapper call, next to the traced minus untraced wall of
one pass each), the share of traced wall time that no layer span explains and
any drift of the exact counts between the two traced passes.

Every artifact is checked against ``data/reference.json``; a config that
exits non-zero or fails its check counts in ``failed``.  The last line of
standard output is the JSON result; the line before it records the
environment.  The checkout must hold ``src/bousspec``; without it the run
exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(HERE))

import bench_check  # noqa: E402
import bench_trace  # noqa: E402

WORKLOADS = ("error_tables", "quotients_small_n", "quotients_large_n")
SETUP_REPEATS = 5
# short set-up passes (0.5 s on quotients_large_n) get more samples
SETUP_MIN_S = 5.0
RUN_DEADLINE_S = 170.0          # a run must end within 180 s
# One BLAS thread: at N <= 512 a second thread barely speeds the kernels up,
# but on a shared 2-vCPU host it made the wall time of the N=512 workload
# vary 5x more from run to run.
BLAS_THREADS = 1

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# counts that must repeat exactly between traced runs of the same code
EXACT_COUNTS = (
    "timestep.steps",
    "timestep.rhs_per_step",
    "semidiscrete.field.calls",
    "linalg.lu_solve.calls",
    "analysis.eval_solution.calls",
)

PER_LAYER = {
    "cli.import_s": "s",
    "jacobi.build_basis.calls": "count",
    "jacobi.build_basis.s": "s",
    "jacobi.nodal_eval.calls": "count",
    "jacobi.nodal_eval.s": "s",
    "linalg.lu_factor.s": "s",
    "linalg.lu_solve.calls": "count",
    "linalg.lu_solve.s": "s",
    "linalg.lu_solve.us_per_call": "us",
    "model.exact_eval.calls": "count",
    "model.exact_eval.s": "s",
    "semidiscrete.assemble.calls": "count",
    "semidiscrete.assemble.distinct": "count",
    "semidiscrete.assemble.s": "s",
    "semidiscrete.field.calls": "count",
    "semidiscrete.field.s": "s",
    "semidiscrete.field.self_s": "s",
    "semidiscrete.rhs_eval.s": "s",
    "semidiscrete.rhs_eval.us_per_call": "us",
    "timestep.integrate.s": "s",
    "timestep.integrate.self_s": "s",
    "timestep.steps": "count",
    "timestep.rhs_per_step": "count",
    "timestep.max_stage_iters": "count",
    "analysis.norm.calls": "count",
    "analysis.norm.s": "s",
    "analysis.eval_solution.calls": "count",
    "experiments.solve_once.calls": "count",
    "experiments.write.s": "s",
    "experiments.write.bytes": "B",
    "experiments.csv_max_rel_change": "ratio",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.wall_minus_untraced_s": "s",
    "trace.overhead_s": "s",
    "trace.wrapper_us_per_call": "us",
    "trace.outside_s": "s",
    "trace.unexplained_frac": "ratio",
    "trace.count_drift": "count",
}


@dataclass
class Child:
    wall_s: float
    rss_mb: float
    code: int


def nproc() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def child_env(threads: int) -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PYTHON") and k != "BOUSSPEC_OUTPUT_ROOT"}
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


class Runner:
    """Starts children one at a time, times them and enforces the run deadline."""

    def __init__(self, env: dict, logdir: Path, deadline: float):
        self.env = env
        self.logdir = logdir
        self.deadline = deadline
        self.started = 0

    def run(self, args: list[str]) -> Child:
        self.started += 1
        log = self.logdir / f"child-{self.started}.log"
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(log, "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], env=self.env, cwd=ROOT,
                                    stdout=subprocess.DEVNULL, stderr=err)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)   # reaped by wait4 above
        if proc.returncode != 0:
            tail = log.read_text()[-2000:]
            print(f"child {args} exited {proc.returncode}:\n{tail}", file=sys.stderr)
        return Child(wall, usage.ru_maxrss / 1024.0, proc.returncode)


def configs(workload: str) -> list[Path]:
    return sorted((HERE / "workloads" / workload).glob("*.cfg"))


class Gate:
    """Counts attempted and failed config runs and checks their artifacts."""

    def __init__(self, workload: str):
        with open(HERE / "data" / "reference.json") as fh:
            self.ref = json.load(fh)[workload]
        self.seed_dir = HERE / "data" / "seed" / workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.csv_change = 0.0

    def record(self, cfg: Path, outdir: Path | None, code: int) -> None:
        """Count one config run; ``outdir`` is None for a set-up run (no artifacts)."""
        self.attempted += 1
        if code != 0:
            problems = [f"exit status {code}"]
        elif outdir is None:
            return
        else:
            problems = bench_check.check_config(self.ref, cfg.stem, str(outdir))
        if problems:
            self.failed += 1
            self.problems += [f"{cfg.stem}: {p}" for p in problems]
        else:
            change = bench_check.csv_max_rel_change(str(outdir), str(self.seed_dir / cfg.stem))
            self.csv_change = max(self.csv_change, change)


def solve_pass(runner: Runner, gate: Gate, cfgs, outroot: Path) -> tuple[float, float]:
    """Run every config through ``solver run``; return (summed wall, peak RSS)."""
    wall, rss = 0.0, 0.0
    for cfg in cfgs:
        outdir = outroot / cfg.stem
        child = runner.run(["-m", "bousspec.cli", "run", str(cfg), "--output", str(outdir)])
        gate.record(cfg, outdir, child.code)
        wall += child.wall_s
        rss = max(rss, child.rss_mb)
    return wall, rss


def setup_pass(runner: Runner, gate: Gate, cfgs) -> float:
    wall = 0.0
    for cfg in cfgs:
        child = runner.run([str(HERE / "child.py"), "setup", str(cfg)])
        gate.record(cfg, None, child.code)
        wall += child.wall_s
    return wall


def traced_pass(runner: Runner, gate: Gate, cfgs, outroot: Path):
    """Run every config with all layers wrapped; return (summed wall, summaries)."""
    wall, summaries = 0.0, []
    for cfg in cfgs:
        outdir = outroot / cfg.stem
        summary_path = outroot / f"{cfg.stem}.trace.json"
        child = runner.run([str(HERE / "child.py"), "trace", str(cfg), str(outdir),
                            str(summary_path)])
        gate.record(cfg, outdir, child.code)
        wall += child.wall_s
        if summary_path.is_file():
            with open(summary_path) as fh:
                summaries.append(json.load(fh))
    return wall, summaries


def merge(summaries: list[dict]) -> dict:
    """Sum the per-process aggregates (maxima stay maxima)."""
    out = {"calls": {}, "total": {}, "self": {}, "counters": {}, "root_s": 0.0}
    for s in summaries:
        for key in ("calls", "total", "self"):
            for name, value in s[key].items():
                out[key][name] = out[key].get(name, 0) + value
        for name, value in s["counters"].items():
            if name.startswith("timestep.max_"):
                out["counters"][name] = max(out["counters"].get(name, 0), value)
            else:
                out["counters"][name] = out["counters"].get(name, 0) + value
        out["root_s"] += s["root_s"]
    return out


def layer_metrics(m: dict) -> dict:
    calls, total, self_s, counters = m["calls"], m["total"], m["self"], m["counters"]

    def per_call_us(name):
        return 1e6 * total.get(name, 0.0) / calls[name] if calls.get(name) else 0.0

    steps = counters.get("timestep.steps", 0)
    out = {
        "cli.import_s": total.get("cli.import", 0.0),
        "timestep.steps": steps,
        "timestep.rhs_per_step": counters.get("timestep.rhs_evals", 0) / steps if steps else 0.0,
        "timestep.max_stage_iters": counters.get("timestep.max_stage_iters", 0),
        "semidiscrete.assemble.distinct": counters.get("semidiscrete.assemble.distinct", 0),
        "experiments.write.bytes": counters.get("experiments.write.bytes", 0),
        "linalg.lu_solve.us_per_call": per_call_us("linalg.lu_solve"),
        "semidiscrete.rhs_eval.us_per_call": per_call_us("semidiscrete.rhs_eval"),
    }
    for metric in PER_LAYER:
        if metric in out or metric.startswith("trace."):
            continue
        layer, _, kind = metric.rpartition(".")
        if kind == "calls":
            out[metric] = calls.get(layer, 0)
        elif kind == "s":
            out[metric] = total.get(layer, 0.0)
        elif kind == "self_s":
            out[metric] = self_s.get(layer, 0.0)
    return out


def environment(threads: int) -> dict:
    import numpy
    import scipy

    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": threads,
        "nproc": nproc(),
        "cpu_model": platform.processor() or platform.machine(),
        "git_commit": "unknown",
    }
    for module in (numpy, scipy):
        try:
            blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            env[f"{module.__name__}_blas"] = f"{blas.get('name')} {blas.get('version')}"
        except (TypeError, KeyError, ValueError):
            env[f"{module.__name__}_blas"] = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    if (ROOT / ".git").exists():
        try:
            env["git_commit"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return env


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE_S
    threads = min(BLAS_THREADS, nproc())
    rundir = WORK / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    runner = Runner(child_env(threads), rundir, deadline)
    gate = Gate(workload)
    rng = random.Random(seed)
    cfgs = configs(workload)

    def order():
        shuffled = list(cfgs)
        rng.shuffle(shuffled)
        return shuffled

    # warm-up: byte-compile and page in, and make sure the checkout's source is used
    probe = rundir / "probe.txt"
    code = runner.run(["-c", "import bousspec.cli, sys; "
                       f"open({str(probe)!r}, 'w').write(bousspec.__file__)"]).code
    if code != 0 or not Path(probe.read_text()).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit("bousspec does not import from the checkout's src/")

    detail: dict = {"workload": workload, "seed": seed, "configs": [c.stem for c in cfgs]}
    if not trace:
        walls, rsss, setups = [], [], []
        started = time.monotonic()
        while True:
            begun = time.monotonic()
            wall, rss = solve_pass(runner, gate, order(), rundir / f"pass{len(walls)}")
            walls.append(wall)
            rsss.append(rss)
            setups.append(setup_pass(runner, gate, order()))
            # start another pass only if it is expected to end within the budget
            if time.monotonic() + (time.monotonic() - begun) > started + seconds:
                break
        while ((len(setups) < SETUP_REPEATS or sum(setups) < SETUP_MIN_S)
               and time.monotonic() + setups[-1] < deadline):
            setups.append(setup_pass(runner, gate, order()))
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(rsss),
        }
        detail.update(wall_s=walls, setup_s=setups, peak_rss_mb=rsss)
    else:
        untraced, _ = solve_pass(runner, gate, order(), rundir / "untraced")
        traced, summaries = traced_pass(runner, gate, order(), rundir / "traced")
        _, again = traced_pass(runner, gate, order(), rundir / "traced_again")
        first, second = merge(summaries), merge(again)
        metrics = layer_metrics(first)
        repeat = layer_metrics(second)
        drift = [n for n in EXACT_COUNTS if metrics[n] != repeat[n]]
        if drift:
            print(f"exact counts drifted between traced runs: "
                  f"{ {n: (metrics[n], repeat[n]) for n in drift} }", file=sys.stderr)
        outside = traced - first["root_s"]     # interpreter start-up and exit
        wrapper_us = bench_trace.wrapper_cost_us()
        # work inside no layer span: the import, cli.main's own time (config
        # parsing, problem resolution, the sweep loops) and start-up and exit
        unexplained = (first["total"].get("cli.import", 0.0)
                       + first["self"].get("cli.main", 0.0) + outside)
        metrics.update({
            "experiments.csv_max_rel_change": gate.csv_change,
            "trace.wall_s": traced,
            "trace.untraced_wall_s": untraced,
            # one pass each, so host drift between them can outweigh the wrappers
            "trace.wall_minus_untraced_s": traced - untraced,
            "trace.overhead_s": 1e-6 * wrapper_us * sum(first["calls"].values()),
            "trace.wrapper_us_per_call": wrapper_us,
            "trace.outside_s": outside,
            "trace.unexplained_frac": unexplained / traced,
            "trace.count_drift": len(drift),
        })
        detail["missing_layers"] = sorted({m for s in summaries for m in s.get("missing", [])})
        detail["drifted"] = drift
    detail["problems"] = gate.problems[:50]
    shutil.rmtree(rundir, ignore_errors=True)

    units = PER_LAYER if trace else END_TO_END
    return {
        "env": environment(threads),
        "detail": detail,
        "result": {
            "correct": gate.failed == 0 and gate.attempted > 0,
            "attempted": gate.attempted,
            "failed": gate.failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "bousspec" / "cli.py").is_file():
        print(f"no bousspec source under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    with open(WORK / f"last-{args.workload}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"env": record["env"], "detail": record["detail"]}))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
