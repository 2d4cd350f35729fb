"""The fork helper behind ratio tables, and the exceptions it carries back."""

import dataclasses
import os
import pickle
import signal
import time

import pytest

from bousspec import experiments
from bousspec.experiments import PRESETS, ConfigError, available_cpus, fork_map
from bousspec.jacobi import QuadratureError
from bousspec.linalg import SingularMatrixError
from bousspec.timestep import StageDivergenceError


@pytest.mark.parametrize("exc", [
    StageDivergenceError("N=16: stage iteration diverging (residual 1.000e+01) at step 3 "
                         "of the run gamma=0.5, k=0.1; reduce the time step"),
    QuadratureError("Newton node search exceeded its cap"),
    ConfigError("t_end must be positive"),
    SingularMatrixError("matrix is singular"),
], ids=lambda exc: type(exc).__name__)
def test_exceptions_survive_pickling(exc):
    # every numerical failure is an ArithmeticError, which the CLI maps to exit 3
    assert isinstance(exc, ArithmeticError) == (type(exc) is not ConfigError)
    copy = pickle.loads(pickle.dumps(exc))
    assert type(copy) is type(exc)
    assert str(copy) == str(exc)
    assert copy.args == exc.args
    assert vars(copy) == vars(exc)


CHAIN = (16, 32, 64, 128, 256, 512, 1024)


@pytest.mark.parametrize("items, processes, shares", [
    (CHAIN[:4], 2, [[0, 1, 2], [3]]),
    (CHAIN[3:6], 2, [[0, 1], [2]]),
    (CHAIN, 2, [[0, 1, 2, 3, 4, 5], [6]]),
    (CHAIN[:5], 1, [[0, 1, 2, 3, 4]]),
    (CHAIN[:5], 3, [[0, 1, 2], [3], [4]]),
    (CHAIN[:4], 8, [[0], [1], [2], [3]]),
])
def test_fork_map_splits_a_doubling_chain_by_position(items, processes, shares):
    # this process runs the last item, one worker each of the next p - 2
    # and the last worker the rest: each share as the pids show it
    pids = fork_map(lambda x: os.getpid(), items, processes)
    by_pid = {}
    for i, pid in enumerate(pids):
        by_pid.setdefault(pid, []).append(i)
    assert sorted(by_pid.values()) == shares
    assert by_pid[os.getpid()] == shares[-1]


@pytest.mark.parametrize("processes", [1, 2, 3, 8])
def test_fork_map_returns_results_in_item_order(processes):
    items = list(range(7))
    results = fork_map(lambda x: (x * x, os.getpid()), items, processes)
    assert [square for square, _ in results] == [x * x for x in items]
    assert len({pid for _, pid in results}) == min(processes, len(items))
    assert results[-1][1] == os.getpid()   # this process solves the largest item


def test_fork_map_of_no_items_is_empty():
    assert fork_map(abs, [], 2) == []


def test_ratio_table_on_more_processes_matches_one_process(monkeypatch):
    cfg = dataclasses.replace(PRESETS["table5"], n_values=(8, 16, 32, 64)).validate()
    problem = experiments._resolve_problem(cfg)
    results = {}
    for cpus in (1, 3, 8):
        monkeypatch.setattr(experiments, "available_cpus", lambda: cpus)
        results[cpus] = experiments.run_ratio_table(cfg, problem)
    assert [results[cpus]["workers"] for cpus in (1, 3, 8)] == [1, 3, 4]
    # each solve's record but its peak RSS, that of the process that ran it
    solves = {cpus: [{k: v for k, v in rec.items() if k != "peak_rss_mb"}
                     for rec in results[cpus]["solves"]] for cpus in results}
    for cpus in (3, 8):
        assert results[cpus]["rows"] == results[1]["rows"]
        assert solves[cpus] == solves[1]


def test_only_hosts_that_report_cpu_affinity_fork(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert available_cpus() == 1


@pytest.mark.parametrize("processes", [1, 2, 3])
@pytest.mark.parametrize("failing, first", [({1, 4, 5}, 1), ({5}, 5), ({2, 3}, 2)])
def test_fork_map_raises_the_failure_a_serial_loop_raises_first(processes, failing, first):
    def fn(x):
        if x in failing:
            raise StageDivergenceError(f"diverging at step {x}")
        return x

    items = list(range(6))
    with pytest.raises(StageDivergenceError, match=f"^diverging at step {first}$"):
        fork_map(fn, items, processes)


def test_fork_map_names_the_signal_of_a_killed_worker():
    def fn(x):
        if x == 0:
            os.kill(os.getpid(), signal.SIGKILL)
        return x

    with pytest.raises(ChildProcessError, match="killed by signal SIGKILL"):
        fork_map(fn, [0, 1], 2)


class Unpicklable(Exception):
    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


def test_fork_map_reports_an_unpicklable_worker_failure_by_its_text():
    def fn(x):
        if x == 0:
            raise Unpicklable("left", "right")
        return x

    with pytest.raises(RuntimeError, match="^Unpicklable: left and right$"):
        fork_map(fn, [0, 1], 2)


class Abort(BaseException):
    pass


def test_fork_map_kills_its_workers_when_this_process_fails():
    def fn(x):
        if x == 1:
            raise Abort
        time.sleep(60)

    started = time.monotonic()
    with pytest.raises(Abort):
        fork_map(fn, [0, 1], 2)
    assert time.monotonic() - started < 30
