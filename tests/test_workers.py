"""The fork helper behind ratio tables, and the exceptions it carries back."""

import os
import pickle
import signal
import time

import pytest

from bousspec.experiments import ConfigError, _lpt_shares, available_cpus, fork_map
from bousspec.jacobi import QuadratureError
from bousspec.linalg import SingularMatrixError
from bousspec.timestep import StageDivergenceError


@pytest.mark.parametrize("exc", [
    StageDivergenceError("diverging (residual 1.0e+01)", 0.5, 0.1, 3),
    QuadratureError("Newton node search exceeded its cap"),
    ConfigError("t_end must be positive"),
    SingularMatrixError(4),
], ids=lambda exc: type(exc).__name__)
def test_exceptions_survive_pickling(exc):
    copy = pickle.loads(pickle.dumps(exc))
    assert type(copy) is type(exc)
    assert str(copy) == str(exc)
    assert copy.args == exc.args
    assert vars(copy) == vars(exc)


@pytest.mark.parametrize("weights, processes, shares", [
    ((16, 32, 64, 128), 2, [[3], [0, 1, 2]]),
    ((128, 256, 512), 2, [[2], [0, 1]]),
    ((16, 32, 64, 128, 256, 512, 1024), 2, [[6], [0, 1, 2, 3, 4, 5]]),
    ((1, 1, 1), 5, [[0], [1], [2]]),
])
def test_lpt_shares_keep_the_heaviest_here(weights, processes, shares):
    assert _lpt_shares(weights, processes) == shares


@pytest.mark.parametrize("processes", [1, 2, 3, 8])
def test_fork_map_returns_results_in_item_order(processes):
    items = list(range(7))
    results = fork_map(lambda x: (x * x, os.getpid()), items, items, processes)
    assert [square for square, _ in results] == [x * x for x in items]
    assert len({pid for _, pid in results}) == min(processes, len(items))
    assert results[-1][1] == os.getpid()   # this process solves the heaviest item


def test_fork_map_of_no_items_is_empty():
    assert fork_map(abs, [], [], 2) == []


def test_only_hosts_that_report_cpu_affinity_fork(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert available_cpus() == 1


@pytest.mark.parametrize("processes", [1, 2, 3])
@pytest.mark.parametrize("failing, first", [({1, 4, 5}, 1), ({5}, 5), ({2, 3}, 2)])
def test_fork_map_raises_the_failure_a_serial_loop_raises_first(processes, failing, first):
    def fn(x):
        if x in failing:
            raise StageDivergenceError("diverging", 0.5, 1.0 / (x + 1), x)
        return x

    items = list(range(6))
    with pytest.raises(StageDivergenceError) as err:
        fork_map(fn, items, [x + 1 for x in items], processes)
    assert err.value.step == first


def test_fork_map_names_the_signal_of_a_killed_worker():
    def fn(x):
        if x == 0:
            os.kill(os.getpid(), signal.SIGKILL)
        return x

    with pytest.raises(ChildProcessError, match="killed by signal SIGKILL"):
        fork_map(fn, [0, 1], [1, 10], 2)


class Unpicklable(Exception):
    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


def test_fork_map_reports_an_unpicklable_worker_failure_by_its_text():
    def fn(x):
        if x == 0:
            raise Unpicklable("left", "right")
        return x

    with pytest.raises(RuntimeError, match="^Unpicklable: left and right$"):
        fork_map(fn, [0, 1], [1, 10], 2)


class Abort(BaseException):
    pass


def test_fork_map_kills_its_workers_when_this_process_fails():
    def fn(x):
        if x == 1:
            raise Abort
        time.sleep(60)

    started = time.monotonic()
    with pytest.raises(Abort):
        fork_map(fn, [0, 1], [1, 10], 2)
    assert time.monotonic() - started < 30
