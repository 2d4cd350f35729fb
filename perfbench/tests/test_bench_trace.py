"""Tests for the benchmark's span tracer and function patching.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from bench_trace import Patcher, Tracer, install_layers  # noqa: E402


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_is_span_minus_children():
    # outer [0, 10] holds inner [2, 5] and inner [6, 7]; inner [2, 5] holds leaf [3, 4]
    tracer = Tracer(clock=FakeClock([0, 2, 3, 4, 5, 6, 7, 10]))
    tracer.enter("outer")
    tracer.enter("inner")
    tracer.enter("leaf")
    tracer.exit()
    tracer.exit()
    tracer.enter("inner")
    tracer.exit()
    tracer.exit()
    assert tracer.calls == {"outer": 1, "inner": 2, "leaf": 1}
    assert tracer.total == {"outer": 10, "inner": 4, "leaf": 1}
    assert tracer.self_time == {"outer": 6, "inner": 3, "leaf": 1}
    assert tracer.root_s == 10
    assert sum(tracer.self_time.values()) == tracer.root_s


def test_recursive_span_counts_outermost_total_once():
    tracer = Tracer(clock=FakeClock([0, 1, 3, 4]))
    tracer.enter("f")
    tracer.enter("f")
    tracer.exit()
    tracer.exit()
    assert tracer.calls["f"] == 2
    assert tracer.total["f"] == 4
    assert tracer.self_time["f"] == 4


def test_wrapper_passes_exceptions_through_and_closes_span():
    tracer = Tracer()

    def boom(x):
        raise KeyError(x)

    traced = tracer.wrap(boom, "boom")
    with pytest.raises(KeyError):
        traced(3)
    assert tracer.calls == {"boom": 1}
    assert tracer._stack == []
    assert traced.__name__ == "boom"


def test_wrapper_after_hook_may_replace_result():
    tracer = Tracer()
    traced = tracer.wrap(lambda a, b=1: a + b, "add", after=lambda args, kw, r: r * 10)
    assert traced(1, b=2) == 30
    assert tracer.calls == {"add": 1}


def test_patcher_replaces_every_holder_and_restores_originals():
    def original():
        return "orig"

    mod_a = types.ModuleType("mod_a")
    mod_b = types.ModuleType("mod_b")
    mod_a.f = original
    mod_b.alias = original
    mod_b.other = len

    class Owner:
        method = original

    patcher = Patcher()
    assert patcher.replace(original, lambda: "new", [mod_a, mod_b, Owner]) == 3
    assert mod_a.f() == mod_b.alias() == "new"
    assert mod_b.other is len
    patcher.restore()
    assert mod_a.f is original and mod_b.alias is original
    assert vars(Owner)["method"] is original


def test_install_layers_reports_missing_functions(monkeypatch):
    package = types.ModuleType("fakepkg")
    jacobi = types.ModuleType("fakepkg.jacobi")
    jacobi.build_basis = lambda mu, n: (mu, n)
    monkeypatch.setitem(sys.modules, "fakepkg", package)
    monkeypatch.setitem(sys.modules, "fakepkg.jacobi", jacobi)
    tracer, patcher = Tracer(), Patcher()
    missing = install_layers(tracer, patcher, package="fakepkg")
    assert "linalg.lu_solve" in missing and "jacobi.build_basis" not in missing
    assert sys.modules["fakepkg.jacobi"].build_basis(0.0, 4) == (0.0, 4)
    assert tracer.calls == {"jacobi.build_basis": 1}
    patcher.restore()


def test_install_layers_counts_a_small_solve_and_restores():
    from bousspec import experiments, semidiscrete

    originals = (semidiscrete.rhs_eval, semidiscrete.make_vector_field, experiments.solve_once)
    tracer, patcher = Tracer(), Patcher()
    try:
        assert install_layers(tracer, patcher) == []
        problem = experiments._resolve_problem(experiments.PRESETS["table6"])
        run = experiments.solve_once(problem, 8, 0.025, 0.5, 0.1)
    finally:
        patcher.restore()
    assert (semidiscrete.rhs_eval, semidiscrete.make_vector_field,
            experiments.solve_once) == originals
    assert tracer.counters["timestep.steps"] == run.stats.steps == 4
    assert tracer.calls["semidiscrete.field"] == run.stats.rhs_evals
    assert tracer.calls["semidiscrete.rhs_eval"] == run.stats.rhs_evals
    assert tracer.calls["experiments.solve_once"] == 1
    assert tracer.counters["semidiscrete.assemble.distinct"] == 1
    assert sum(tracer.self_time.values()) == pytest.approx(tracer.root_s)
