"""Layer spans for one traced solver process, recorded from outside the solver.

``Tracer`` keeps per-name aggregates of nested spans: call counts, total
time (outermost span of a name only, so recursion is not counted twice)
and self time (a span's duration minus the durations of its direct child
spans).  ``Patcher`` swaps a function for its traced wrapper in every
namespace that holds it and restores the originals afterwards.
``install_layers`` wraps the public functions of each bousspec layer; a
function missing from the package (a deleted module, say) is skipped and
its metrics read zero.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from contextlib import contextmanager


class Tracer:
    """Aggregated nested spans plus free-form counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.counters: dict[str, float] = {}
        self.root_s = 0.0                  # summed duration of top-level spans
        self._stack: list[list] = []       # [name, start, child seconds]
        self._depth: dict[str, int] = {}

    def enter(self, name: str) -> None:
        self._depth[name] = self._depth.get(name, 0) + 1
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> float:
        name, start, child = self._stack.pop()
        duration = self.clock() - start
        self._depth[name] -= 1
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_time[name] = self.self_time.get(name, 0.0) + duration - child
        if self._depth[name] == 0:
            self.total[name] = self.total.get(name, 0.0) + duration
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.root_s += duration
        return duration

    @contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def add(self, counter: str, amount: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def maximum(self, counter: str, value: float) -> None:
        self.counters[counter] = max(self.counters.get(counter, value), value)

    def wrap(self, fn, name: str, after=None):
        """Traced stand-in for ``fn``; ``after(args, kwargs, result)`` may
        replace the result and runs outside the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if after is not None:
                result = after(args, kwargs, result)
            return result

        return traced

    def summary(self) -> dict:
        return {
            "calls": dict(self.calls),
            "total": dict(self.total),
            "self": dict(self.self_time),
            "counters": dict(self.counters),
            "root_s": self.root_s,
        }


def wrapper_cost_us(calls: int = 20000, repeats: int = 5) -> float:
    """Median added cost of one traced call over a bare call, in microseconds."""
    def noop():
        return None

    traced = Tracer().wrap(noop, "noop")
    costs = []
    for _ in range(repeats):
        elapsed = []
        for fn in (noop, traced):
            start = time.perf_counter()
            for _ in range(calls):
                fn()
            elapsed.append(time.perf_counter() - start)
        costs.append(1e6 * (elapsed[1] - elapsed[0]) / calls)
    return sorted(costs)[repeats // 2]


class Patcher:
    """Replace an object in every namespace that holds it; undo on restore."""

    def __init__(self):
        self._saved: list[tuple] = []

    def replace(self, original, replacement, namespaces) -> int:
        hits = 0
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    self._saved.append((ns, attr, value))
                    setattr(ns, attr, replacement)
                    hits += 1
        return hits

    def restore(self) -> None:
        while self._saved:
            ns, attr, value = self._saved.pop()
            setattr(ns, attr, value)


# (module, attribute path, span name): the public entry points of each layer
LAYERS = (
    ("jacobi", "build_basis", "jacobi.build_basis"),
    ("jacobi", "nodal_eval", "jacobi.nodal_eval"),
    ("linalg", "lu_factor", "linalg.lu_factor"),
    ("linalg", "lu_solve", "linalg.lu_solve"),
    ("model", "ExactSolution.eta", "model.exact_eval"),
    ("model", "ExactSolution.u", "model.exact_eval"),
    ("semidiscrete", "assemble", "semidiscrete.assemble"),
    ("semidiscrete", "rhs_eval", "semidiscrete.rhs_eval"),
    ("timestep", "integrate", "timestep.integrate"),
    ("analysis", "error_vs_exact", "analysis.norm"),
    ("analysis", "convergence_ratio", "analysis.norm"),
    ("analysis", "self_norm", "analysis.norm"),
    ("analysis", "eval_solution", "analysis.eval_solution"),
    ("experiments", "solve_once", "experiments.solve_once"),
    ("experiments", "write_error_table", "experiments.write"),
    ("experiments", "write_ratio_table", "experiments.write"),
    ("experiments", "write_snapshots", "experiments.write"),
    ("experiments", "write_metadata", "experiments.write"),
)


def _lookup(module, path: str):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    return owner, getattr(owner, parts[-1], None)


def _after_for(tracer: Tracer, name: str):
    """Counter hook for a layer; tolerant of signatures a refactor may change."""
    if name == "semidiscrete.assemble":
        seen = set()

        def after(args, kwargs, result):
            # the basis is identified by (mu, N); the rest of the call by value
            basis = args[0] if args else kwargs.get("basis")
            key = (getattr(basis, "mu", None), getattr(basis, "n", None),
                   repr(args[1:]), repr(sorted(kwargs.items())))
            if key not in seen:
                seen.add(key)
                tracer.add("semidiscrete.assemble.distinct", 1)
            return result

        return after
    if name == "timestep.integrate":
        def after(args, kwargs, result):
            stats = result[-1] if isinstance(result, tuple) else None
            tracer.add("timestep.steps", getattr(stats, "steps", 0))
            tracer.add("timestep.rhs_evals", getattr(stats, "rhs_evals", 0))
            tracer.maximum("timestep.max_stage_iters", getattr(stats, "max_stage_iters", 0))
            return result

        return after
    if name == "experiments.write":
        def after(args, kwargs, result):
            paths = [result] if isinstance(result, str) else list(result or ())
            tracer.add("experiments.write.bytes",
                       sum(os.path.getsize(p) for p in paths if os.path.isfile(p)))
            return result

        return after
    return None


def install_layers(tracer: Tracer, patcher: Patcher, package: str = "bousspec") -> list[str]:
    """Wrap every layer entry point found in ``package``; return those missing."""
    modules = {}
    for modname in dict.fromkeys(m for m, _, _ in LAYERS):
        try:
            modules[modname] = importlib.import_module(f"{package}.{modname}")
        except ImportError:
            pass
    namespaces = [m for n, m in list(sys.modules.items())
                  if m is not None and (n == package or n.startswith(package + "."))]
    missing = []
    for modname, path, name in LAYERS:
        owner, fn = _lookup(modules.get(modname), path)
        if fn is None:
            missing.append(f"{modname}.{path}")
            continue
        traced = tracer.wrap(fn, name, _after_for(tracer, name))
        holders = namespaces + ([owner] if isinstance(owner, type) else [])
        patcher.replace(fn, traced, holders)

    # the vector field is a closure built per solve; wrap each one as it is made
    make_field = getattr(modules.get("semidiscrete"), "make_vector_field", None)
    if make_field is None:
        missing.append("semidiscrete.make_vector_field")
    else:
        def traced_field(*args, **kwargs):
            return tracer.wrap(make_field(*args, **kwargs), "semidiscrete.field")

        patcher.replace(make_field, functools.wraps(make_field)(traced_field), namespaces)
    return missing
