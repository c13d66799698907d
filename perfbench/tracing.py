"""In-memory span tracing of the wramsey layers, installed from outside.

``install`` replaces every public function of each layer module with a
wrapper that records one span per call: name, start, end and the index of
the enclosing span.  The package binds names with ``from .x import y``, so
the wrapper is also written into every ``wramsey`` module that holds the
same function object; otherwise calls made through those bindings would go
unseen.  Spans are kept in flat arrays and turned into per-name self times
only when the pass ends, so recording costs one append per field.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from collections import defaultdict

LAYERS = ("exactnum", "graphs", "weighted_ramsey", "packing", "bounds", "cli")


class SpanLog:
    """Spans as parallel arrays; ``parent`` is -1 for a root span."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.counts: dict[str, int] = defaultdict(int)
        self._stack = [-1]

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int, start: float) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.start.append(start)
        self.end.append(start)
        self.parent.append(self._stack[-1])
        self._stack.append(idx)
        return idx

    def close(self, idx: int, end: float) -> None:
        self.end[idx] = end
        self._stack.pop()

    def add(self, name: str, start: float, end: float, parent: int = -1) -> int:
        """Record a finished span directly (used by the tests)."""
        idx = len(self.start)
        self.name.append(self.name_id(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        return idx

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds.

        A span's self time is its duration minus the durations of its
        direct children.  Calls nest strictly on one thread, so children
        never overlap each other and lie inside their parent.
        """
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, dict[str, float]] = {}
        for i in range(n):
            rec = out.setdefault(
                self.names[self.name[i]], {"calls": 0, "incl_s": 0.0, "self_s": 0.0}
            )
            dur = self.end[i] - self.start[i]
            rec["calls"] += 1
            rec["incl_s"] += dur
            rec["self_s"] += dur - child[i]
        return out


def _solve_lp_kind(problem) -> str:
    """Phase-2-only programs have only <= rows with nonnegative right-hand side."""
    if all(c.relation.value == "<=" and c.rhs >= 0 for c in problem.constraints):
        return "le"
    return "ge_eq"


def _count_lp(log: SpanLog, problem) -> None:
    log.counts["exactnum.lp_rows"] += len(problem.constraints)
    log.counts["exactnum.lp_cols"] += problem.num_vars
    log.counts["exactnum.lp_nnz"] += sum(len(c.coeffs) for c in problem.constraints)


def _wrap(log: SpanLog, qualname: str, fn):
    clock = time.perf_counter
    if qualname == "exactnum.solve_lp":
        kinds = {k: log.name_id(f"{qualname}.{k}") for k in ("le", "ge_eq")}

        def traced(problem, *args, **kwargs):
            _count_lp(log, problem)
            idx = log.open(kinds[_solve_lp_kind(problem)], clock())
            try:
                return fn(problem, *args, **kwargs)
            finally:
                log.close(idx, clock())
    elif qualname in ("graphs.enumerate_colorings", "weighted_ramsey.build_constraints"):
        counter = ("graphs.classes" if qualname.startswith("graphs")
                   else "weighted_ramsey.mono_rows")
        nid = log.name_id(qualname)

        def traced(*args, **kwargs):
            idx = log.open(nid, clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                log.close(idx, clock())
            rows = result.constraints if hasattr(result, "constraints") else result
            log.counts[counter] += len(rows)
            return result
    else:
        nid = log.name_id(qualname)

        def traced(*args, **kwargs):
            idx = log.open(nid, clock())
            try:
                return fn(*args, **kwargs)
            finally:
                log.close(idx, clock())
    traced.__wrapped__ = fn
    traced.__name__ = getattr(fn, "__name__", qualname)
    return traced


def public_functions(module) -> dict[str, object]:
    """Functions a module defines itself under a name without a leading _."""
    return {
        name: obj for name, obj in vars(module).items()
        if not name.startswith("_") and callable(obj) and not isinstance(obj, type)
        and getattr(obj, "__module__", None) == module.__name__
    }


def install(log: SpanLog, package: str = "wramsey", layers=LAYERS) -> int:
    """Wrap every public layer function at every binding; returns the count."""
    wrappers: dict[int, tuple[object, object]] = {}
    for layer in layers:
        module = importlib.import_module(f"{package}.{layer}")
        for name, fn in public_functions(module).items():
            wrappers[id(fn)] = (fn, _wrap(log, f"{layer}.{name}", fn))
    patched = 0
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == package or modname.startswith(package + ".")):
            continue
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
                patched += 1
    return patched


def layer_metrics(summary: dict, counts: dict, traced_raw_s: float, traced_s: float,
                  serial_s: float, parallel_s: float, jobs: int) -> dict[str, float]:
    """The per-layer metrics of one traced pass and its two untraced passes.

    Each pass is measured by the sum of its items' timed calls, so gauge
    readings and the item loop are left out.  ``traced_raw_s`` is that sum
    as measured for the traced pass (the span times are raw too).
    ``traced_s``, ``serial_s`` and ``parallel_s`` are gauge-scaled sums for
    the traced pass and for untraced passes of the same items at one job
    and at ``jobs`` jobs; the traced pass runs at one job.
    """
    def self_s(name):
        return summary.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    key = summary.get("graphs.canonical_key", {"calls": 0, "incl_s": 0.0})
    speedup = serial_s / parallel_s
    m = {
        "exactnum.solve_lp.le_self_s": self_s("exactnum.solve_lp.le"),
        "exactnum.solve_lp.ge_eq_self_s": self_s("exactnum.solve_lp.ge_eq"),
        "exactnum.solve_lp.calls": calls("exactnum.solve_lp.le") + calls("exactnum.solve_lp.ge_eq"),
        "exactnum.check_certificates.self_s": self_s("exactnum.check_certificates"),
        "exactnum.check_certificates.calls": calls("exactnum.check_certificates"),
        "graphs.canonical_key.us_per_call":
            key["incl_s"] / key["calls"] * 1e6 if key["calls"] else 0.0,
        "graphs.canonical_key.calls": key["calls"],
        "graphs.enumerate_colorings.self_s": self_s("graphs.enumerate_colorings"),
        "weighted_ramsey.build_constraints.self_s": self_s("weighted_ramsey.build_constraints"),
        "weighted_ramsey.r_of_coloring.self_s": self_s("weighted_ramsey.r_of_coloring"),
        "weighted_ramsey.pool_speedup": speedup,
        "weighted_ramsey.pool_efficiency": speedup / jobs,
        "cli.main.self_s": self_s("cli.main"),
    }
    for name in ("exactnum.lp_rows", "exactnum.lp_cols", "exactnum.lp_nnz",
                 "graphs.classes", "weighted_ramsey.mono_rows"):
        m[name] = counts.get(name, 0)
    for fn in ("tau_star", "tau_integral_family", "r_induced", "r_tilde"):
        m[f"packing.{fn}.self_s"] = self_s(f"packing.{fn}")
        m[f"packing.{fn}.calls"] = calls(f"packing.{fn}")
    for fn in ("construction_k4", "construction_blowup", "verify_weighting"):
        m[f"bounds.{fn}.self_s"] = self_s(f"bounds.{fn}")
    total_self = 0.0
    for layer in LAYERS:
        layer_self = sum((rec["self_s"] for name, rec in summary.items()
                          if name.startswith(layer + ".")), 0.0)
        m[f"{layer}.self_s"] = layer_self
        total_self += layer_self
    m["trace.overhead_frac"] = traced_s / serial_s - 1
    m["trace.accounted_frac"] = total_self / traced_raw_s
    return m
