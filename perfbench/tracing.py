"""Span tracing of the rankone2d layers from outside the package.

``install`` wraps the public functions of each module where the package
looks them up (every module-level binding of the same function object is
replaced), so a call from ``cli`` into ``criteria`` or from ``oracle`` into
the direction kernel opens a span.  A hook whose target does not exist at
the traced commit is reported as absent; the run goes on without it.

Spans stay in memory as ``[name, start, end, parent, op, count]`` and are
reduced to per-layer metrics when the run ends.  A layer's self time is its
span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from typing import Callable, List, Optional


class Tracer:
    def __init__(self):
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.op = -1

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op, ()])
        self.stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        self.stack.pop()


# ---------------------------------------------------------------------------
# work counters: (args, kwargs, function) -> tuple of counts


def _arguments(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _points(fn, args, kwargs):
    import numpy as np

    return (int(np.size(_arguments(fn, args, kwargs)["xs"])),)


def _voliso_pairs(fn, args, kwargs):
    a = _arguments(fn, args, kwargs)
    return (a["t_grid"].n * a["z_grid"].n,)


def _ks_points(fn, args, kwargs):
    return (_arguments(fn, args, kwargs)["grid"].n ** 2,)


def _oracle_samples(fn, args, kwargs):
    a = _arguments(fn, args, kwargs)
    return (a["n_lambda"] ** 2 * a["n_rotation_pairs"] + max(a["n_refine"], 0),)


def _kernel_work(fn, args, kwargs):
    a = _arguments(fn, args, kwargs)
    n = len(a["f00"])
    return (n, n * a["n_angles"] ** 2)


def _cells(fn, args, kwargs):
    return (_arguments(fn, args, kwargs)["n_points"] ** 2,)


def _bytes(fn, args, kwargs):
    # the CLI opens a fresh file per emitter, so its position is the size
    return (_arguments(fn, args, kwargs)["stream"].tell(),)


# (module, attribute, span name, counter)
HOOKS = [
    ("cli", "_load_energy_file", "energy.load_file", None),
    ("energy", "catalog", "energy.catalog", None),
    ("energy", "make_split", "energy.make_split", None),
    ("expr", "eval_jet2", "expr.scalar", None),
    ("expr", "eval_jet2_array", "expr.array", _points),
    ("scalar_inf", "infimum_weighted_second", "scalar_inf.infimum", None),
    ("scalar_inf", "convexity_verdict", "scalar_inf.convexity", None),
    ("criteria", "main_check", "criteria.main", None),
    ("criteria", "voliso_check", "criteria.voliso", _voliso_pairs),
    ("criteria", "ks_check", "criteria.ks", _ks_points),
    ("criteria", "necessary_battery", "criteria.necessary", None),
    ("criteria", "classify_structure", "criteria.classify", None),
    ("oracle", "brute_force_check", "oracle.search", _oracle_samples),
    ("oracle", "direction_min_batch", "kernel", _kernel_work),
    ("scan", "direction_min_batch", "kernel", _kernel_work),
    ("scan", "scan_domain", "scan.map", _cells),
    ("scan", "emit_csv", "scan.csv", _bytes),
    ("scan", "emit_svg", "scan.svg", _bytes),
    ("stress", "principal_cauchy", "stress", None),
    ("stress", "stress_jacobian_det", "stress", None),
    ("stress", "infinitesimal_moduli", "stress", None),
    ("stress", "linear_rank_one_check", "stress", None),
    ("stress", "invertibility_verdict", "stress", None),
]


def _wrap(tracer: Tracer, fn: Callable, name: str,
          counter: Optional[Callable]) -> Callable:
    def wrapper(*args, **kwargs):
        sid = tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(sid)
            if counter is not None:
                try:
                    tracer.spans[sid][5] = counter(fn, args, kwargs)
                except (KeyError, TypeError, AttributeError, ValueError, OSError):
                    pass  # a changed signature loses the count, not the run

    wrapper.__wrapped__ = fn
    wrapper.__perfbench__ = True
    return wrapper


class Hooks:
    """Installed wrappers; ``remove`` restores every replaced binding."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.replaced: list = []
        self.absent: List[str] = []

    def install(self) -> "Hooks":
        for mod_name, attr, span, counter in HOOKS:
            try:
                module = importlib.import_module("rankone2d." + mod_name)
            except ImportError:
                self.absent.append(f"{mod_name}.{attr}")
                continue
            target = getattr(module, attr, None)
            if target is None:
                self.absent.append(f"{mod_name}.{attr}")
                continue
            if getattr(target, "__perfbench__", False):
                continue  # already wrapped through another binding
            wrapper = _wrap(self.tracer, target, span, counter)
            for name, mod in list(sys.modules.items()):
                if mod is None or not name.startswith("rankone2d"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is target:
                        setattr(mod, key, wrapper)
                        self.replaced.append((mod, key, target))
        return self

    def remove(self) -> None:
        for mod, key, target in reversed(self.replaced):
            setattr(mod, key, target)
        self.replaced.clear()


# ---------------------------------------------------------------------------
# reduction to per-layer metrics


def unit(metric: str) -> str:
    if metric.endswith(("_s", ".s")):
        return "s"
    return "bytes" if metric.endswith("_bytes") else "count"


def _duration(span) -> float:
    return span[2] - span[1]


def layer_metrics(spans: List[list]) -> dict:
    """Per-layer times and counts.  A ``*_s`` metric sums the spans of that
    layer that have no ancestor of the same layer, so nested calls (catalog
    calling make_split) count once."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)

    def has_ancestor(i, names):
        p = spans[i][3]
        while p >= 0:
            if spans[p][0] in names:
                return True
            p = spans[p][3]
        return False

    def outer(names):
        return [i for i, s in enumerate(spans)
                if s[0] in names and not has_ancestor(i, names)]

    def total(names):
        return sum((_duration(spans[i]) for i in outer(names)), 0.0)

    def count(name, k=0):
        return sum(s[5][k] for s in spans if s[0] == name and len(s[5]) > k)

    def covered(i, names):
        """Time inside span i covered by its outermost descendants in names."""
        out, todo = 0.0, list(children[i])
        while todo:
            j = todo.pop()
            if spans[j][0] in names:
                out += _duration(spans[j])
            else:
                todo.extend(children[j])
        return out

    energy = {"energy.load_file", "energy.catalog", "energy.make_split"}
    cli = [i for i, s in enumerate(spans) if s[0].startswith("cli.")]
    other = {s[0] for s in spans if not s[0].startswith("cli.")}
    search = outer({"oracle.search"})
    m = {
        "cli.self_s": sum((_duration(spans[i]) - covered(i, other) for i in cli), 0.0),
        "energy.build_s": total(energy),
        "energy.build_calls": len(outer(energy)),
        "expr.scalar_calls": sum(1 for s in spans if s[0] == "expr.scalar"),
        "expr.scalar_s": total({"expr.scalar"}),
        "expr.array_points": count("expr.array"),
        "expr.array_s": total({"expr.array"}),
        "scalar_inf.infimum_s": total({"scalar_inf.infimum"}),
        "scalar_inf.infimum_calls": len(outer({"scalar_inf.infimum"})),
        "scalar_inf.convexity_s": total({"scalar_inf.convexity"}),
        "criteria.main_s": total({"criteria.main"}),
        "criteria.voliso_s": total({"criteria.voliso"}),
        "criteria.voliso_pairs": count("criteria.voliso"),
        "criteria.ks_s": total({"criteria.ks"}),
        "criteria.ks_points": count("criteria.ks"),
        "criteria.necessary_s": total({"criteria.necessary"}),
        "criteria.classify_s": total({"criteria.classify"}),
        "oracle.search_s": total({"oracle.search"}),
        "oracle.samples": count("oracle.search"),
        "oracle.psi_s": sum((_duration(spans[i]) - covered(i, {"kernel", "expr.array"})
                             for i in search), 0.0),
        "kernel.s": total({"kernel"}),
        "kernel.samples": count("kernel", 0),
        "kernel.direction_evals": count("kernel", 1),
        "scan.map_s": total({"scan.map"}),
        "scan.cells": count("scan.map"),
        "scan.csv_s": total({"scan.csv"}),
        "scan.csv_bytes": count("scan.csv"),
        "scan.svg_s": total({"scan.svg"}),
        "scan.svg_bytes": count("scan.svg"),
        "stress.s": total({"stress"}),
    }
    return m
