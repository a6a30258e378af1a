"""Outside-in per-layer tracing for the benchmark.

The library is not changed. For the traced phase only, each hook below
replaces one rcgraph function with a wrapper that records a span (name,
self time) and the layer's counters, then calls the original. The
replacement is applied to the defining module and to every other rcgraph
module that imported the same function object by name (for example
``rcgraph.sweep.gnp_generate``), and to the lazy ``Graph`` views. Every
replaced binding is restored when the traced phase ends.

A hook whose target no longer exists is skipped; a layer whose hooks are
all skipped is reported as absent, so that refactors which fold or
rename functions do not break the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator


class Tracer:
    """In-memory span stack with per-name call counts, self time and counters.

    A span's self time is its duration minus the time covered by the spans
    it caused (its direct children).
    """

    def __init__(self) -> None:
        self._stack: list[list[Any]] = []  # [name, start, child seconds]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)

    def enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def exit(self) -> None:
        name, start, child = self._stack.pop()
        duration = time.perf_counter() - start
        self.calls[name] += 1
        self.self_s[name] += duration - child
        if self._stack:
            self._stack[-1][2] += duration

    def add(self, counter: str, amount: float) -> None:
        self.counters[counter] += amount

    def at_least(self, counter: str, value: float) -> None:
        self.maxima[counter] = max(self.maxima[counter], value)

    def spanned_s(self) -> float:
        """Total time inside any span (the sum of all self times)."""
        return sum(self.self_s.values())


Record = Callable[[Tracer, dict, Any], None]


@dataclass(frozen=True)
class Hook:
    """One wrapped function. ``span`` None means count only: the time
    stays with the enclosing span."""

    layer: str
    module: str
    attr: str
    span: str | None
    record: Record | None = None


def _gnp_edges(t: Tracer, call: dict, result) -> None:
    t.add("graphs.gnp_generate.edges", getattr(result, "m", 0))


def _grow_certificates(t: Tracer, call: dict, result) -> None:
    if getattr(result, "paths", ()):
        t.add("construct.grow.certificates", 1)


def _rainbow_k_color_attempts(t: Tracer, call: dict, result) -> None:
    t.add("construct.rainbow_k_color.attempts", getattr(result, "attempts_used", 0))
    if type(result).__name__ == "RainbowColoring":
        t.add("construct.rainbow_k_color.accepted", 1)


def _matrix_route(t: Tracer, call: dict, result) -> None:
    t.add("rainbow.verify.matrix_calls", 1)
    g, col, k = call.get("g"), call.get("col"), call.get("k")
    if g is None or col is None or k is None or k < 2:
        return
    # k >= 2 runs adjacency @ adjacency plus one plane @ plane per color.
    t.add("rainbow.matmul.gflop", (1 + col.c) * 2.0 * g.n**3 / 1e9)
    if col.c > 2:
        t.add("rainbow.fallback.considered", g.n * (g.n - 1) / 2)


def _pairs_route(t: Tracer, call: dict, result) -> None:
    t.add("rainbow.verify.pairs_calls", 1)


def _plane_bytes(t: Tracer, call: dict, result) -> None:
    g, col = call.get("g"), call.get("col")
    if g is not None and col is not None:
        t.at_least("rainbow.color_planes.mb", col.c * g.n * g.n * 4 / 1e6)


def _reach_matmuls(t: Tracer, call: dict, result) -> None:
    planes = call.get("planes")
    if planes is None:
        return
    c, n = planes.shape[0], planes.shape[1]
    # c = 2: one product; c >= 3: one product per (subset, member) pair.
    products = 0 if c == 1 else 1 if c == 2 else c * 2 ** (c - 1)
    t.add("rainbow.matmul.gflop", products * 2.0 * n**3 / 1e9)


def _paths_found(t: Tracer, call: dict, result) -> None:
    t.add("rainbow.fallback.paths", len(result))


def _cells(t: Tracer, call: dict, result) -> None:
    t.add("sweep.cells", 1)


def _trials(t: Tracer, call: dict, result) -> None:
    t.add("sweep.trials_run", 1)


HOOKS: tuple[Hook, ...] = (
    Hook("graphs.gnp_generate", "rcgraph.graphs", "gnp_generate", "graphs.gnp_generate", _gnp_edges),
    Hook("graphs.diameter", "rcgraph.graphs", "diameter", "graphs.diameter"),
    Hook("graphs.connectivity", "rcgraph.graphs", "vertex_connectivity_at_least", "graphs.connectivity"),
    Hook("graphs.maxflow", "rcgraph.graphs", "_disjoint_paths_at_least", "graphs.maxflow"),
    Hook("construct.color_random", "rcgraph.construct", "rainbow_color_random", "construct.color_random"),
    Hook("construct.grow", "rcgraph.construct", "grow_disjoint_paths", "construct.grow", _grow_certificates),
    Hook("construct.rainbow_k_color", "rcgraph.construct", "rainbow_k_color", None, _rainbow_k_color_attempts),
    Hook("rainbow.verify", "rcgraph.rainbow", "is_rainbow_k_connected", "rainbow.verify"),
    Hook("rainbow.verify", "rcgraph.rainbow", "_verify_matrix", None, _matrix_route),
    Hook("rainbow.verify", "rcgraph.rainbow", "_verify_pairs", None, _pairs_route),
    Hook("rainbow.color_planes", "rcgraph.rainbow", "_color_planes", "rainbow.color_planes", _plane_bytes),
    Hook("rainbow.reach", "rcgraph.rainbow", "_rainbow_reach", "rainbow.reach", _reach_matmuls),
    Hook("rainbow.fallback", "rcgraph.rainbow", "max_disjoint_rainbow_paths", "rainbow.fallback"),
    Hook("rainbow.fallback", "rcgraph.rainbow", "enumerate_rainbow_paths", None, _paths_found),
    Hook("sweep", "rcgraph.sweep", "run_threshold_sweep", "sweep.driver"),
    Hook("sweep", "rcgraph.sweep", "run_growth_census", "sweep.driver"),
    Hook("sweep", "rcgraph.sweep", "run_cell", None, _cells),
    Hook("sweep", "rcgraph.sweep", "run_trial", None, _trials),
)

VIEWS_LAYER = "graphs.views"


def _wrap(tracer: Tracer, hook: Hook, original: Callable) -> Callable:
    signature = None
    if hook.record is not None:
        try:
            signature = inspect.signature(original)
        except (TypeError, ValueError):
            signature = None

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if hook.span is not None:
            tracer.enter(hook.span)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.exit()
        else:
            result = original(*args, **kwargs)
        if hook.record is not None:
            call: dict = {}
            if signature is not None:
                try:
                    call = dict(signature.bind(*args, **kwargs).arguments)
                except TypeError:
                    call = {}
            hook.record(tracer, call, result)
        return result

    return wrapper


def _view(tracer: Tracer, func: Callable) -> Callable:
    @functools.wraps(func)
    def build(self):
        tracer.enter(VIEWS_LAYER)
        try:
            return func(self)
        finally:
            tracer.exit()

    return build


def _rcgraph_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "rcgraph" or name.startswith("rcgraph."))]


@contextmanager
def installed(tracer: Tracer, hooks: tuple[Hook, ...] = HOOKS) -> Iterator[list[str]]:
    """Install every hook for the duration of the block.

    Yields the hooks whose target is missing, as ``layer:module.attr``; a
    layer is absent when all of its hooks are. Every replaced binding is
    restored on exit, also when the block raises.
    """
    patches: list[tuple[object, str, object]] = []
    missing: list[str] = []
    try:
        modules = _rcgraph_modules()
        for hook in hooks:
            try:
                module = importlib.import_module(hook.module)
            except ImportError:
                module = None
            original = getattr(module, hook.attr, None)
            if not callable(original):
                missing.append(f"{hook.layer}:{hook.module}.{hook.attr}")
                continue
            wrapper = _wrap(tracer, hook, original)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        patches.append((mod, name, original))
                        setattr(mod, name, wrapper)
        graph_cls = getattr(sys.modules.get("rcgraph.graphs"), "Graph", None)
        views = [(name, prop) for name, prop in vars(graph_cls or object).items()
                 if isinstance(prop, functools.cached_property)]
        if not views:
            missing.append(f"{VIEWS_LAYER}:rcgraph.graphs.Graph cached views")
        for name, prop in views:
            replacement = functools.cached_property(_view(tracer, prop.func))
            replacement.__set_name__(graph_cls, name)
            patches.append((graph_cls, name, prop))
            setattr(graph_cls, name, replacement)
        yield missing
    finally:
        for owner, name, original in reversed(patches):
            setattr(owner, name, original)


def layer_metrics(tracer: Tracer, items: int, traced_s: float, untraced_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per traced item; ``*.ms`` values are self times."""
    per = 1.0 / max(items, 1)

    def calls(span: str) -> float:
        return tracer.calls.get(span, 0) * per

    def ms(span: str) -> float:
        return tracer.self_s.get(span, 0.0) * 1e3 * per

    def counted(name: str) -> float:
        return tracer.counters.get(name, 0.0) * per

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    c = tracer.counters
    out = {
        "graphs.gnp_generate.calls": (calls("graphs.gnp_generate"), "count/item"),
        "graphs.gnp_generate.ms": (ms("graphs.gnp_generate"), "ms/item"),
        "graphs.gnp_generate.edges": (counted("graphs.gnp_generate.edges"), "count/item"),
        "graphs.views.builds": (calls(VIEWS_LAYER), "count/item"),
        "graphs.views.ms": (ms(VIEWS_LAYER), "ms/item"),
        "graphs.diameter.calls": (calls("graphs.diameter"), "count/item"),
        "graphs.diameter.ms": (ms("graphs.diameter"), "ms/item"),
        "graphs.connectivity.calls": (calls("graphs.connectivity"), "count/item"),
        "graphs.connectivity.ms": (ms("graphs.connectivity"), "ms/item"),
        "graphs.maxflow.flows": (calls("graphs.maxflow"), "count/item"),
        "graphs.maxflow.ms": (ms("graphs.maxflow"), "ms/item"),
        "construct.color_random.calls": (calls("construct.color_random"), "count/item"),
        "construct.color_random.ms": (ms("construct.color_random"), "ms/item"),
        "construct.grow.calls": (calls("construct.grow"), "count/item"),
        "construct.grow.ms": (ms("construct.grow"), "ms/item"),
        "construct.grow.certificates": (counted("construct.grow.certificates"), "count/item"),
        "construct.rainbow_k_color.attempts": (counted("construct.rainbow_k_color.attempts"), "count/item"),
        "construct.rainbow_k_color.accept_ratio": (
            ratio(c.get("construct.rainbow_k_color.accepted", 0.0),
                  c.get("construct.rainbow_k_color.attempts", 0.0)), "ratio"),
        "rainbow.verify.calls": (calls("rainbow.verify"), "count/item"),
        "rainbow.verify.ms": (ms("rainbow.verify"), "ms/item"),
        "rainbow.verify.matrix_calls": (counted("rainbow.verify.matrix_calls"), "count/item"),
        "rainbow.verify.pairs_calls": (counted("rainbow.verify.pairs_calls"), "count/item"),
        "rainbow.color_planes.ms": (ms("rainbow.color_planes"), "ms/item"),
        "rainbow.color_planes.mb": (tracer.maxima.get("rainbow.color_planes.mb", 0.0), "MB"),
        "rainbow.reach.ms": (ms("rainbow.reach"), "ms/item"),
        "rainbow.matmul.gflop": (counted("rainbow.matmul.gflop"), "GFLOP/item"),
        "rainbow.fallback.pairs": (calls("rainbow.fallback"), "count/item"),
        "rainbow.fallback.ms": (ms("rainbow.fallback"), "ms/item"),
        "rainbow.fallback.paths": (counted("rainbow.fallback.paths"), "count/item"),
        "rainbow.fallback.open_ratio": (
            ratio(tracer.calls.get("rainbow.fallback", 0),
                  c.get("rainbow.fallback.considered", 0.0)), "ratio"),
        "sweep.cells": (counted("sweep.cells"), "count/item"),
        "sweep.trials_run": (counted("sweep.trials_run"), "count/item"),
        "sweep.driver.ms": (ms("sweep.driver"), "ms/item"),
        "trace.unattributed_ms": ((traced_s - tracer.spanned_s()) * 1e3 * per, "ms/item"),
        "trace.overhead_frac": (ratio(traced_s - untraced_s, traced_s), "ratio"),
    }
    return out
