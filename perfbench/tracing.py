"""Span tracing installed from outside the library.

The benchmark wraps public functions of every ``openpoint`` module in the
module namespaces that bind them, so calls made inside the library are
traced too.  Spans are aggregated in memory per name: call count, total
time and self time (the span's duration minus the part its child spans
cover).  Nothing is installed in an untraced run.
"""

from __future__ import annotations

import functools
import gc
import inspect
import sys
import time
from collections import Counter, defaultdict


class Tracer:
    """Aggregates nested spans by name; ``clock`` is injectable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[list] = []  # [name, start, time covered by children]
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.top_s = 0.0  # summed duration of spans with no parent

    def enter(self, name: str) -> None:
        self.stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        name, start, covered = self.stack.pop()
        dur = self.clock() - start
        self.total_s[name] += dur
        self.self_s[name] += dur - covered
        if self.stack:
            self.stack[-1][2] += dur
        else:
            self.top_s += dur

    def span(self, name: str, fn, *args, **kwargs):
        self.calls[name] += 1
        self.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.exit()

    def metrics(self) -> dict:
        """Flat ``<span>.calls|self_s|s`` plus named counts."""
        out: dict = {}
        for name in set(self.calls) | set(self.self_s):
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
            out[f"{name}.s"] = self.total_s[name]
        out.update(self.counts)
        return out


def wrap(tracer: Tracer, name: str, fn, count=None):
    """A traced stand-in for ``fn`` that returns exactly what ``fn`` returns.

    ``count(args, kwargs, result)`` may add named counts.  A generator
    function is traced per resumption, so the span covers the work done
    while the caller iterates, and counts one call per generator.
    """
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            it = fn(*args, **kwargs)
            while True:
                tracer.enter(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer.exit()
                yield item

        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.calls[name] += 1
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if count is not None:
            count(args, kwargs, result)
        return result

    return wrapper


class Installation:
    """Replaces library functions by traced wrappers; ``remove`` undoes it."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.undo: list = []

    def patch(self, module, attr: str, name: str, count=None, make=None):
        """Wrap ``module.attr`` in every openpoint module that binds it."""
        original = getattr(module, attr)
        traced = (make or wrap)(self.tracer, name, original, count)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "openpoint" or mod_name.startswith("openpoint.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self.undo.append((mod, key, value))
                    setattr(mod, key, traced)
        return traced

    def patch_registry(self, registry: dict, prefix: str):
        for key, fn in list(registry.items()):
            self.undo.append((registry, key, fn))
            registry[key] = wrap(self.tracer, f"{prefix}.{key}", fn)

    def watch_gc(self):
        tracer = self.tracer
        started = []

        def on_gc(phase, info):
            if phase == "start":
                started.append(tracer.clock())
            elif started:
                tracer.counts["python.gc.collections"] += 1
                tracer.counts["python.gc.s"] += tracer.clock() - started.pop()

        gc.callbacks.append(on_gc)
        self.undo.append((gc.callbacks, None, on_gc))

    def remove(self):
        for target, key, value in reversed(self.undo):
            if target is gc.callbacks:
                target.remove(value)
            elif isinstance(target, dict):
                target[key] = value
            else:
                setattr(target, key, value)
        self.undo.clear()


def _policy(tracer: Tracer, policy):
    """Trace the choose/observe calls of a chooser the library built."""
    if hasattr(policy, "choose"):
        policy.choose = wrap(tracer, "strategies.policy.choose", policy.choose)
        policy.observe = wrap(tracer, "strategies.policy.observe", policy.observe)
        return policy
    return wrap(tracer, "strategies.policy.choose", policy)


def install(tracer: Tracer) -> Installation:
    """Install spans and counts on every layer the benchmark reports."""
    from openpoint import enumeration, game, invariants, metric, products, space, strategies

    inst = Installation(tracer)
    counts = tracer.counts
    seen_products: set = set()

    def count_product(args, kwargs, result):
        factors = tuple(args[0] if args else kwargs["factors"])
        seen_products.add(tuple((f.name, f.point_labels, f.opens) for f in factors))
        counts["products.product.distinct"] = len(seen_products)
        counts["products.product.opens"] += len(result.space.opens)

    def count_fan(args, kwargs, result):
        counts["products.fan_tightness_check.cells"] += len(result.witness) + len(result.unknown_cells)
        counts["products.fan_tightness_check.unknown_cells"] += len(result.unknown_cells)

    inst.patch(products, "product", "products.product", count_product)
    inst.patch(products, "fan_tightness_check", "products.fan_tightness_check", count_fan)
    for attr in ("minimal_opens_via_preorder", "minimal_open_boxes", "sufficient_condition_check"):
        inst.patch(products, attr, f"products.{attr}")

    for attr in ("density", "density_brute", "pi_weight", "pi_weight_brute", "weight",
                 "weight_brute", "delta", "delta_oracle", "tightness", "invariant_report"):
        inst.patch(invariants, attr, f"invariants.{attr}")

    inst.patch(enumeration, "enumerate_labeled", "enumeration.enumerate_labeled")
    inst.patch(enumeration, "canonical_form", "enumeration.canonical_form")
    inst.patch_registry(enumeration.SPACE_CHECKS, "enumeration.check")
    inst.patch_registry(enumeration.PAIR_CHECKS, "enumeration.check")

    def add(key, amount_of):
        def count(args, kwargs, result):
            counts[key] += amount_of(args, result)
        return count

    inst.patch(space, "space_from_masks", "space.space_from_masks",
               add("space.space_from_masks.opens", lambda a, r: len(r.opens)))
    inst.patch(space, "closure", "space.closure",
               add("space.closure.opens_scanned", lambda a, r: len(a[0].opens)))
    inst.patch(space, "enumerate_upsets", "space.enumerate_upsets",
               add("space.enumerate_upsets.results", lambda a, r: len(r)))
    for attr in ("subspace", "minimal_opens", "load_space"):
        inst.patch(space, attr, f"space.{attr}")

    inst.patch(game, "solve_game", "game.solve_game",
               add("game.solve_game.states", lambda a, r: len(r.value)))
    for attr in ("exact_force_set", "evaluate_chooser", "run_game"):
        inst.patch(game, attr, f"game.{attr}")

    def make_value_function(tracer, name, fn, count):
        @functools.wraps(fn)
        def builder(*args, **kwargs):
            value = tracer.span(name, fn, *args, **kwargs)

            @functools.wraps(value)
            def evaluate(closed):
                counts["game.value_function.evals"] += 1
                tracer.enter(name)
                try:
                    return value(closed)
                finally:
                    tracer.exit()

            return evaluate

        return builder

    inst.patch(game, "value_function", "game.value_function", make=make_value_function)

    def make_builder(tracer, name, fn, count):
        @functools.wraps(fn)
        def builder(*args, **kwargs):
            return _policy(tracer, tracer.span(name, fn, *args, **kwargs))

        return builder

    for attr in ("aggregate_chooser", "product_chooser", "optimal_chooser", "pi_base_chooser"):
        inst.patch(strategies, attr, f"strategies.{attr}", make=make_builder)

    for attr in ("greedy_run_violations", "greedy_dense_sequence"):
        inst.patch(metric, attr, f"metric.{attr}")

    inst.watch_gc()
    return inst
