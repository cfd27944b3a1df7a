"""Spans recorded from outside spdelab, and the per-layer arithmetic on them.

The benchmark never edits the package.  It replaces the public
module-level names through which the layers call each other (for
example `spdelab.degiorgi.lpq_norm`, which `truncation_energy` looks up
at call time) with wrappers that record one span per call, and it wraps
the `a` and `g` callables of every model built through `build_model`.
Wrappers return exactly what the wrapped call returns, so a traced run
writes the same result files as an untraced one.

A span is (id, name, start, end, parent id, thread).  Spans stay in
memory until the traced iteration ends.  A span's self time is its
duration minus the part of it that its child spans cover, wherever those
children run.  Spans of one thread nest, so the self times of one thread
add up to the time that thread spent in traced calls, which is no more
than the wall time it was traced over.
"""
from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from collections import defaultdict
from dataclasses import replace

# spans under which a `g` evaluation counts as post-processing rather than
# as part of a time step
POST_PREFIXES = ("solver.qv_check", "degiorgi.", "jn.")


class Tracer:
    """Collects spans and counters; safe to call from worker threads."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main_stack = self._stack()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str):
        stack = self._stack()
        # a worker thread's first span hangs under whatever the main thread
        # was doing when it handed out the work
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        sid = next(self._ids)
        stack.append(sid)
        return sid, name, parent, threading.get_ident(), time.perf_counter()

    def exit(self, token):
        end = time.perf_counter()
        sid, name, parent, thread, start = token
        self._stack().pop()
        self.spans.append((sid, name, start, end, parent, thread))

    def add(self, counter: str, value: int):
        with self._lock:
            self.counts[counter] += int(value)

    def reset(self):
        self.spans = []
        self.counts = defaultdict(int)

    def wrap(self, name: str, fn, after=None):
        """fn recorded as a span called `name`; after(result, args, kwargs)
        updates counters once the call has returned."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(token)
            if after is not None:
                after(result, args, kwargs)
            return result

        return traced


# ---------------------------------------------------------------------------
# self time

def self_times(spans) -> dict:
    """Self time per span id: duration minus the union of its children."""
    children = defaultdict(list)
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _, start, end, _, _ in spans:
        covered, cur = 0.0, start
        for a, b in sorted(children.get(sid, ())):
            a, b = max(a, cur), min(b, end)
            if b > a:
                covered += b - a
                cur = b
        out[sid] = (end - start) - covered
    return out


def self_by_thread(spans, selfs) -> dict:
    """Sum of the self times of each thread's spans."""
    out = defaultdict(float)
    for sid, _, _, _, _, thread in spans:
        out[thread] += selfs[sid]
    return out


# ---------------------------------------------------------------------------
# per-layer metrics

# (metric, unit, kind, span name); kind "self" sums self times, "busy" sums
# durations, "calls" counts spans
SPAN_METRICS = [
    ("solver.integrate_batch.self_s", "s", "self", "solver.integrate_batch"),
    ("solver.lu_solve.s", "s", "busy", "solver.lu_solve"),
    ("solver.lu_solve.calls", "count", "calls", "solver.lu_solve"),
    ("solver.factorize.s", "s", "busy", "solver.factorize"),
    ("solver.factorize.calls", "count", "calls", "solver.factorize"),
    ("solver.a_eval.s", "s", "busy", "solver.a_eval"),
    ("solver.a_eval.calls", "count", "calls", "solver.a_eval"),
    ("solver.draw_increments.s", "s", "busy", "solver.draw_increments"),
    ("solver.qv_check.self_s", "s", "self", "solver.qv_check"),
    ("montecarlo.run_ensemble.self_s", "s", "self", "montecarlo.run_ensemble"),
    ("montecarlo.consumers.s", "s", "busy", "montecarlo.consumers"),
    ("montecarlo.estimators.s", "s", "busy", "montecarlo.estimators"),
    ("montecarlo.comparison_experiment.self_s", "s", "self",
     "montecarlo.comparison_experiment"),
    ("degiorgi.iteration_trace.self_s", "s", "self", "degiorgi.iteration_trace"),
    ("degiorgi.truncation_energy.s", "s", "busy", "degiorgi.truncation_energy"),
    ("degiorgi.martingale_sup.s", "s", "busy", "degiorgi.martingale_sup"),
    ("degiorgi.windowed_qv.s", "s", "busy", "degiorgi.windowed_qv"),
    ("jn.log_field.s", "s", "busy", "jn.log_field"),
    ("jn.levelset_fractions.s", "s", "busy", "jn.levelset_fractions"),
    ("jn.moment_tail_value.s", "s", "busy", "jn.moment_tail_value"),
    ("jn.cube_stats.s", "s", "busy", "jn.cube_stats"),
    ("fields.lpq_norm.s", "s", "busy", "fields.lpq_norm"),
    ("fields.lpq_norm.calls", "count", "calls", "fields.lpq_norm"),
    ("fields.sup_on.s", "s", "busy", "fields.sup_on"),
    ("geometry.cover_cylinder.s", "s", "busy", "geometry.cover_cylinder"),
    ("cubes.build_core.s", "s", "busy", "cubes.build_core"),
    ("cubes.build_extended.s", "s", "busy", "cubes.build_extended"),
    ("cli.main.self_s", "s", "self", "cli.main"),
    ("cli.write_csv.s", "s", "busy", "cli.write_csv"),
]

# counters kept by the wrappers: (metric, unit)
COUNTERS = [
    ("solver.node_steps", "count"),
    ("solver.history_bytes", "bytes"),
    ("montecarlo.paths_failed", "count"),
    ("geometry.anchors", "count"),
    ("cubes.cubes", "count"),
    ("cli.write_csv.bytes", "bytes"),
]

# `g` evaluations split by the nearest enclosing step or post-processing span
G_METRICS = [
    ("solver.g_eval.step_s", "s"),
    ("solver.g_eval.step_calls", "count"),
    ("solver.g_eval.post_s", "s"),
    ("solver.g_eval.post_calls", "count"),
    ("degiorgi.g_eval.calls", "count"),
    ("jn.g_eval.calls", "count"),
]


def layer_metrics(spans, counts) -> dict:
    """Every per-layer metric of one traced iteration, by metric name."""
    selfs = self_times(spans)
    by_name = defaultdict(lambda: [0.0, 0.0, 0])  # self, busy, calls
    for sid, name, start, end, _, _ in spans:
        acc = by_name[name]
        acc[0] += selfs.get(sid, 0.0)
        acc[1] += end - start
        acc[2] += 1
    out = {}
    for metric, _, kind, name in SPAN_METRICS:
        self_s, busy_s, calls = by_name.get(name, (0.0, 0.0, 0))
        out[metric] = {"self": self_s, "busy": busy_s, "calls": calls}[kind]
    for metric, _ in COUNTERS:
        out[metric] = counts.get(metric, 0)
    out.update(_g_split(spans))
    out["trace.self_total_s"] = sum(selfs.values())
    out["trace.self_max_thread_s"] = max(self_by_thread(spans, selfs).values(), default=0.0)
    return out


def _g_split(spans) -> dict:
    name_of = {sid: name for sid, name, *_ in spans}
    parent_of = {sid: parent for sid, _, _, _, parent, _ in spans}
    out = {metric: 0 for metric, _ in G_METRICS}
    out["solver.g_eval.step_s"] = out["solver.g_eval.post_s"] = 0.0
    for sid, name, start, end, parent, _ in spans:
        if name != "solver.g_eval":
            continue
        kind = None
        in_degiorgi = in_jn = False
        p = parent
        while p is not None:
            pname = name_of.get(p, "")
            in_degiorgi |= pname.startswith("degiorgi.")
            in_jn |= pname.startswith("jn.")
            if kind is None:
                if pname == "solver.integrate_batch":
                    kind = "step"
                elif pname.startswith(POST_PREFIXES):
                    kind = "post"
            p = parent_of.get(p)
        if kind is not None:
            out[f"solver.g_eval.{kind}_s"] += end - start
            out[f"solver.g_eval.{kind}_calls"] += 1
        out["degiorgi.g_eval.calls"] += in_degiorgi
        out["jn.g_eval.calls"] += in_jn
    return out


# ---------------------------------------------------------------------------
# installing the wrappers

class _TracedFactor:
    """The object splu returns, with `solve` recorded as a span."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


def _traced_model(tracer, cm):
    # a stays None for the identity coefficient and a_deps is untouched:
    # the integrator branches on both
    a = None if cm.a is None else tracer.wrap("solver.a_eval", cm.a)
    g = None if cm.g is None else tracer.wrap("solver.g_eval", cm.g)
    return replace(cm, a=a, g=g)


def _targets(tracer, spdelab_modules):
    """(module, attribute, original, wrapper) for every binding to replace."""
    mods = {m.__name__.rsplit(".", 1)[-1]: m for m in spdelab_modules}
    solver, montecarlo = mods["solver"], mods["montecarlo"]

    def node_steps(result, args, kwargs):
        u0b, times = args[3], args[4]
        batch, size = u0b.shape
        steps = times.size - 1
        tracer.add("solver.node_steps", batch * steps * size)
        if kwargs.get("keep_history", args[6] if len(args) > 6 else False):
            tracer.add("solver.history_bytes", batch * (steps + 1) * size * 8)

    def factorize(fn):
        traced = tracer.wrap("solver.factorize", fn)

        def traced_splu(*args, **kwargs):
            lu = traced(*args, **kwargs)
            return _TracedFactor(lu, tracer.wrap("solver.lu_solve", lu.solve))
        return traced_splu

    def model(fn):
        return functools.wraps(fn)(lambda *a, **k: _traced_model(tracer, fn(*a, **k)))

    def run_ensemble(fn):
        def traced(spec, consumers=(), threads=1):
            consumers = [tracer.wrap("montecarlo.consumers", c) for c in consumers]
            return fn(spec, consumers=consumers, threads=threads)
        return tracer.wrap("montecarlo.run_ensemble", traced,
                           lambda ens, a, k: tracer.add("montecarlo.paths_failed",
                                                        int(ens.failed.sum())))

    def counter(name, value):
        return lambda result, args, kwargs: tracer.add(name, value(result, args))

    spans = {
        # layer: (span name, after-hook)
        solver.integrate_batch: ("solver.integrate_batch", node_steps),
        solver.draw_increments: ("solver.draw_increments", None),
        solver.qv_check: ("solver.qv_check", None),
        montecarlo.comparison_experiment: ("montecarlo.comparison_experiment", None),
        montecarlo.median_sup: ("montecarlo.estimators", None),
        montecarlo.harnack_curve: ("montecarlo.estimators", None),
        montecarlo.indicator_monotonicity: ("montecarlo.estimators", None),
        montecarlo.positivity_scan: ("montecarlo.estimators", None),
        mods["degiorgi"].iteration_trace: ("degiorgi.iteration_trace", None),
        mods["degiorgi"].truncation_energy: ("degiorgi.truncation_energy", None),
        mods["degiorgi"].martingale_sup: ("degiorgi.martingale_sup", None),
        mods["degiorgi"].windowed_qv: ("degiorgi.windowed_qv", None),
        mods["jn"].log_field: ("jn.log_field", None),
        mods["jn"].levelset_fractions: ("jn.levelset_fractions", None),
        mods["jn"].moment_tail_value: ("jn.moment_tail_value", None),
        mods["jn"].cube_stats: ("jn.cube_stats", None),
        mods["fields"].lpq_norm: ("fields.lpq_norm", None),
        mods["fields"].sup_on: ("fields.sup_on", None),
        mods["geometry"].cover_cylinder: (
            "geometry.cover_cylinder", counter("geometry.anchors", lambda r, a: len(r))),
        mods["cubes"].build_core: (
            "cubes.build_core", counter("cubes.cubes", lambda r, a: r.total)),
        mods["cubes"].build_extended: (
            "cubes.build_extended", counter("cubes.cubes", lambda r, a: r.total)),
        mods["cli"].main: ("cli.main", None),
        mods["cli"].write_csv: (
            "cli.write_csv", counter("cli.write_csv.bytes", lambda r, a: os.path.getsize(a[0]))),
    }
    replacements = {id(fn): tracer.wrap(name, fn, after) for fn, (name, after) in spans.items()}
    replacements[id(solver.splu)] = factorize(solver.splu)
    replacements[id(montecarlo.build_model)] = model(montecarlo.build_model)
    replacements[id(montecarlo.run_ensemble)] = run_ensemble(montecarlo.run_ensemble)

    # rebind every module global that holds one of the wrapped objects, so
    # callers that imported a name by value see the wrapper too
    out = []
    for mod in spdelab_modules:
        for attr, value in list(vars(mod).items()):
            if id(value) in replacements:
                out.append((mod, attr, value, replacements[id(value)]))
    return out


class installed:
    """Context manager that swaps the wrappers in and restores the originals."""

    def __init__(self, tracer, spdelab_modules):
        self.bindings = _targets(tracer, spdelab_modules)

    def __enter__(self):
        for mod, attr, _, wrapper in self.bindings:
            setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, attr, original, _ in self.bindings:
            setattr(mod, attr, original)
        return False
