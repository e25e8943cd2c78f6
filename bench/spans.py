"""Per-layer tracing of layerpot from outside the program.

``install(tracer)`` wraps the public functions of each module.  Modules
import one another's functions by name (``from .geometry import
composite_volume_rule``) and reach methods through instances, so every
binding a caller looks up is replaced: each module-level name in any loaded
``layerpot`` module that refers to the original function, and the class
attribute for methods.

A span is one call of a wrapped function.  Spans nest per thread; a span's
self time is its wall time minus the wall time of the spans it caused, and
its CPU time is the thread CPU time of that self part, so self minus CPU is
time spent waiting for a core or the interpreter lock.  Only aggregates are
kept in memory; ``layer_metrics`` turns them into the reported metrics.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from collections import defaultdict

import numpy as np

from layerpot import bounds, fields, geometry, kernel, poisson, potentials, representations
from layerpot.harness import cli, runner

RULE_CONSUMERS = {
    "potentials.gradient_volume_integral": "composite_volume_rule",
    "potentials.double_layer": "boundary_rule",
}

POTENTIALS = (
    "double_layer",
    "double_layer_batch",
    "gradient_volume_integral",
    "boundary_limit_zeta",
    "jump_relation_check",
    "newtonian_integrals",
)

CHECKS = (
    "check_f1",
    "check_fig",
    "check_ball_corollaries",
    "check_rp",
    "check_c2_exterior",
    "check_f2_f3",
    "check_grr",
    "check_green_riemann",
)


def _points(x) -> int:
    a = np.asarray(x)
    return 1 if a.ndim <= 1 else int(a.shape[0])


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self.stats: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.distinct: dict[str, set] = defaultdict(set)

    def add(self, name: str, **counts) -> None:
        with self._lock:
            stat = self.stats[name]
            for key, value in counts.items():
                stat[key] += value

    def maximum(self, name: str, key: str, value: float) -> None:
        with self._lock:
            stat = self.stats[name]
            stat[key] = max(stat[key], value)

    def parent(self) -> str | None:
        """Name of the innermost open span on this thread."""
        stack = getattr(self._local, "stack", None)
        return stack[-1][0] if stack else None

    def wrap(self, name: str, fn, count=None):
        """``fn`` recording one span per call; ``count(args, kwargs, result)``
        adds work counts after a call that returned."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            frame = [name, 0.0, 0.0]  # name, child wall, child cpu
            stack.append(frame)
            w0, c0 = time.perf_counter(), time.thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                wall, cpu = time.perf_counter() - w0, time.thread_time() - c0
                stack.pop()
                if stack:
                    stack[-1][1] += wall
                    stack[-1][2] += cpu
                self.add(name, calls=1, wall_s=wall, self_s=wall - frame[1], cpu_s=cpu - frame[2])
            if count is not None:
                count(args, kwargs, result)
            return result

        return traced

    def wrap_function(self, module, attr: str, name: str, count=None) -> None:
        """Replace every binding of ``module.attr`` in the loaded layerpot modules."""
        original = getattr(module, attr)
        traced = self.wrap(name, original, count)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "layerpot" or mod_name.startswith("layerpot.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)

    def wrap_method(self, cls, attr: str, name: str, count=None) -> None:
        setattr(cls, attr, self.wrap(name, cls.__dict__[attr], count))


def install(tracer: Tracer) -> None:
    """Wrap every traced layer; call before the CLI runs."""

    def points_of(arg_index, name):
        def count(args, kwargs, result):
            tracer.add(name, points=_points(args[arg_index]))

        return count

    def rule_nodes(name, layer):
        def count(args, kwargs, result):
            tracer.add(name, nodes=len(result.weights))
            parent = tracer.parent()
            if RULE_CONSUMERS.get(parent) == layer:
                arrays = [result.nodes, result.weights] + ([result.normals] if hasattr(result, "normals") else [])
                tracer.add(parent, kernel_evals=len(result.weights), bytes_computed=sum(a.nbytes for a in arrays))

        return count

    volume_signature = inspect.signature(geometry.composite_volume_rule)
    volume_count = rule_nodes("geometry.composite_volume_rule", "composite_volume_rule")

    def volume_rule_count(args, kwargs, result):
        volume_count(args, kwargs, result)
        bound = volume_signature.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        holes = tuple(
            (tuple(np.asarray(hc, dtype=float).ravel()), float(hr), float(hp)) for hc, hr, hp in a["holes"]
        )
        key = (
            repr(a["domain"]),
            a["order"],
            tuple(np.asarray(a["center"], dtype=float).ravel()),
            a["kernel_power"],
            a["log_kernel"],
            holes,
        )
        with tracer._lock:
            tracer.distinct["geometry.composite_volume_rule"].add(key)

    def ray_count(args, kwargs, result):
        tracer.add("geometry.ray_segments", rays=len(np.atleast_2d(args[2])), reentrant=len(result[1]))

    def escalation_count(args, kwargs, result):
        eff = result[0]
        tracer.add("geometry.escalated_order", escalated=int(eff != args[1]))
        tracer.maximum("geometry.escalated_order", "max_order", eff)

    def batch_count(args, kwargs, result):
        tracer.add("potentials.double_layer_batch", targets=len(result))

    def check_count(name):
        def count(args, kwargs, result):
            reports = result if isinstance(result, (list, tuple)) else [result]
            tracer.add(name, rows=len(reports))
            for rep in reports:
                if rep.tolerance > 0:
                    tracer.maximum("representations", "max_residual_ratio", rep.residual / rep.tolerance)

        return count

    tracer.wrap_function(kernel, "fundamental_solution", "kernel.fundamental_solution", points_of(0, "kernel.fundamental_solution"))
    tracer.wrap_function(geometry, "composite_volume_rule", "geometry.composite_volume_rule", volume_rule_count)
    tracer.wrap_function(geometry, "escalated_order", "geometry.escalated_order", escalation_count)
    tracer.wrap_method(geometry.StarShaped2D, "ray_segments", "geometry.ray_segments", ray_count)
    for cls in (geometry.Ball, geometry.StarShaped2D):
        tracer.wrap_method(cls, "boundary_rule", "geometry.boundary_rule", rule_nodes("geometry.boundary_rule", "boundary_rule"))
    for method in ("gradient", "evaluate"):
        name = f"fields.ScalarField.{method}"
        tracer.wrap_method(fields.ScalarField, method, name, points_of(1, name))
    tracer.wrap_function(fields, "grad_norm", "fields.grad_norm")
    for fn in POTENTIALS:
        tracer.wrap_function(potentials, fn, f"potentials.{fn}", batch_count if fn == "double_layer_batch" else None)
    for fn in ("dirichlet_chi", "poisson_evaluate"):
        tracer.wrap_function(poisson, fn, f"poisson.{fn}")
    for fn in CHECKS:
        tracer.wrap_function(representations, fn, f"representations.{fn}", check_count(f"representations.{fn}"))
    for fn in ("ostrowski_bound_general", "ostrowski_bound_ball"):
        tracer.wrap_function(bounds, fn, f"bounds.{fn}")
    tracer.wrap_function(cli, "_load_config", "harness.config")
    tracer.wrap_function(cli, "write_report", "harness.report")

    run_tasks = runner._run_tasks

    def timed_task(task):
        def run():
            c0 = time.thread_time()
            try:
                return task()
            finally:
                tracer.add("harness.tasks", cpu_s=time.thread_time() - c0, calls=1)

        return run

    @functools.wraps(run_tasks)
    def dispatch(tasks, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return run_tasks([timed_task(t) for t in tasks], *args, **kwargs)
        finally:
            tracer.add("harness.dispatch", wall_s=time.perf_counter() - t0, calls=1)

    runner._run_tasks = dispatch


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced run, by name."""
    s = tracer.stats
    out: dict[str, float] = {}

    def put(layer, *fields_):
        for f in fields_:
            out[f"{layer}.{f}"] = float(s[layer][f])

    def ratio(num, den):
        return float(num) / den if den else 0.0

    put("kernel.fundamental_solution", "calls", "points", "self_s")
    for layer in RULE_CONSUMERS:
        put(layer, "kernel_evals", "bytes_computed")
    cvr = "geometry.composite_volume_rule"
    put(cvr, "calls", "self_s", "cpu_s", "nodes")
    out[f"{cvr}.distinct_ratio"] = ratio(len(tracer.distinct[cvr]), s[cvr]["calls"])
    rays = "geometry.ray_segments"
    put(rays, "calls", "self_s", "rays")
    out[f"{rays}.reentrant_ratio"] = ratio(s[rays]["reentrant"], s[rays]["rays"])
    put("geometry.boundary_rule", "calls", "self_s", "nodes")
    esc = "geometry.escalated_order"
    put(esc, "calls", "max_order")
    out[f"{esc}.escalated_ratio"] = ratio(s[esc]["escalated"], s[esc]["calls"])
    for method in ("gradient", "evaluate"):
        put(f"fields.ScalarField.{method}", "calls", "points", "self_s")
    put("fields.grad_norm", "calls", "self_s")
    for fn in POTENTIALS:
        put(f"potentials.{fn}", "calls", "self_s", "cpu_s")
    put("potentials.double_layer_batch", "targets")
    for fn in ("dirichlet_chi", "poisson_evaluate"):
        put(f"poisson.{fn}", "calls", "self_s")
    for fn in CHECKS:
        put(f"representations.{fn}", "calls", "self_s", "rows")
    out["representations.max_residual_ratio"] = float(s["representations"]["max_residual_ratio"])
    for fn in ("ostrowski_bound_general", "ostrowski_bound_ball"):
        put(f"bounds.{fn}", "calls", "self_s")
    dispatch_s = s["harness.dispatch"]["wall_s"]
    out["harness.config_s"] = float(s["harness.config"]["wall_s"])
    out["harness.dispatch_s"] = float(dispatch_s)
    out["harness.task_cpu_s"] = float(s["harness.tasks"]["cpu_s"])
    out["harness.concurrency"] = ratio(s["harness.tasks"]["cpu_s"], dispatch_s)
    out["harness.report_s"] = float(s["harness.report"]["wall_s"])
    return out
