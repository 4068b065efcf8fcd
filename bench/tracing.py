"""Outside-in tracing of one freqlab CLI process.

The program is not edited.  ``install`` rebinds the public entry points
of each module to wrappers that record spans and counters, in every
freqlab module that bound them (``from ... import`` makes one binding
per importing module), and returns a function that restores every
original binding.  An entry point the program no longer has cannot be
wrapped: its name goes to ``Tracer.unwrapped`` and the ``trace.unwrapped``
metric counts it, so a metric that reads 0 for that reason does not pass
for a gain.

A span is ``[name, start, end, parent, thread]``; ``parent`` is the
index of the enclosing span on the same thread.  Spans stay in memory
until the run ends.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
import weakref
from collections import defaultdict

from workloads import SCENARIOS

# Every per-layer metric: (name, unit, better).  ``<span>.s`` is the
# self time of the spans of that name.
LAYER_METRICS = [
    ("coefficients.evaluate.mollified.points", "count", "lower"),
    ("coefficients.evaluate.mollified.s", "s", "lower"),
    ("coefficients.mollify.kernel_evals", "count", "lower"),
    ("coefficients.evaluate.other.points", "count", "lower"),
    ("coefficients.evaluate.other.s", "s", "lower"),
    ("coefficients.generate_holder.calls", "count", "lower"),
    ("coefficients.generate_holder.s", "s", "lower"),
    ("solver.splu.calls", "count", "lower"),
    ("solver.splu.s", "s", "lower"),
    ("solver.splu.fill_nnz", "count", "lower"),
    ("solver.splu.max_fill_nnz", "count", "lower"),
    ("solver.solve_dirichlet.calls", "count", "lower"),
    ("solver.solve_dirichlet.s", "s", "lower"),
    ("solver.unknowns", "count", "lower"),
    ("solver.residual_max", "ratio", "lower"),
    ("solver.cg.s", "s", "lower"),
    ("solver.cg.iterations", "count", "lower"),
    ("solver.operator_reuse.hits", "count", "higher"),
    ("solver.operator_reuse.misses", "count", "lower"),
    ("frequency.almgren_frequency.calls", "count", "lower"),
    ("frequency.almgren_frequency.radii", "count", "lower"),
    ("frequency.almgren_frequency.s", "s", "lower"),
    ("frequency.two_scale_frequency.s", "s", "lower"),
    ("growth.discrete_cascade.steps", "count", "lower"),
    ("growth.discrete_cascade.s", "s", "lower"),
    ("modulus.osgood_checks.s", "s", "lower"),
    *((f"experiments.{name}.s", "s", "lower") for name in SCENARIOS),
    ("experiments.certify_holder.s", "s", "lower"),
    ("experiments.errors", "count", "lower"),
    ("experiments.thread_wait_s", "s", "lower"),
    ("io.write.bytes", "count", "lower"),
    ("io.write.s", "s", "lower"),
    ("svg.render.s", "s", "lower"),
    ("other.s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.unwrapped", "count", "lower"),
]


class Tracer:
    """Spans and counters of one run, with one parent stack per thread."""

    def __init__(self):
        self.spans: list = []
        self.counters: dict = defaultdict(float)
        self.unwrapped: list = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def begin(self, name: str) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else None
        record = [name, time.perf_counter(), None, parent,
                  threading.get_ident()]
        with self._lock:
            stack.append(len(self.spans))
            self.spans.append(record)
        return record

    def end(self, record: list) -> None:
        record[2] = time.perf_counter()
        self._local.stack.pop()

    def add(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[name] += value

    def peak(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[name] = max(self.counters[name], value)


def self_times(spans: list) -> dict:
    """Self time per span name: each span's interval minus the part its
    child spans cover.  Where spans of several threads overlap, each
    instant is shared equally among the innermost spans open then, so
    the self times add up to the wall time that some span covers."""
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span[3] is not None:
            children[span[3]].append(index)
    # exclusive segments: a span's interval minus its children's
    segments = []
    for index, (name, start, end, _, _) in enumerate(spans):
        t = start
        for child in sorted(children[index], key=lambda c: spans[c][1]):
            if spans[child][1] > t:
                segments.append((t, spans[child][1], name))
            t = max(t, spans[child][2])
        if end > t:
            segments.append((t, end, name))
    events = sorted([(t0, 1, i) for i, (t0, _, _) in enumerate(segments)]
                    + [(t1, -1, i) for i, (_, t1, _) in enumerate(segments)])
    out: dict = defaultdict(float)
    active: set = set()
    last = None
    for t, kind, i in events:
        if active and t > last:
            share = (t - last) / len(active)
            for j in active:
                out[segments[j][2]] += share
        last = t
        if kind > 0:
            active.add(i)
        else:
            active.discard(i)
    return dict(out)


def install(tracer: Tracer):
    """Wrap the entry points of every loaded freqlab module; return the
    function that puts every original binding back."""
    import numpy as np

    modules = {name: mod for name, mod in list(sys.modules.items())
               if mod is not None and (name == "freqlab"
                                       or name.startswith("freqlab."))}
    restores: list = []

    def rebind(module_name: str, attr: str, make):
        module = modules.get(module_name)
        original = getattr(module, attr, None)
        if original is None:
            tracer.unwrapped.append(f"{module_name}.{attr}")
            return
        wrapper = functools.wraps(original)(make(original))
        for mod in modules.values():
            for key, value in list(vars(mod).items()):
                if value is original:
                    restores.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def timed(name: str, after=None):
        def make(original):
            def wrapper(*args, **kwargs):
                record = tracer.begin(name)
                try:
                    out = original(*args, **kwargs)
                finally:
                    tracer.end(record)
                if after is not None:
                    after(out)
                return out
            return wrapper
        return make

    # -- coefficients
    coefficients = modules.get("freqlab.coefficients")
    kernel_table = getattr(coefficients, "_kernel_table", None)
    if kernel_table is None:
        tracer.unwrapped.append("freqlab.coefficients._kernel_table")
    field_cls = getattr(coefficients, "CoefficientField", None)
    original_evaluate = vars(field_cls).get("evaluate") if field_cls else None
    if original_evaluate is None:
        tracer.unwrapped.append(
            "freqlab.coefficients.CoefficientField.evaluate")
    else:

        def evaluate(self, x):
            kind = "mollified" if self.kind == "mollified" else "other"
            prefix = f"coefficients.evaluate.{kind}"
            shape = np.shape(x)
            points = 1 if len(shape) == 1 else shape[0]
            tracer.add(f"{prefix}.points", points)
            if kind == "mollified" and kernel_table is not None:
                tracer.add("coefficients.mollify.kernel_evals",
                           points * len(kernel_table(self.n)[1]))
            record = tracer.begin(prefix)
            try:
                return original_evaluate(self, x)
            finally:
                tracer.end(record)

        functools.update_wrapper(evaluate, original_evaluate)
        for attr in ("evaluate", "__call__"):
            if vars(field_cls).get(attr) is original_evaluate:
                restores.append((field_cls, attr, original_evaluate))
                setattr(field_cls, attr, evaluate)

    def holder_done(_):
        tracer.add("coefficients.generate_holder.calls", 1)

    rebind("freqlab.coefficients", "generate_holder",
           timed("coefficients.generate_holder", holder_done))

    # -- solver
    def factored(lu):
        fill = lu.L.nnz + lu.U.nnz
        tracer.add("solver.splu.calls", 1)
        tracer.add("solver.splu.fill_nnz", fill)
        tracer.peak("solver.splu.max_fill_nnz", fill)

    rebind("freqlab.solver", "splu", timed("solver.splu", factored))

    def make_cg(original):
        def wrapper(*args, **kwargs):
            callback = kwargs.get("callback")

            def tick(xk):
                tracer.add("solver.cg.iterations", 1)
                if callback is not None:
                    callback(xk)
            kwargs["callback"] = tick
            record = tracer.begin("solver.cg")
            try:
                return original(*args, **kwargs)
            finally:
                tracer.end(record)
        return wrapper

    rebind("freqlab.solver", "cg", make_cg)

    seen_assemblies = weakref.WeakSet()

    def solved(u):
        tracer.add("solver.solve_dirichlet.calls", 1)
        asm = getattr(u, "_assembly", None)
        interior = getattr(asm, "interior", None)
        tracer.add("solver.unknowns", interior.size if interior is not None
                   else u.grid.node_count)
        tracer.peak("solver.residual_max", float(u.residual_norm))
        if asm is None:
            return
        hit = asm in seen_assemblies
        seen_assemblies.add(asm)
        tracer.add("solver.operator_reuse.hits" if hit
                   else "solver.operator_reuse.misses", 1)

    rebind("freqlab.solver", "solve_dirichlet",
           timed("solver.solve_dirichlet", solved))

    # -- frequency, growth, modulus
    def profiled(profile):
        tracer.add("frequency.almgren_frequency.calls", 1)
        tracer.add("frequency.almgren_frequency.radii", len(profile.radii))

    rebind("freqlab.frequency", "almgren_frequency",
           timed("frequency.almgren_frequency", profiled))
    rebind("freqlab.frequency", "two_scale_frequency",
           timed("frequency.two_scale_frequency"))

    def cascaded(trace):
        tracer.add("growth.discrete_cascade.steps", trace.steps)

    rebind("freqlab.growth", "discrete_cascade",
           timed("growth.discrete_cascade", cascaded))
    for attr in ("classify_osgood", "check_phi_integrable",
                 "check_submultiplicative_psi"):
        rebind("freqlab.modulus", attr, timed("modulus.osgood_checks"))

    # -- experiments
    def make_run_scenario(original):
        def wrapper(cfg, *args, **kwargs):
            wall0, cpu0 = time.perf_counter(), time.thread_time()
            record = tracer.begin(f"experiments.{cfg.scenario}")
            try:
                return original(cfg, *args, **kwargs)
            except Exception:
                tracer.add("experiments.errors", 1)
                raise
            finally:
                tracer.end(record)
                tracer.add("experiments.thread_wait_s",
                           (time.perf_counter() - wall0)
                           - (time.thread_time() - cpu0))
        return wrapper

    rebind("freqlab.experiments.registry", "run_scenario", make_run_scenario)
    rebind("freqlab.experiments.base", "certify_holder",
           timed("experiments.certify_holder"))

    # -- io and svg
    def make_write_bytes(original):
        def wrapper(path, data, *args, **kwargs):
            tracer.add("io.write.bytes", len(data))
            record = tracer.begin("io.write")
            try:
                return original(path, data, *args, **kwargs)
            finally:
                tracer.end(record)
        return wrapper

    rebind("freqlab.io", "atomic_write_bytes", make_write_bytes)
    for attr in ("atomic_write_text", "write_json", "write_csv",
                 "write_grid"):
        rebind("freqlab.io", attr, timed("io.write"))
    for attr in ("render_line_plot", "render_margin_plot"):
        rebind("freqlab.svg", attr, timed("svg.render"))

    def restore():
        for owner, attr, original in reversed(restores):
            setattr(owner, attr, original)

    return restore


def layer_metrics(selfs: dict, counters: dict, unwrapped: list,
                  wall_s: float, untraced_wall_s: float) -> dict:
    """Every LAYER_METRICS value of one traced run, from its self times,
    counters and the entry points it could not wrap.  ``other.s`` is the
    traced wall time no span covers, so the self times and ``other.s``
    add up to ``wall_s``."""
    values = {f"{name}.s": seconds for name, seconds in selfs.items()}
    values.update(counters)
    values["other.s"] = wall_s - sum(selfs.values())
    values["trace.overhead_s"] = wall_s - untraced_wall_s
    values["trace.unwrapped"] = len(unwrapped)
    return {name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit, _ in LAYER_METRICS}
