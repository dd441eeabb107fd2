"""Span tracing around the public functions of each leapssn module.

Nothing in the library is edited: :func:`instrumented` swaps wrapped
versions of the public functions into the module namespaces that call
them, and restores the originals on exit.  Problem callables are wrapped
per instance by :meth:`Tracer.instrument_problem`.

Each call becomes a span ``(name, start, end, parent, job)`` kept in
memory.  Calls and inclusive seconds are accumulated per function, and
self time (duration minus the time covered by child spans) per (phase,
layer).  Span names are ``<module>.<function>``; the module prefix is the
layer.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import gzip
import time
from collections import defaultdict

import leapssn.baselines
import leapssn.driver
import leapssn.hilbert
import leapssn.subsolver
import leapssn.verify

PROBLEM_HOOKS = (("f_value", "f_value"), ("f_grad", "f_grad"),
                 ("hess", "hess"), ("f_decrease", "f_decrease"),
                 ("prox", "prox"), ("psi_value", "psi"))


class Tracer:
    """In-memory span recorder with per-function and per-layer totals."""

    def __init__(self):
        self.spans = []
        self.job = ""
        self.phase = ""           # "solve" or "audit", set by the caller
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.phase_self_s = defaultdict(float)   # (phase, layer) -> s
        self.counters = defaultdict(int)
        self._stack = []          # [span index, child seconds]

    def call(self, name, fn, *args, **kwargs):
        parent = self._stack[-1][0] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        frame = [index, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - start
            self.spans[index] = (name, start, end, parent, self.job)
            self.calls[name] += 1
            self.total_s[name] += duration
            self.phase_self_s[self.phase, name.split(".", 1)[0]] += (
                duration - frame[1])
            if self._stack:
                self._stack[-1][1] += duration

    def wrap(self, name, fn, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            out = self.call(name, fn, *args, **kwargs)
            if observe is not None:
                observe(out)
            return out
        return traced

    def instrument_problem(self, problem):
        """Wrap the callables of one Problem instance in place."""
        for attr, label in PROBLEM_HOOKS:
            fn = getattr(problem, attr)
            if fn is not None:
                setattr(problem, attr, self.wrap(f"problem.{label}", fn))
        return problem

    def write(self, path):
        """Write every span as gzip'd CSV: name,start,end,parent,job."""
        with gzip.open(path, "wt", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("name", "start", "end", "parent", "job"))
            out.writerows(self.spans)


class _ModuleProxy:
    """Stands in for a module, overriding a few attributes."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Swap traced wrappers into the library's module namespaces."""
    hilbert = leapssn.hilbert
    counters = tracer.counters

    def count_none(x):
        counters["hilbert.solve_posdef.none"] += x is None

    def count_fill(lu):
        counters["hilbert.lu_fill_nnz"] += lu.L.nnz + lu.U.nnz

    def count_step(sub):
        counters["subsolver.noncomputable"] += not sub.computable
        counters["subsolver.inner_iters"] += sub.diagnostics.get("inner_iters", 0)

    solve_posdef = tracer.wrap("hilbert.solve_posdef", hilbert.solve_posdef,
                               count_none)
    smooth_step = tracer.wrap("subsolver.smooth_step",
                              leapssn.subsolver.smooth_step, count_step)
    composite_step = tracer.wrap("subsolver.composite_step",
                                 leapssn.subsolver.composite_step, count_step)
    sla = _ModuleProxy(hilbert.sla, cho_factor=tracer.wrap(
        "hilbert.factor", hilbert.sla.cho_factor))
    spla = _ModuleProxy(hilbert.spla, splu=tracer.wrap(
        "hilbert.factor", hilbert.spla.splu, count_fill))
    metric_solve = hilbert.Metric.solve

    patches = [
        (leapssn.subsolver, "solve_posdef", solve_posdef),
        (leapssn.baselines, "solve_posdef", solve_posdef),
        (leapssn.driver, "smooth_step", smooth_step),
        (leapssn.driver, "composite_step", composite_step),
        (leapssn.verify, "smooth_step", smooth_step),
        (leapssn.verify, "composite_step", composite_step),
        (hilbert, "sla", sla),
        (hilbert, "spla", spla),
        (hilbert.Metric, "solve",
         lambda metric, g: tracer.call("hilbert.metric_solve",
                                       metric_solve, metric, g)),
    ]
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    try:
        for owner, attr, value in patches:
            setattr(owner, attr, value)
        yield tracer
    finally:
        for owner, attr, value in saved:
            setattr(owner, attr, value)
