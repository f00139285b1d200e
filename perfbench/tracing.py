"""Spans recorded around the calls the benchmark makes into each dissolve layer.

Nothing inside the library is instrumented.  The benchmark rebuilds a problem
from wrapped callbacks (`traced_problem`) and swaps the `h_value`/`h_grad`
names that `dissolve.solvers` and `dissolve.diagnostics` look up
(`Tracer.patch_penalty`), so every span starts and ends in this file.  Spans
are kept in memory as flat arrays and written out once, at the end of a run.
"""

from __future__ import annotations

import copy
import dataclasses
import time
from array import array
from contextlib import contextmanager

import dissolve
import dissolve.diagnostics
import dissolve.solvers

# layers whose calls and self time are reported per operation
LAYERS = (
    "mappings.h_value", "mappings.h_grad", "mappings.A_value", "mappings.A_vjp",
    "sets.project", "sets.q",
    "problems.f", "problems.c_value", "problems.c_jac",
)


class Tracer:
    """Span store: name, start, end, parent span and the operation it belongs to."""

    def __init__(self):
        self.names = []
        self._codes = {}
        self.code = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self._stack = [-1]
        self.current_op = -1

    def wrap(self, name, fn):
        """Return fn with a span named `name` recorded around every call."""
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        code = self._codes[name]
        codes, starts, ends, parents, ops = (self.code, self.start, self.end,
                                             self.parent, self.op)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            codes.append(code)
            parents.append(stack[-1])
            ops.append(self.current_op)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    @contextmanager
    def patch_penalty(self):
        """Route the penalty objective lookups of solvers and diagnostics
        through spans for the duration of the block."""
        saved = [(mod, name, getattr(mod, name))
                 for mod in (dissolve.solvers, dissolve.diagnostics)
                 for name in ("h_value", "h_grad")]
        for mod, name, fn in saved:
            setattr(mod, name, self.wrap("mappings." + name, fn))
        try:
            yield
        finally:
            for mod, name, fn in saved:
                setattr(mod, name, fn)

    def per_op(self):
        """{op: {span name: [calls, self seconds]}}; self time is a span's
        duration minus the time its direct children cover."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {}
        for i in range(n):
            layer = out.setdefault(self.op[i], {}).setdefault(
                self.names[self.code[i]], [0, 0.0])
            layer[0] += 1
            layer[1] += self.end[i] - self.start[i] - child[i]
        return out

    def write(self, path):
        """One tab-separated line per span: op, name, start, end, parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("op\tname\tstart_s\tend_s\tparent\n")
            for i in range(len(self.start)):
                fh.write(f"{self.op[i]}\t{self.names[self.code[i]]}\t"
                         f"{self.start[i]:.9f}\t{self.end[i]:.9f}\t{self.parent[i]}\n")


def traced_problem(prob, tracer):
    """The same penalty problem with every callback wrapped in a span.

    Generic dissolving maps are rebuilt over the wrapped constraint map and
    domain so that their inner calls are recorded too; closed-form maps call
    nothing else and are wrapped as they are.  The domain is a shallow copy,
    so the untraced problem keeps its own methods.
    """
    w = tracer.wrap
    cm = prob.cmap
    cmap = dataclasses.replace(
        cm,
        value=w("problems.c_value", cm.value),
        jac_t_apply=w("problems.c_jac", cm.jac_t_apply),
        jac_apply=w("problems.c_jac", cm.jac_apply),
        hess_apply=None if cm.hess_apply is None else w("problems.c_jac", cm.hess_apply),
    )
    domain = copy.copy(prob.domain)
    domain.project = w("sets.project", prob.domain.project)
    domain._q = w("sets.q", prob.domain._q)
    domain._dq_form = w("sets.q", prob.domain._dq_form)
    amap = prob.amap
    if amap.mode != "closed_form":
        amap = dissolve.build_aq(domain, cmap, sigma=amap.sigma, mode=amap.mode)
    amap = dataclasses.replace(amap, value=w("mappings.A_value", amap.value),
                               vjp=w("mappings.A_vjp", amap.vjp))
    return dataclasses.replace(prob, f_value=w("problems.f", prob.f_value),
                               f_grad=w("problems.f", prob.f_grad),
                               cmap=cmap, amap=amap, domain=domain)
