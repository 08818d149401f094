"""Spans around flatpencil's public functions, recorded from outside it.

The tracer replaces each target function with a wrapper for the duration of
one job and restores the original afterwards, so untraced jobs run the
library exactly as shipped.  Module-level functions are rebound in every
``flatpencil`` module namespace that holds them (``compat.geometry_jet``,
``cli.full_report``, ...); methods are rebound on their class.  Spans are kept
in memory as (name, start, end, parent, job, work) and written out at the end.
"""

from __future__ import annotations

import functools
import json
import sys
from contextlib import contextmanager
from time import perf_counter

import numpy as np


def _eval_jet_points(args, kwargs):
    shape = np.shape(args[1])
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


def _kernel_bytes(args, kwargs):
    p = args[0]
    return p.dim * p.dim * p.m * p.m * 16


def _solve_flops(args, kwargs):
    n, _, m, _ = args[0].values.shape
    rows = kwargs.get("rows", args[2] if len(args) > 2 else None)
    if rows is None:
        rows = range(m)
    return sum(2.0 / 3.0 * (n * (m - a)) ** 3 for a in rows)


# (span name, module, attribute path, work counter or None)
TARGETS = [
    ("expr.parse", "flatpencil.expr", "parse", None),
    ("expr.eval_jet", "flatpencil.expr", "ScalarField.eval_jet",
     _eval_jet_points),
    ("geometry.geometry_jet", "flatpencil.geometry", "geometry_jet", None),
    ("geometry.affinor_at", "flatpencil.geometry", "affinor_at", None),
    ("geometry.pencil_eigenvalues", "flatpencil.geometry",
     "pencil_eigenvalues", None),
    ("geometry.linear_combination", "flatpencil.geometry",
     "linear_combination", None),
    ("compat.full_report", "flatpencil.compat", "full_report", None),
    ("compat.check_almost_compatible", "flatpencil.compat",
     "check_almost_compatible", None),
    ("compat.check_compatible", "flatpencil.compat", "check_compatible", None),
    ("compat.check_flat_pencil", "flatpencil.compat", "check_flat_pencil",
     None),
    ("lame.lame_residuals", "flatpencil.lame", "lame_residuals", None),
    ("lame.RotationCoeffs.value", "flatpencil.lame", "RotationCoeffs.value",
     None),
    ("lame.RotationCoeffs.deriv", "flatpencil.lame", "RotationCoeffs.deriv",
     None),
    ("twocomp.check_sys", "flatpencil.twocomp", "check_sys", None),
    ("twocomp.check_lequa", "flatpencil.twocomp", "check_lequa", None),
    ("zakharov.build_kernel", "flatpencil.zakharov", "build_kernel",
     _kernel_bytes),
    ("zakharov.solve_integral_equation", "flatpencil.zakharov",
     "solve_integral_equation", _solve_flops),
    ("cli.main", "flatpencil.cli", "main", None),
]
JOB = "job"


class Tracer:
    """Records nested spans of the target functions, one job at a time."""

    def __init__(self):
        self.names = [t[0] for t in TARGETS] + [JOB]
        self.spans = []  # [name id, start, end, parent index, job, work]
        self.job_points = {}  # job index -> sample points in its input
        self._stack = []
        self._job = -1
        self._bindings = []  # (owner, attribute, original, wrapper)
        for name_id, (_, module, path, work) in enumerate(TARGETS):
            mod = sys.modules[module]
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._bindings.append(
                    (cls, meth, orig, self._wrap(name_id, orig, work)))
                continue
            orig = getattr(mod, path)
            wrapper = self._wrap(name_id, orig, work)
            for other_name, other in list(sys.modules.items()):
                package = other_name.split(".")[0]
                if other is None or package != "flatpencil":
                    continue
                for attr, value in list(vars(other).items()):
                    if value is orig:
                        self._bindings.append((other, attr, orig, wrapper))

    def _wrap(self, name_id, fn, work):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name_id, 0.0, 0.0, stack[-1] if stack else -1, self._job,
                    work(args, kwargs) if work else 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()

        return wrapper

    @contextmanager
    def job(self, index, points):
        """Trace one job: install the wrappers, open a root span, restore."""
        self._job = index
        self.job_points[index] = points
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)
        span = [len(self.names) - 1, 0.0, 0.0, -1, index, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        try:
            yield
        finally:
            span[2] = perf_counter()
            self._stack.pop()
            for owner, attr, orig, _ in self._bindings:
                setattr(owner, attr, orig)
            self._job = -1

    def totals(self):
        """Per span name: calls, busy seconds, self seconds and summed work.

        Self time is a span's duration minus the durations of its child
        spans; calls run on one thread, so children never overlap.
        """
        child = [0.0] * len(self.spans)
        for name_id, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "work": 0.0}
               for name in self.names}
        for i, (name_id, t0, t1, _, _, work) in enumerate(self.spans):
            row = out[self.names[name_id]]
            row["calls"] += 1
            row["busy_s"] += t1 - t0
            row["self_s"] += t1 - t0 - child[i]
            row["work"] += work
        return out

    def write(self, path, header):
        """Write a header line, then one JSON array per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps({**header, "names": self.names,
                                 "fields": ["name", "start", "end", "parent",
                                            "job", "work"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(tracer, untraced_mean_s, traced_mean_s):
    """Per-layer metrics of the traced jobs, normalised per job."""
    tot = tracer.totals()
    jobs = max(tot[JOB]["calls"], 1)
    points = max(sum(tracer.job_points.values()), 1)
    out = {}
    for name, _, _, _ in TARGETS:
        row = tot[name]
        out[f"{name}.calls"] = (row["calls"] / jobs, "count/job")
        out[f"{name}.busy_s"] = (row["busy_s"] / jobs, "s/job")
        out[f"{name}.self_s"] = (row["self_s"] / jobs, "s/job")
    ev = tot["expr.eval_jet"]
    out["expr.eval_jet.points"] = (ev["work"] / jobs, "count/job")
    out["expr.eval_jet.points_per_call"] = (
        ev["work"] / ev["calls"] if ev["calls"] else 0.0, "count")
    out["expr.eval_jet.calls_per_point"] = (ev["calls"] / points, "count")
    out["geometry.geometry_jet.calls_per_point"] = (
        tot["geometry.geometry_jet"]["calls"] / points, "count")
    bk = tot["zakharov.build_kernel"]
    out["zakharov.build_kernel.calls_per_job"] = (bk["calls"] / jobs, "count")
    out["zakharov.build_kernel.bytes_computed"] = (bk["work"] / jobs, "B/job")
    sv = tot["zakharov.solve_integral_equation"]
    out["zakharov.solve_integral_equation.flops_computed"] = (
        sv["work"] / jobs, "flop/job")
    out["zakharov.solve_integral_equation.gflops_achieved"] = (
        sv["work"] / sv["busy_s"] / 1e9 if sv["busy_s"] else 0.0, "GFLOP/s")
    out["trace.overhead_frac"] = (traced_mean_s / untraced_mean_s - 1.0,
                                  "frac")
    return out
