"""Span recorder that wraps cdfun's public functions from outside.

``Recorder.install`` replaces each function listed in ``LAYERS`` by a wrapper
that records one span per call: name, start, end, parent span and a little
call information (level, rows, result flags).  A name that other cdfun
modules imported with ``from .module import name`` is replaced in every
module that holds the same object, so calls through those bindings are
seen too.  Nothing inside the package is edited and no table is touched;
``uninstall`` puts the original objects back.

Spans stay in memory until ``write`` dumps them after the run.  A span's
self time is its duration minus the durations of its child spans (calls are
nested and single-threaded, so children never overlap).
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict

import numpy as np

#: module -> functions wrapped.  Every function gets <module>.<fn>.calls and
#: <module>.<fn>.self_s; every module gets <module>.self_s.
LAYERS = {
    "algebra": ("mul_arrays", "pow_arrays", "inverse_arrays", "find_zero_divisor"),
    "transcendental": ("exp_arrays", "ln_arrays", "dln_arrays"),
    "expressions": ("parse", "primitive", "evaluate", "eval_node_arrays", "derivative_apply",
                    "hat_from_primitive"),
    "integrate": ("line_integral", "log_integral", "Path.sample"),
    "contour": ("residue", "cauchy_eval", "cauchy_derivative", "taylor_coeffs", "laurent_coeffs",
                "residue_theorem_check", "argument_principle", "winding_index", "ar_index", "find_root"),
    "diffcheck": ("cr_check", "harmonic_check", "zbar_check"),
    "cli": ("main",),
}

# per-layer metrics beyond calls/self_s, with their units
EXTRA = (
    ("algebra.mul_arrays.rows", "count"),
    ("algebra.mul_arrays.madds", "count"),
    ("algebra.mul_arrays.bytes", "B"),
    ("algebra.mul_arrays.max_batch_bytes", "B"),
    ("algebra.mul_arrays.single_calls", "count"),
    ("algebra.pow_arrays.mul_calls", "count"),
    *((f"algebra.r{r}.self_s", "s") for r in range(1, 9)),
    ("transcendental.exp_arrays.rows", "count"),
    ("transcendental.ln_arrays.rows", "count"),
    ("transcendental.dln_arrays.rows", "count"),
    ("expressions.hat_from_primitive.rows", "count"),
    ("integrate.line_integral.refinements", "count"),
    ("integrate.line_integral.converged_ratio", "1"),
    ("integrate.log_integral.bisections", "count"),
    ("contour.find_root.newton_steps", "count"),
    ("contour.find_root.converged_ratio", "1"),
    ("cli.main.error_reports", "count"),
    ("trace.spans", "count"),
    ("trace.untraced_s", "s"),
    ("trace.traced_s", "s"),
    ("trace.overhead_s", "s"),
)


#: counts derived from call shapes by mul_cost, not measured
COMPUTED = ("algebra.mul_arrays.madds", "algebra.mul_arrays.bytes", "algebra.mul_arrays.max_batch_bytes")


def metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    out = {}
    for module, fns in LAYERS.items():
        for fn in fns:
            out[f"{module}.{fn}.calls"] = "count"
            out[f"{module}.{fn}.self_s"] = "s"
        out[f"{module}.self_s"] = "s"
    out.update(EXTRA)
    return out


def mul_cost(rows: int, d: int):
    """Computed (madds, bytes, batch_bytes) of one mul_arrays call.

    A model of the kernel as it stands, not a measurement.  madds = rows*d^2.
    For d <= 16 the call gathers a (rows, d, d) array, multiplies it by the
    sign table into a second one and contracts that with x: bytes counts x,
    y and the output once plus four passes over rows*d^2 doubles, and the
    batch is the gather itself.  For d >= 32 it loops over d rows, each
    streaming nine (rows, d) arrays; the batch is one (rows, d) row.
    """
    if d <= 16:
        return rows * d * d, 8 * rows * (3 * d + 4 * d * d), 8 * rows * d * d
    return rows * d * d, 8 * rows * (3 * d + 9 * d * d), 8 * rows * d


def _rows(*arrays) -> int:
    shape = np.broadcast_shapes(*(np.shape(a) for a in arrays))
    return math.prod(shape[:-1])


def _level(x) -> int:
    return int(getattr(x, "r", x))


# call information recorded before (args -> info) and after (result, info -> info)
_BEFORE = {
    "algebra.mul_arrays": lambda a, k: (_level(a[2]), _rows(a[0], a[1])),
    "algebra.pow_arrays": lambda a, k: (_level(a[2]), _rows(a[0])),
    "algebra.inverse_arrays": lambda a, k: (_level(a[1]), _rows(a[0])),
    "algebra.find_zero_divisor": lambda a, k: (_level(a[0]), 1),
    "transcendental.exp_arrays": lambda a, k: _rows(a[0]),
    "transcendental.ln_arrays": lambda a, k: _rows(a[0]),
    "transcendental.dln_arrays": lambda a, k: _rows(a[0], a[1]),
    "expressions.hat_from_primitive": lambda a, k: _rows(getattr(a[1], "coeffs", a[1])),
    "integrate.Path.sample": lambda a, k: int(np.size(a[1])),
}
_AFTER = {
    "integrate.line_integral": lambda res, info: (int(res.refinements), bool(res.converged)),
    "cli.main": lambda res, info: res,
}


class Recorder:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, info, raised]
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn):
        before = _BEFORE.get(name)
        after = _AFTER.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    before(args, kwargs) if before else None, True]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            span[5] = False
            if after:
                span[4] = after(out, span[4])
            return out

        return wrapper

    def install(self):
        modules = [m for key, m in sys.modules.items() if key == "cdfun" or key.startswith("cdfun.")]
        for module, fns in LAYERS.items():
            home = sys.modules[f"cdfun.{module}"]
            for fn in fns:
                if "." in fn:
                    cls_name, meth = fn.split(".")
                    cls = getattr(home, cls_name)
                    orig = cls.__dict__[meth]
                    self._patches.append((cls, meth, orig))
                    setattr(cls, meth, self._wrap(f"{module}.{fn}", orig))
                    continue
                orig = getattr(home, fn)
                wrapper = self._wrap(f"{module}.{fn}", orig)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            self._patches.append((mod, attr, orig))
                            setattr(mod, attr, wrapper)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def metrics(self) -> dict:
        spans = self.spans
        child = [0.0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        out = {name: 0 for name in metric_units()}
        level_self = defaultdict(float)
        worst_batch = 0
        finished = defaultdict(int)
        for i, (name, t0, t1, parent, info, raised) in enumerate(spans):
            own = (t1 - t0) - child[i]
            module = name.split(".")[0]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += own
            out[f"{module}.self_s"] += own
            parent_name = spans[parent][0] if parent >= 0 else None
            if module == "algebra":
                level_self[info[0]] += own
            if name == "algebra.mul_arrays":
                r, rows = info
                madds, nbytes, batch = mul_cost(rows, 1 << r)
                out["algebra.mul_arrays.rows"] += rows
                out["algebra.mul_arrays.madds"] += madds
                out["algebra.mul_arrays.bytes"] += nbytes
                worst_batch = max(worst_batch, batch)
                out["algebra.mul_arrays.single_calls"] += rows == 1
                out["algebra.pow_arrays.mul_calls"] += parent_name == "algebra.pow_arrays"
            elif name.startswith("transcendental."):
                out[f"{name}.rows"] += info
            elif name == "expressions.hat_from_primitive":
                out[f"{name}.rows"] += info
            elif name == "expressions.derivative_apply":
                out["contour.find_root.newton_steps"] += parent_name == "contour.find_root"
            elif name == "integrate.line_integral" and not raised:
                out["integrate.line_integral.refinements"] += info[0]
                finished[name] += info[1]
            elif name == "integrate.Path.sample":
                out["integrate.log_integral.bisections"] += info == 1 and parent_name == "integrate.log_integral"
            elif name == "contour.find_root":
                finished[name] += not raised
            elif name == "cli.main":
                out["cli.main.error_reports"] += info != 0
        out["algebra.mul_arrays.max_batch_bytes"] = worst_batch
        for r in range(1, 9):
            out[f"algebra.r{r}.self_s"] = level_self[r]
        for name in ("integrate.line_integral", "contour.find_root"):
            calls = out[f"{name}.calls"]
            out[f"{name}.converged_ratio"] = finished[name] / calls if calls else 0.0
        out["trace.spans"] = len(spans)
        return out

    def write(self, path):
        """One line per span: index, parent, name, start, end, raised, info."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, t0, t1, parent, info, raised) in enumerate(self.spans):
                fh.write(f"{i}\t{parent}\t{name}\t{t0:.9f}\t{t1:.9f}\t{int(raised)}\t{info}\n")
