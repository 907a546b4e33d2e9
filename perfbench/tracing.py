"""Spans around calls into the package, and the metrics derived from them.

The traced run wraps every public function (the functions each module lists
in ``__all__``) wherever a ``wignerdv`` module binds it, so calls made by the
CLI, by other modules and by the benchmark all record a span.  The package
source is not changed.  Spans stay in memory and are written out when the
traced process ends.

Times come from ``time.perf_counter``, which reads the system-wide monotonic
clock on Linux, so spans recorded in different processes share one time axis.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import math
import os

MODULES = ("cli", "kinetic", "potential", "fd", "propagator", "analysis", "verify")
MIB = float(1 << 20)


class Tracer:
    """Collects spans as dicts: id, parent, op, name, start, end, attrs."""

    def __init__(self, clock, root=None, prefix=""):
        self.clock = clock
        self.spans = []
        self.op = None
        self._stack = [root]
        self._prefix = prefix

    def open(self, name: str, **attrs) -> dict:
        span = {
            "id": f"{self._prefix}{len(self.spans)}",
            "parent": self._stack[-1],
            "op": self.op,
            "name": name,
            "start": self.clock(),
            "end": None,
            "attrs": attrs,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def close(self, span: dict) -> None:
        span["end"] = self.clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        s = self.open(name, **attrs)
        try:
            yield s
        finally:
            self.close(s)


def _subintervals(contraction_step, system, x1, x2, options) -> int:
    """Picard subintervals the propagator uses between x1 and x2."""
    length = abs(float(x2) - float(x1))
    delta = contraction_step(system)
    if length == 0.0:
        return 0
    if math.isinf(delta):
        return 1
    fraction = options.step_fraction if options is not None else 0.5
    return max(1, int(math.ceil(length / (fraction * delta))))


def _span_attrs(originals: dict) -> dict:
    """Per-function hooks that turn (arguments, result) into span attributes."""
    contraction_step = originals["propagator.contraction_step"]

    signatures = {name: inspect.signature(fn) for name, fn in originals.items()}

    def arguments(name, args, kwargs):
        return signatures[name].bind(*args, **kwargs).arguments

    def assemble(args, kwargs, problem):
        mat = problem.matrix
        nbytes = mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes
        return {"unknowns": int(mat.shape[0]), "nnz": int(mat.nnz), "csr_bytes": int(nbytes)}

    def propagator_matrix(args, kwargs, _):
        a = arguments("propagator.propagator_matrix", args, kwargs)
        half = 0.5 * a["system"].potential.period_l
        return {
            "subintervals": _subintervals(contraction_step, a["system"], a["x1"], a["x2"], a.get("options")),
            "full_period": float(a["x1"]) == -half and float(a["x2"]) == half,
        }

    def picard_propagate(args, kwargs, _):
        a = arguments("propagator.picard_propagate", args, kwargs)
        return {"subintervals": _subintervals(contraction_step, a["system"], a["x1"], a["x2"], a.get("options"))}

    def write_csv(args, kwargs, _):
        a = arguments("analysis.write_csv", args, kwargs)
        obj = a["obj"]
        if hasattr(obj, "rows"):
            # a report row carries a measured runtime, whose printed width
            # varies, so its bytes are left out of the exact counts
            return {"rows": len(obj.rows), "bytes": 0}
        rows = obj.values.size if hasattr(obj, "values") else len(obj[0])
        return {"rows": int(rows), "bytes": int(os.path.getsize(a["path"]))}

    return {
        "fd.assemble": assemble,
        "propagator.propagator_matrix": propagator_matrix,
        "propagator.picard_propagate": picard_propagate,
        "analysis.write_csv": write_csv,
    }


def _wrap(tracer: Tracer, fn, name: str, hook):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if hook is not None:
            span["attrs"].update(hook(args, kwargs, result))
        return result

    return traced


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap the package's public functions in spans; restores them on exit."""
    package = importlib.import_module("wignerdv")
    modules = [importlib.import_module(f"wignerdv.{m}") for m in MODULES]
    originals = {}
    for short, mod in zip(MODULES, modules):
        for attr in mod.__all__:
            obj = getattr(mod, attr)
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                originals[f"{short}.{attr}"] = obj
    hooks = _span_attrs(originals)
    wrappers = {fn: _wrap(tracer, fn, name, hooks.get(name)) for name, fn in originals.items()}
    patched = []
    for mod in [package] + modules:
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in wrappers:
                patched.append((mod, attr, value))
                setattr(mod, attr, wrappers[value])
    try:
        yield
    finally:
        for mod, attr, value in patched:
            setattr(mod, attr, value)


def self_times(spans: list) -> dict:
    """Span id -> duration minus the part of it that its children cover.

    Children of one span may nest or sit side by side; the covered part is the
    length of the union of their intervals, clipped to the parent.
    """
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        start, end = s["start"], s["end"]
        covered, reach = 0.0, start
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start"]):
            lo, hi = max(c["start"], reach), min(c["end"], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s["id"]] = (end - start) - covered
    return out


def _outermost(spans: list, name: str) -> list:
    """Spans called ``name`` that have no ancestor of the same name."""
    by_id = {s["id"]: s for s in spans}

    def nested(s):
        p = by_id.get(s["parent"])
        while p is not None:
            if p["name"] == name:
                return True
            p = by_id.get(p["parent"])
        return False

    return [s for s in spans if s["name"] == name and not nested(s)]


def layer_metrics(spans: list) -> dict:
    """Per-pass sums over the spans of one traced pass (values in s, MiB, counts)."""

    def total(name):
        return sum(s["end"] - s["start"] for s in _outermost(spans, name))

    def calls(name):
        return sum(1 for s in spans if s["name"] == name)

    def attr_sum(name, key):
        return sum(s["attrs"].get(key, 0) for s in spans if s["name"] == name)

    out = {
        "fd.assemble_s": total("fd.assemble"),
        "fd.assemble_calls": calls("fd.assemble"),
        "fd.solve_bvp_s": total("fd.solve_bvp"),
        "fd.solve_bvp_calls": calls("fd.solve_bvp"),
        "fd.residual_s": total("fd.residual_norm"),
        "fd.unknowns": attr_sum("fd.assemble", "unknowns"),
        "fd.nnz": attr_sum("fd.assemble", "nnz"),
        "fd.csr_mb": attr_sum("fd.assemble", "csr_bytes") / MIB,
        "propagator.shooting_s": total("propagator.solve_bvp_shooting"),
        "propagator.shooting_calls": calls("propagator.solve_bvp_shooting"),
        "propagator.period_matrix_s": sum(
            s["end"] - s["start"]
            for s in _outermost(spans, "propagator.propagator_matrix")
            if s["attrs"].get("full_period")
        ),
        "propagator.subintervals": attr_sum("propagator.propagator_matrix", "subintervals")
        + attr_sum("propagator.picard_propagate", "subintervals"),
        "verify.coupling_bound_s": total("verify.check_coupling_bound"),
        "verify.propagator_mirror_s": total("verify.check_propagator_mirror"),
        "verify.propagator_inversion_s": total("verify.check_propagator_inversion"),
        "verify.free_streaming_s": total("verify.check_free_streaming"),
        "verify.current_conservation_s": total("verify.check_current_conservation"),
        "analysis.symmetry_error_s": total("analysis.symmetry_error"),
        "analysis.observables_s": total("analysis.density") + total("analysis.current"),
        "analysis.write_csv_s": total("analysis.write_csv"),
        "analysis.csv_mb": attr_sum("analysis.write_csv", "bytes") / MIB,
        "analysis.csv_rows": attr_sum("analysis.write_csv", "rows"),
    }
    out["fd.factor_est_s"] = out["fd.solve_bvp_s"] - out["fd.assemble_s"]
    return out


# Per-layer values that depend only on the code and the inputs; two traced
# runs of the same code and seed must report them identically.
EXACT_COUNTS = (
    "fd.assemble_calls",
    "fd.solve_bvp_calls",
    "fd.unknowns",
    "fd.nnz",
    "fd.csr_mb",
    "propagator.shooting_calls",
    "propagator.subintervals",
    "analysis.csv_rows",
    "analysis.csv_mb",
)
