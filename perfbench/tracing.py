"""Per-module tracing of one ffverify job, from outside the package.

    python perfbench/tracing.py '<job json>'

runs one job (a CLI argv or a library job) in this process after
wrapping the package's public entry points, then writes the job's own
output to stdout and one line `PERFBENCH_TRACE <json>` to stderr.

Two kinds of wrapper are installed, each replacing the original in every
`ffverify.*` module namespace (and class dict) that binds it, since
modules import each other's functions at import time:

- span: every public module-level function, plus the few methods in
  SPAN_METHODS.  Each call is kept in memory as a record with its
  parent; a span's self time is its duration minus the time its child
  spans and counted primitives cover.
- counter: the hot primitives in HOT_FUNCTIONS and HOT_METHODS, called
  up to millions of times per job.  They get an aggregated call count
  and, for the outermost one only, a timed interval credited to their
  layer and subtracted from the enclosing span.  Calls made from inside
  a counted primitive are counted but not timed.

A layer is one module of the package; the layers are LAYERS.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("fields", "cyclotomic", "varieties", "fixed_points", "traces",
          "characters", "howe", "cli")

# Public module-level functions that are hot primitives, not spans.
HOT_FUNCTIONS = {
    "fields": ("poly_add", "poly_sub", "poly_mul", "poly_mod", "poly_gcd",
               "poly_powmod", "is_prime"),
    "cyclotomic": ("cyclotomic_coeffs",),
    "characters": ("irrep_value", "char_of"),
}
# Hot methods, by class.  Aliases (`__rmul__ = __mul__`) share a counter.
HOT_METHODS = {
    "fields": {"Level": ("mul", "pow"),
               "ArtinSchreierExtension": ("mul", "pow")},
    "cyclotomic": {"CycNumber": ("__mul__", "inverse")},
}
# Methods that are recorded as spans.
SPAN_METHODS = {
    "fields": {"ArtinSchreierExtension": ("solve_affine",)},
    "characters": {"CharacterTable": ("row_orthogonality_ok",
                                      "column_orthogonality_ok")},
}

_now = time.perf_counter

# span record fields
_NAME, _LAYER, _T0, _T1, _PARENT, _COVERED = range(6)


class Tracer:
    """In-memory spans and counters of one process."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.in_hot = False
        self.calls = Counter()
        self.hot_self = defaultdict(float)
        self.errors = Counter()
        self.surface_cells = set()
        self.points_verified = 0
        self.tables = set()
        self.table_calls = 0

    def _error(self, layer, parent):
        # count exceptions once, where they leave the layer
        if parent is None or self.spans[parent][_LAYER] != layer:
            self.errors[layer] += 1

    def span(self, layer, name, f, hook=None):
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            if self.in_hot:
                return f(*args, **kwargs)
            parent = self.stack[-1] if self.stack else None
            rec = [name, layer, _now(), 0.0, parent, 0.0]
            self.stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                result = f(*args, **kwargs)
            except BaseException:
                self._error(layer, parent)
                raise
            finally:
                rec[_T1] = _now()
                self.stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result
        return wrapper

    def counter(self, layer, name, f):
        calls, hot_self, stack, spans = (self.calls, self.hot_self,
                                         self.stack, self.spans)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if self.in_hot:
                return f(*args, **kwargs)
            self.in_hot = True
            t0 = _now()
            try:
                return f(*args, **kwargs)
            except BaseException:
                self._error(layer, stack[-1] if stack else None)
                raise
            finally:
                dt = _now() - t0
                self.in_hot = False
                hot_self[layer] += dt
                if stack:
                    spans[stack[-1]][_COVERED] += dt
        return wrapper

    def summary(self) -> dict:
        """Per-layer self time, inclusive time per span name (outermost
        calls of that name only), call counts and the work counters."""
        self_s = defaultdict(float, self.hot_self)
        covered = [rec[_COVERED] for rec in self.spans]
        for rec in self.spans:
            if rec[_PARENT] is not None:
                covered[rec[_PARENT]] += rec[_T1] - rec[_T0]
        inclusive = defaultdict(float)
        for i, rec in enumerate(self.spans):
            dur = rec[_T1] - rec[_T0]
            self_s[rec[_LAYER]] += dur - covered[i]
            p = rec[_PARENT]
            while p is not None and self.spans[p][_NAME] != rec[_NAME]:
                p = self.spans[p][_PARENT]
            if p is None:
                inclusive[rec[_NAME]] += dur
        return {
            "self_s": {layer: self_s[layer] for layer in LAYERS},
            "errors": {layer: self.errors[layer] for layer in LAYERS},
            "inclusive_s": dict(inclusive),
            "calls": dict(self.calls),
            "surface_cells": len(self.surface_cells),
            "points_verified": self.points_verified,
            "tables": len(self.tables),
            "table_calls": self.table_calls,
        }


def _raw(x):
    """A hashable identity of a field element or int, read without
    calling any (wrapped) method."""
    return (getattr(x, "key", None), getattr(x, "coeffs", x))


def _surface_hook(tr, args, kwargs, rep):
    ctx, eta, zeta, with_u = (list(args) + [None] * 4)[:4]
    with_u = kwargs.get("with_unipotent", with_u)
    tr.surface_cells.add((ctx.p, ctx.e, _raw(eta), _raw(zeta), bool(with_u)))
    tr.points_verified += rep.total


def _table_hook(tr, args, kwargs, table):
    tr.table_calls += 1
    tr.tables.add((table.q, table.mode, table.ell))


HOOKS = {"fixed_points_surface": _surface_hook, "o_minus_table": _table_hook}


def install(tracer: Tracer, extra_modules=()) -> None:
    """Wrap the entry points and rebind them wherever they are bound."""
    import ffverify  # noqa: F401  (imports every layer but cli)
    import ffverify.cli  # noqa: F401

    replace = {}
    for layer in LAYERS:
        mod = sys.modules[f"ffverify.{layer}"]
        hot = HOT_FUNCTIONS.get(layer, ())
        for name, obj in vars(mod).items():
            if (name.startswith("_") or inspect.isclass(obj) or not callable(obj)
                    or getattr(obj, "__module__", None) != mod.__name__):
                continue
            if name in hot:
                replace[id(obj)] = (obj, tracer.counter(layer, name, obj))
            else:
                replace[id(obj)] = (obj, tracer.span(layer, name, obj,
                                                     HOOKS.get(name)))
        for table, make in ((HOT_METHODS, tracer.counter),
                            (SPAN_METHODS, tracer.span)):
            for cls_name, methods in table.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    orig = cls.__dict__[meth]
                    wrapped = make(layer, f"{cls_name}.{meth}", orig)
                    for attr, val in list(vars(cls).items()):
                        if val is orig:
                            setattr(cls, attr, wrapped)

    namespaces = [m for n, m in sys.modules.items()
                  if n == "ffverify" or n.startswith("ffverify.")]
    namespaces += list(extra_modules)
    for mod in namespaces:
        for attr, val in list(vars(mod).items()):
            hit = replace.get(id(val))
            if hit is not None and hit[0] is val:
                setattr(mod, attr, hit[1])


def run_job(job: dict) -> int:
    """Run one job under the tracer; return its exit code."""
    tracer = Tracer()
    if job["kind"] == "lib":
        import libjob
        install(tracer, [libjob])
        entry = libjob.main
    else:
        install(tracer)
        entry = sys.modules["ffverify.cli"].main
    code = 1
    try:
        code = entry(list(job["argv"]))
    finally:
        sys.stdout.flush()
        sys.stderr.write("PERFBENCH_TRACE "
                         + json.dumps(tracer.summary(), sort_keys=True) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(run_job(json.loads(sys.argv[1])))
