"""In-process spans around the public functions of each qdm module.

The program has no tracing of its own, so the benchmark wraps the layer
entry points from outside: every module namespace of the package that holds
a wrapped function gets the wrapper, and the two hot methods of CohomRing
are wrapped on the class.  Helpers called in innermost loops (vector_gcd,
mono_str, ...) are left unwrapped: a span there would cost more than the
work it times.
"""

from __future__ import annotations

import gzip
import json
import sys
from time import perf_counter

LAYERS = ("toric", "cohomology", "ifunction", "dmodule", "linalg",
          "loop_model", "serialize", "cli")

FUNCTIONS = {
    "toric": ("parse_fan", "charge_matrix", "mori_generators", "wall_relations",
              "enumerate_degrees", "in_cone"),
    "cohomology": ("build_ring",),
    "ifunction": ("build_f", "euler_ratio", "component"),
    "dmodule": ("apply", "find_annihilators", "gkz_operator", "semiclassical"),
    "linalg": ("nullspace", "rref", "solve_columns", "invert", "hermite_form",
               "integer_kernel", "int_det"),
    "loop_model": ("check_stabilization", "euler_ratio_n", "critical_component"),
    "serialize": ("series_json", "laurent_json", "component_json", "class_json",
                  "op_json", "op_str", "relation_str", "render_text"),
    "cli": ("main",),
}
METHODS = {"cohomology": ("CohomRing", ("multiply", "dual_basis"))}


class Tracer:
    """Spans (name, start, end, parent index, invocation id) and counters."""

    def __init__(self):
        self.spans = []
        self.stack = []  # (span index, name) of the open spans
        self.counts = {}
        self.invocation = 0

    def count(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def parent_name(self):
        return self.stack[-1][1] if self.stack else None

    def wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        observe = _OBSERVERS.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            stack.append((idx, name))
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.invocation)
            if observe is not None:
                observe(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def self_times(self):
        """{span name: summed self time}; self = duration - direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for (name, start, end, _, _), c in zip(self.spans, child):
            out[name] = out.get(name, 0.0) + (end - start - c)
        return out

    def totals(self, names):
        """Inclusive time of the spans among names whose parent is not
        among them, so a call from one to another is not counted twice."""
        names = set(names)
        spans = self.spans
        return sum(end - start for name, start, end, parent, _ in spans
                   if name in names and (parent < 0 or spans[parent][0] not in names))

    def write(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# Counters taken at the boundary where the work happens.
def _nullspace(tr, args, result):
    rows, width = args[0], args[1]
    tr.count("linalg.nullspace_rows", len(rows))
    tr.count("linalg.nullspace_cols", width)
    tr.count("linalg.nullspace_rank", width - len(result))
    if tr.parent_name() == "dmodule.find_annihilators":
        tr.count("dmodule.ansatz_cols", width)


def _apply(tr, args, result):
    tr.count("dmodule.apply_calls")
    tr.count("dmodule.apply_zero", int(result.is_zero()))


_OBSERVERS = {
    "linalg.nullspace": _nullspace,
    "linalg.rref": lambda tr, a, r: tr.count("linalg.rref_calls"),
    "linalg.solve_columns": lambda tr, a, r: tr.count("linalg.solve_columns_calls"),
    "dmodule.apply": _apply,
    "dmodule.find_annihilators": lambda tr, a, r: tr.count("dmodule.annihilators", len(r)),
    "cohomology.build_ring": lambda tr, a, r: tr.count("cohomology.chi", sum(r.dims)),
    "cohomology.CohomRing.multiply": lambda tr, a, r: tr.count("cohomology.multiply_calls"),
    "toric.in_cone": lambda tr, a, r: tr.count("toric.in_cone_calls"),
    "toric.enumerate_degrees": lambda tr, a, r: tr.count("toric.degrees", len(r)),
    "ifunction.euler_ratio": lambda tr, a, r: tr.count("ifunction.euler_ratio_calls"),
    "loop_model.euler_ratio_n": lambda tr, a, r: tr.count("loop_model.euler_ratio_n_calls"),
}


def install(tracer):
    """Wrap the layer entry points; returns a function that undoes it."""
    package = [sys.modules["qdm." + layer] for layer in LAYERS]
    undo = []
    for layer, names in FUNCTIONS.items():
        module = sys.modules["qdm." + layer]
        for name in names:
            fn = getattr(module, name)
            traced = tracer.wrap("%s.%s" % (layer, name), fn)
            for mod in package:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, traced)
                        undo.append((mod, attr, fn))
    for layer, (cls_name, names) in METHODS.items():
        cls = getattr(sys.modules["qdm." + layer], cls_name)
        for name in names:
            fn = cls.__dict__[name]
            setattr(cls, name, tracer.wrap("%s.%s.%s" % (layer, cls_name, name), fn))
            undo.append((cls, name, fn))

    def uninstall():
        for obj, attr, fn in reversed(undo):
            setattr(obj, attr, fn)
    return uninstall


def layer_metrics(tracer, wall, untraced_wall, import_s, report_bytes):
    """The per-layer metrics of one traced pass, as {name: (value, unit)}."""
    selfs = tracer.self_times()
    c = tracer.counts.get

    def incl(*names):
        return tracer.totals(names)

    def self_of(name):
        return selfs.get(name, 0.0)

    m = {
        "linalg.nullspace_s": (incl("linalg.nullspace"), "s"),
        "linalg.nullspace_rows": (c("linalg.nullspace_rows", 0), "count"),
        "linalg.nullspace_cols": (c("linalg.nullspace_cols", 0), "count"),
        "linalg.nullspace_rank": (c("linalg.nullspace_rank", 0), "count"),
        "dmodule.apply_s": (incl("dmodule.apply"), "s"),
        "dmodule.apply_calls": (c("dmodule.apply_calls", 0), "count"),
        "dmodule.find_annihilators_self_s": (self_of("dmodule.find_annihilators"), "s"),
        "dmodule.ansatz_cols": (c("dmodule.ansatz_cols", 0), "count"),
        "dmodule.annihilators": (c("dmodule.annihilators", 0), "count"),
        "dmodule.verified_frac": (
            c("dmodule.apply_zero", 0) / c("dmodule.apply_calls", 1), "frac"),
        "cohomology.build_ring_s": (incl("cohomology.build_ring"), "s"),
        "cohomology.dual_basis_s": (incl("cohomology.CohomRing.dual_basis"), "s"),
        "cohomology.chi": (c("cohomology.chi", 0), "count"),
        "linalg.rref_s": (incl("linalg.rref"), "s"),
        "linalg.rref_calls": (c("linalg.rref_calls", 0), "count"),
        "toric.load_s": (incl("toric.parse_fan", "toric.charge_matrix",
                              "toric.mori_generators"), "s"),
        "toric.enumerate_degrees_s": (incl("toric.enumerate_degrees"), "s"),
        "toric.in_cone_calls": (c("toric.in_cone_calls", 0), "count"),
        "toric.degrees": (c("toric.degrees", 0), "count"),
        "linalg.solve_columns_calls": (c("linalg.solve_columns_calls", 0), "count"),
        "ifunction.build_f_s": (incl("ifunction.build_f"), "s"),
        "ifunction.euler_ratio_calls": (c("ifunction.euler_ratio_calls", 0), "count"),
        "ifunction.component_s": (incl("ifunction.component"), "s"),
        "cohomology.multiply_calls": (c("cohomology.multiply_calls", 0), "count"),
        "cohomology.multiply_s": (incl("cohomology.CohomRing.multiply"), "s"),
        "loop_model.check_stabilization_self_s": (
            self_of("loop_model.check_stabilization"), "s"),
        "loop_model.euler_ratio_n_calls": (c("loop_model.euler_ratio_n_calls", 0), "count"),
        "serialize.render_s": (incl(*("serialize." + n for n in FUNCTIONS["serialize"])), "s"),
        "serialize.report_bytes": (report_bytes, "bytes"),
        "cli.import_s": (import_s, "s"),
        "cli.self_s": (self_of("cli.main"), "s"),
        "trace.overhead_s": (wall - untraced_wall, "s"),
        "trace.wall_s": (wall, "s"),
        "trace.spans": (len(tracer.spans), "count"),
    }
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, t in selfs.items():
        layer_self[name.split(".", 1)[0]] += t
    for layer, t in layer_self.items():
        if layer != "cli":
            m[layer + ".self_s"] = (t, "s")
    m["trace.coverage"] = (sum(layer_self.values()) / wall, "frac")
    return m
