"""Spans around the package's layer entry points, installed from outside.

The traced run replaces each public function of the seven package modules,
plus ``fem._inverse_iteration`` and scipy's ``splu`` as ``fem`` and
``sturm1d`` see it, with a wrapper that records a span: name, layer, parent,
start, end and a few counters read from the result. Every namespace that
binds one of these functions by name gets the same wrapper, so a call that
goes through an alias (``rearrangement.psi_profile``,
``sturm1d._inverse_iteration``, ...) still lands in its span. Spans stay in
memory; ``summarize`` turns them into per-layer metrics at the end.

Suite lines run on worker threads with an empty span stack. While a
``run_suite`` span is open, such root spans take it as their parent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
from collections import Counter
from time import perf_counter

LAYERS = ("cli", "bounds", "geometry", "fem", "rearrangement", "special",
          "sturm1d")
# methods whose work belongs to the special layer even when bounds or
# rearrangement drive them in a loop
SPECIAL_METHODS = ("log_power_mean", "value")


class Span:
    __slots__ = ("name", "layer", "parent", "t0", "t1", "error", "attrs")

    def __init__(self, name, layer, parent):
        self.name, self.layer, self.parent = name, layer, parent
        self.error = False
        self.attrs = None


def _eigen_attrs(args, result):
    return {"iterations": result.iterations, "residual": result.residual}


def _factor_attrs(args, result):
    return {"nnz": int(result.L.nnz + result.U.nnz)}


def _mesh_attrs(args, result):
    return {"nodes": result.node_count, "elements": result.element_count}


def _profile_attrs(args, result):
    return {"breaks": int(len(result.pieces.breaks))}


def _sturm_attrs(args, result):
    return {"gamma": args[0].gamma, "iterations": result.iterations}


ATTRS = {
    "fem._inverse_iteration": _eigen_attrs,
    "fem.splu": _factor_attrs,
    "sturm1d.splu": _factor_attrs,
    "geometry.triangulate": _mesh_attrs,
    "geometry.triangulate_half_rhombus": _mesh_attrs,
    "rearrangement.rearrange_oriented": _profile_attrs,
    "sturm1d.solve": _sturm_attrs,
}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.adopter: Span | None = None
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name: str, layer: str):
        tracer = self
        attrs = ATTRS.get(name)
        adopts = name == "cli.run_suite"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            span = Span(name, layer, stack[-1] if stack else tracer.adopter)
            stack.append(span)
            if adopts:
                outer, tracer.adopter = tracer.adopter, span
            span.t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.t1 = perf_counter()
                stack.pop()
                if adopts:
                    tracer.adopter = outer
                tracer.spans.append(span)
            if attrs is not None:
                span.attrs = attrs(args, result)
            return result

        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package: str = "spectral_bounds") -> None:
        """Wrap the entry points of every layer and rebind all aliases."""
        modules = {layer: importlib.import_module(f"{package}.{layer}")
                   for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) or hasattr(obj, "cache_info")) \
                        and obj.__module__ == module.__name__ \
                        and (not attr.startswith("_") or attr == "_inverse_iteration"):
                    wrappers[id(obj)] = self._wrap(obj, f"{layer}.{attr}", layer)
        namespaces = [*modules.values(), importlib.import_module(package)]
        for module in namespaces:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    self._patch(module, attr, wrappers[id(obj)])
        for layer in ("fem", "sturm1d"):
            module = modules[layer]
            self._patch(module, "splu",
                        self._wrap(module.splu, f"{layer}.splu", layer))
        profile = modules["special"].RadialProfile
        for attr in SPECIAL_METHODS:
            self._patch(profile, attr, self._wrap(
                getattr(profile, attr), f"special.RadialProfile.{attr}", "special"))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def _union(intervals) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans):
    """Self time of each span (duration minus the union of its children's
    intervals) and the summed overlap of concurrent children."""
    children: dict[int, list] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(id(span.parent), []).append((span.t0, span.t1))
    own, overlap = {}, 0.0
    for span in spans:
        kids = children.get(id(span), ())
        covered = _union(kids)
        overlap += sum(b - a for a, b in kids) - covered
        own[id(span)] = (span.t1 - span.t0) - covered
    return own, overlap


def summarize(spans, op_seconds: float) -> tuple[dict, dict]:
    """Per-layer metrics from one traced pass, and the pass's time
    accounting: op_s (the summed wall time of its ops as the benchmark loop
    measured them), spans, parallel_s (overlap of concurrent suite lines)
    and unaccounted_s (op_s + parallel_s minus the summed layer self times,
    i.e. op time outside every cli.dispatch span)."""
    own, overlap = self_times(spans)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    by_name: dict[str, float] = {}
    count = Counter(span.name for span in spans)
    for span in spans:
        layer_self[span.layer] += own[id(span)]
        by_name[span.name] = by_name.get(span.name, 0.0) + own[id(span)]

    def time_of(*names):
        return sum(by_name.get(n, 0.0) for n in names)

    def attr_sum(names, key, keep=lambda a: True):
        return sum(s.attrs[key] for s in spans
                   if s.name in names and s.attrs and keep(s.attrs))

    def escaped(layer):
        # errors leaving the layer, not every frame they pass through
        return sum(1 for s in spans if s.error and s.layer == layer
                   and (s.parent is None or s.parent.layer != layer))

    solves = count["fem._inverse_iteration"]
    oriented = count["rearrangement.rearrange_oriented"]
    residuals = [s.attrs["residual"] for s in spans
                 if s.name == "fem._inverse_iteration" and s.attrs]
    rearrange_names = ("rearrangement.rearrange", "rearrangement.rearrange_oriented")
    triangulate = ("geometry.triangulate", "geometry.triangulate_half_rhombus")
    metrics = {f"{layer}.self_s": (layer_self[layer], "s") for layer in LAYERS}
    metrics.update({
        "cli.calls": (count["cli.dispatch"], "count"),
        # inclusive: the refinement work sits in nested geometry.refine spans
        "geometry.triangulate_s": (sum(s.t1 - s.t0 for s in spans
                                       if s.name in triangulate), "s"),
        "geometry.calls": (sum(count[n] for n in triangulate), "count"),
        "geometry.nodes": (attr_sum(triangulate, "nodes"), "count"),
        "geometry.elements": (attr_sum(triangulate, "elements"), "count"),
        "fem.eigen_s": (time_of("fem._inverse_iteration", "fem.solve_neumann_mu1",
                                "fem.solve_dirichlet_lambda1", "fem.solve_mixed_dn"), "s"),
        "fem.assemble_s": (time_of("fem.assemble_stiffness", "fem.assemble_mass"), "s"),
        "fem.factor_s": (time_of("fem.splu"), "s"),
        "fem.solves": (solves, "count"),
        "fem.iterations": (attr_sum(("fem._inverse_iteration",), "iterations"), "count"),
        "fem.residual_max": (max(residuals, default=0.0), "ratio"),
        "fem.lu_fill_nnz": (attr_sum(("fem.splu",), "nnz"), "count"),
        "fem.factor_per_solve": (count["fem.splu"] / solves if solves else 0.0,
                                 "ratio"),
        "fem.errors": (escaped("fem"), "count"),
        "rearrangement.rearrange_s": (time_of(*rearrange_names), "s"),
        "rearrangement.check_s": (layer_self["rearrangement"]
                                  - time_of(*rearrange_names), "s"),
        "rearrangement.rearrange_calls": (count["rearrangement.rearrange"], "count"),
        "rearrangement.oriented_calls": (oriented, "count"),
        "rearrangement.rearrange_per_oriented": (
            count["rearrangement.rearrange"] / oriented if oriented else 0.0,
            "ratio"),
        "rearrangement.breaks": (attr_sum(("rearrangement.rearrange_oriented",),
                                          "breaks"), "count"),
        "sturm1d.solve_s": (layer_self["sturm1d"] - time_of("sturm1d.splu"), "s"),
        "sturm1d.factor_s": (time_of("sturm1d.splu"), "s"),
        "sturm1d.descent_steps": (attr_sum(("sturm1d.solve",), "iterations",
                                           lambda a: a["gamma"] != 2.0), "count"),
        "sturm1d.linear_iterations": (attr_sum(("sturm1d.solve",), "iterations",
                                               lambda a: a["gamma"] == 2.0), "count"),
        "sturm1d.errors": (escaped("sturm1d"), "count"),
        "special.psi_s": (time_of("special.psi_profile"), "s"),
    })
    accounting = {"op_s": op_seconds, "spans": len(spans), "parallel_s": overlap,
                  "unaccounted_s": op_seconds + overlap - sum(layer_self.values())}
    return metrics, accounting
