"""Span tracing of morphoscope's layer functions, installed from outside.

The tracer replaces each traced function by a wrapper in every place that
holds it: the class attribute for methods, and every module namespace of the
package for functions, because modules bind each other's functions with
``from .x import y``. Spans (id, parent id, layer, start, end, invocation)
stay in memory and are written once, when the run ends. A call into a layer
function from inside the same layer function (``matrix_checked`` calling
``matrix``, a pulled-back metric calling its base) is part of the outer span.

``parallel.ordered_map`` hands its callable to worker threads; the wrapper
passes its span id along, so the spans of a worker thread have the fan-out
as their parent.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
from array import array
from time import perf_counter

PACKAGE = "morphoscope"

# (layer name, module, function or Class.method) in report order
FUNCTIONS = (
    ("polynomials.eval", "polynomials", "Poly.eval"),
    ("polynomials.compose", "polynomials", "Poly.compose"),
    ("polynomials.diff", "polynomials", "Poly.diff"),
    ("geometry.metric_matrix", "geometry", None),
    ("geometry.metric_derivatives", "geometry", None),
    ("geometry.christoffel", "geometry", "christoffel"),
    ("geometry.curvature_data", "geometry", "curvature_data"),
    ("geometry.covariant_derivative", "geometry", "covariant_derivative"),
    ("geometry.orthonormalize", "geometry", "orthonormalize"),
    ("calculus.jacobian", "calculus", "MorphismScenario.jacobian"),
    ("calculus.normalized_scenario", "calculus", "normalized_scenario"),
    ("linalg.spd_sqrt_pair", "_linalg", "spd_sqrt_pair"),
    ("linalg.minimize_affine_on_sphere", "_linalg", "minimize_affine_on_sphere"),
    ("morphism.classify_point", "morphism", "classify_point"),
    ("morphism.hwc_residual", "morphism", "hwc_residual"),
    ("morphism.tension_norm", "morphism", "tension_norm"),
    ("morphism.splitting", "morphism", "splitting"),
    ("hermitian.hermitian_pair", "hermitian", "hermitian_pair"),
    ("hermitian.structure_deviation_rate", "hermitian", "structure_deviation_rate"),
    ("symbol.symbol_polynomial", "symbol", "symbol_polynomial"),
    ("symbol.remainder_rates", "symbol", "remainder_rates"),
    ("symbol.dilation_lower_rate", "symbol", "dilation_lower_rate"),
    ("weingarten.weingarten_matrix", "weingarten", "weingarten_matrix"),
    ("weingarten.nabla_J_norms", "weingarten", "nabla_J_norms"),
    ("weingarten.product_bound_scan", "weingarten", "product_bound_scan"),
    ("twistor.surface_lift", "twistor", "surface_lift"),
    ("twistor.script_J_residual", "twistor", "script_J_residual"),
    ("twistor.vertical_energy_density", "twistor", "vertical_energy_density"),
    ("twistor.curvature_densities", "twistor", "curvature_densities"),
    ("ratefit.fit_rate", "ratefit", "fit_rate"),
    ("config.build_scenario", "config", "build_scenario"),
    ("report.build_report", "report", "build_report"),
    ("report.write_json", "report", "write_json"),
    ("report.write_csv", "report", "write_csv"),
    ("parallel.ordered_map", "parallel", "ordered_map"),
)

LAYERS = tuple(name for name, _, _ in FUNCTIONS)

# methods of every ChartMetric class that make up the two metric layers
METRIC_METHODS = {
    "geometry.metric_matrix": ("matrix", "matrix_checked"),
    "geometry.metric_derivatives": ("first_derivatives", "second_derivatives"),
}

FAN_OUT = "parallel.ordered_map"


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def _metric_classes(geometry):
    out, todo = [], [geometry.ChartMetric]
    while todo:
        cls = todo.pop()
        out.append(cls)
        todo.extend(cls.__subclasses__())
    return out


class Tracer:
    """In-memory span recorder; install() wraps, uninstall() restores."""

    def __init__(self):
        self.layer_ids = {name: i for i, name in enumerate(LAYERS)}
        self.invocation = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        # (owner, attribute, original) of every replaced binding
        self.patches = []
        # one entry per finished span
        self.span = array("q")
        self.parent = array("q")
        self.layer = array("H")
        self.start = array("d")
        self.end = array("d")
        self.inv = array("q")

    # ------------------------------------------------------------ recording

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, sid, parent, lid, t0, t1):
        with self._lock:
            self.span.append(sid)
            self.parent.append(parent)
            self.layer.append(lid)
            self.start.append(t0)
            self.end.append(t1)
            self.inv.append(self.invocation)

    def wrap(self, name: str, fn):
        lid = self.layer_ids[name]
        fan_out = name == FAN_OUT
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack and stack[-1][1] == lid:
                return fn(*args, **kwargs)
            sid = next(tracer._ids)
            parent = stack[-1][0] if stack else -1
            if fan_out:
                args = (tracer._carry(args[0], (sid, lid)),) + args[1:]
            stack.append((sid, lid))
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer._record(sid, parent, lid, t0, t1)

        traced.__wrapped_layer__ = name
        return traced

    def _carry(self, fn, frame):
        """Run fn under the fan-out span when a worker thread calls it."""
        tracer = self

        def carried(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                return fn(*args, **kwargs)
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()

        return carried

    # --------------------------------------------------------- installation

    def _patch(self, owner, attr, new):
        self.patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self):
        if self.patches:
            raise RuntimeError("tracer is already installed")
        importlib.import_module(f"{PACKAGE}.cli")  # loads every layer
        modules = _package_modules()
        for name, module_name, target in FUNCTIONS:
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
            if target is None:
                for cls in _metric_classes(module):
                    for meth in METRIC_METHODS[name]:
                        if meth in cls.__dict__:
                            self._patch(cls, meth, self.wrap(name, cls.__dict__[meth]))
            elif "." in target:
                cls_name, meth = target.split(".")
                cls = getattr(module, cls_name)
                self._patch(cls, meth, self.wrap(name, cls.__dict__[meth]))
            else:
                original = getattr(module, target)
                wrapped = self.wrap(name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapped)

    def uninstall(self):
        while self.patches:
            owner, attr, original = self.patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # ------------------------------------------------------------- analysis

    def layer_totals(self) -> dict:
        """Per layer: number of spans and self time in seconds.

        Self time is a span's duration minus the part of it that its child
        spans cover; children on worker threads may overlap, so the covered
        part is the union of their intervals.
        """
        n = len(self.span)
        pos = {sid: i for i, sid in enumerate(self.span)}
        children = {}
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                children.setdefault(pos[p], []).append(i)
        calls = [0] * len(LAYERS)
        self_s = [0.0] * len(LAYERS)
        for i in range(n):
            covered = 0.0
            reach = float("-inf")
            for c in sorted(children.get(i, ()), key=self.start.__getitem__):
                lo = max(self.start[c], reach)
                if self.end[c] > lo:
                    covered += self.end[c] - lo
                reach = max(reach, self.end[c])
            lid = self.layer[i]
            calls[lid] += 1
            self_s[lid] += (self.end[i] - self.start[i]) - covered
        return {name: (calls[i], self_s[i]) for i, name in enumerate(LAYERS)}

    def write(self, path):
        """Write every span once: a JSON header line naming the layers and
        fields, then one line of space-separated fields per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"layers": list(LAYERS),
                                 "fields": ["id", "parent", "layer", "start",
                                            "end", "invocation"]}) + "\n")
            for row in zip(self.span, self.parent, self.layer, self.start,
                           self.end, self.inv):
                fh.write("%d %d %d %.9f %.9f %d\n" % row)
