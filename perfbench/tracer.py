"""Layer-boundary tracing of the geonull package from outside its code.

:class:`Tracer` replaces each boundary function of the seven modules with a
wrapper, at every place the function is bound: its own module, the package
namespace and every module that imported it by name (``splitting`` binds
``nullity``, ``flows`` binds ``invert``, ...).  A wrapper records a span only
when the call enters its layer from another layer; calls inside a layer run
unrecorded.  Spans live in memory and are written out once, at the end.
Every ``MetricField.jet`` call is also counted, and counted as a repeat when
its point was already jetted in the same request.

Scan workers run on pool threads, so the layer stack is per thread; a
thread with an empty stack is running CLI code for the active request.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import threading
import time
from collections import Counter, defaultdict
from typing import NamedTuple

import numpy as np

LAYERS = ("exprcalc", "numcore", "metricspace", "curvature", "flows", "splitting", "cli")

# public methods that are layer entry points (module-level functions are
# found from each module's __all__ and from cross-module imports)
METHODS = {
    "exprcalc": (("Expression", "jet2"), ("Expression", "value"), ("Expression", "to_source")),
    "metricspace": (("MetricField", "jet"), ("MetricField", "g"), ("MetricField", "contains")),
}
EVAL_NAMES = ("Expression.jet2", "Expression.value", "eval_jet2")


class Span(NamedTuple):
    span_id: int
    parent: int
    request: int
    layer: str
    name: str
    start: float
    end: float


class Tracer:
    """Install with :meth:`install`, run requests, then :meth:`uninstall`."""

    def __init__(self, modules: dict, linalg):
        self.modules = modules  # layer name -> module; "package" -> geonull
        self.linalg = linalg
        self.spans: list = []
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._request = None  # (request id, root span id) of the running CLI call
        self._requests = itertools.count(1)
        self._jetted: set = set()  # (field id, point bytes) jetted in the running request
        self._undo: list = []
        self._targets = self._boundary_functions()

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counts[key] += n

    def _wrap(self, layer: str, name: str, fn, on_result=None, on_call=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            request = tracer._request
            if request is None:
                return fn(*args, **kwargs)
            if on_call is not None:
                on_call(*args, **kwargs)
            stack = tracer._stack()
            caller, parent = stack[-1] if stack else ("cli", request[1])
            if caller == layer:
                result = fn(*args, **kwargs)
            else:
                span_id = next(tracer._ids)
                stack.append((layer, span_id))
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    stack.pop()
                    tracer.spans.append(Span(span_id, parent, request[0], layer, name, start, end))
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _wrap_main(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(tracer._ids)
            request = next(tracer._requests)
            stack = tracer._stack()
            tracer._request = (request, span_id)
            stack.append(("cli", span_id))
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer._request = None
                tracer._jetted.clear()
                tracer.spans.append(Span(span_id, 0, request, "cli", "main", start, end))

        return traced

    def _count_svd(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer._request is not None:
                tracer._count("svd")
            return fn(*args, **kwargs)

        return counted

    def _count_steps(self, path) -> None:
        self._count("geodesic_steps", path.times.size - 1)

    def _note_jet(self, field, x, *args, **kwargs) -> None:
        """Count every jet call, and those at a point already jetted in this request."""
        key = (id(field), np.asarray(x, dtype=float).tobytes())
        with self._lock:
            self.counts["jet_evals"] += 1
            if key in self._jetted:
                self.counts["jet_repeats"] += 1
            else:
                self._jetted.add(key)

    # -- installation ------------------------------------------------------

    def _boundary_functions(self):
        """(layer, name, function) for every module-level entry point."""
        found = {}
        for layer in LAYERS:
            mod = self.modules[layer]
            names = ("main",) if layer == "cli" else tuple(getattr(mod, "__all__", ()))
            for name in names:
                fn = getattr(mod, name)
                if callable(fn) and not isinstance(fn, type) and getattr(fn, "__module__", None) == mod.__name__:
                    found[id(fn)] = (layer, name, fn)
        # private helpers another module imports by name cross a layer too
        for other in self._namespaces():
            for value in list(vars(other).values()):
                owner = getattr(value, "__module__", None)
                if not callable(value) or isinstance(value, type) or id(value) in found:
                    continue
                for layer in LAYERS[:-1]:
                    if owner == self.modules[layer].__name__ and other is not self.modules[layer]:
                        found[id(value)] = (layer, value.__name__, value)
        return list(found.values())

    def _namespaces(self):
        return [self.modules[layer] for layer in LAYERS] + [self.modules["package"]]

    def _rebind(self, original, replacement) -> None:
        for ns in self._namespaces():
            for key, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, key, replacement)
                    self._undo.append((ns, key, original))

    def install(self) -> None:
        for layer, name, fn in self._targets:
            if layer == "cli":
                wrapper = self._wrap_main(fn)
            elif layer == "flows" and name == "geodesic":
                wrapper = self._wrap(layer, name, fn, on_result=self._count_steps)
            else:
                wrapper = self._wrap(layer, name, fn)
            self._rebind(fn, wrapper)
        for layer, methods in METHODS.items():
            mod = self.modules[layer]
            for cls_name, meth in methods:
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                on_call = self._note_jet if (cls_name, meth) == ("MetricField", "jet") else None
                setattr(cls, meth, self._wrap(layer, f"{cls_name}.{meth}", original, on_call=on_call))
                self._undo.append((cls, meth, original))
        original_svd = self.linalg.svd
        self.linalg.svd = self._count_svd(original_svd)
        self._undo.append((self.linalg, "svd", original_svd))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    # -- output ------------------------------------------------------------

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(list(Span._fields)) + "\n")
            for span in self.spans:
                fh.write(json.dumps(list(span)) + "\n")


def _covered(intervals: list) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    reach = -math.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans: list) -> dict:
    """Self time per layer: span duration minus the time its children cover."""
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append((s.start, s.end))
    out = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        kids = [(max(a, s.start), min(b, s.end)) for a, b in children.get(s.span_id, ())]
        out[s.layer] += (s.end - s.start) - _covered([k for k in kids if k[1] > k[0]])
    return out


def layer_counts(spans: list) -> dict:
    """Span counts keyed by name and by (parent-layer, name) where needed."""
    by_id = {s.span_id: s for s in spans}
    calls = Counter(s.name for s in spans)
    jets_under_flows = 0
    nullity_under_tensor = 0
    for s in spans:
        parent = by_id.get(s.parent)
        if parent is None:
            continue
        if s.name == "MetricField.jet" and parent.layer == "flows":
            jets_under_flows += 1
        if s.name == "nullity" and parent.name == "splitting_tensor":
            nullity_under_tensor += 1
    return {
        "calls": calls,
        "eval_calls": sum(calls[n] for n in EVAL_NAMES),
        "jets_under_flows": jets_under_flows,
        "nullity_under_tensor": nullity_under_tensor,
    }
