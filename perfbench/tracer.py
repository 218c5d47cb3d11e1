"""In-memory span tracing of the gwone layers, installed from outside the library.

``Tracer.install`` wraps every public function of the eight layer modules
and the arithmetic methods of the three value classes.  A function imported
with ``from .x import y`` is a separate binding in each importing module
(``phi`` lives in correlators, calabi_yau, mirror, cli, acceptance and the
package itself), so every module attribute that *is* a wrapped function is
rebound; a missed binding would show as a wrong span count.

A span records its name, start, end and parent (the innermost open span).
Spans are kept in flat arrays while the program runs and written out once
at the end.  A span's self time is its duration minus its children's.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from array import array
from pathlib import Path

LAYERS = ("rings", "laurent", "series", "correlators", "calabi_yau", "mirror", "relative", "cli")

# Value-class methods that carry the arithmetic; other methods are accessors.
METHODS = {
    "rings": {"CohClass": ("__init__", "__add__", "__mul__", "inverse", "integrate")},
    "laurent": {"LaurentPoly": ("__init__", "__add__", "__mul__", "inverse")},
    "series": {"QSeries": ("__add__", "__mul__", "exp", "log", "substitute")},
}


def _public_functions(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or inspect.isclass(obj):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(inspect.unwrap(obj)):
            yield name, obj


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.ring_products = 0
        self.zero_ring_products = 0
        self.binding_sites: dict[str, int] = {}
        self._stack = [-1]

    def _wrap(self, label: str, fn, count_zero_products: bool = False):
        nid = len(self.names)
        self.names.append(label)
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if count_zero_products and isinstance(args[1], type(args[0])):
                self.ring_products += 1
                if result.is_zero():
                    self.zero_ring_products += 1
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap the layer entry points and rebind them wherever they are bound."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"gwone.{layer}")
            for name, fn in _public_functions(module):
                if id(fn) not in wrappers:  # an alias binds the same function twice
                    label = f"{layer}.{name}"
                    wrappers[id(fn)] = (fn, self._wrap(label, fn), label)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name)
                for meth in methods:
                    label = f"{layer}.{cls_name}.{meth}"
                    zero = label == "rings.CohClass.__mul__"
                    setattr(cls, meth, self._wrap(label, vars(cls)[meth], zero))
        modules = [m for key, m in list(sys.modules.items()) if key == "gwone" or key.startswith("gwone.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    fn, traced, label = hit
                    setattr(module, attr, traced)
                    self.binding_sites[label] = self.binding_sites.get(label, 0) + 1

    @property
    def span_count(self) -> int:
        return len(self.name)

    def counts(self, lo: int = 0, hi: int | None = None) -> dict[str, int]:
        """Spans per name among spans lo..hi-1."""
        out = [0] * len(self.names)
        for nid in self.name[lo:hi]:
            out[nid] += 1
        return {label: out[i] for i, label in enumerate(self.names)}

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: count, total (inclusive) seconds and self seconds."""
        n = len(self.name)
        child = [0.0] * n
        parent, start, end = self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out = {label: {"count": 0, "total_s": 0.0, "self_s": 0.0} for label in self.names}
        for i in range(n):
            entry = out[self.names[self.name[i]]]
            dur = end[i] - start[i]
            entry["count"] += 1
            entry["total_s"] += dur
            entry["self_s"] += dur - child[i]
        return out

    def outer_seconds(self, labels: set[str]) -> float:
        """Time in spans named in ``labels`` whose parent is not one of them."""
        ids = {i for i, label in enumerate(self.names) if label in labels}
        total = 0.0
        for i, nid in enumerate(self.name):
            if nid in ids:
                p = self.parent[i]
                if p < 0 or self.name[p] not in ids:
                    total += self.end[i] - self.start[i]
        return total

    def write(self, path: Path) -> None:
        """Write the spans: a JSON header line, then the four arrays back to back."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "spans": len(self.name),
            "arrays": [["name", "i"], ["parent", "i"], ["start", "d"], ["end", "d"]],
            "byteorder": sys.byteorder,
        }
        with path.open("wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)
