"""External span tracer for the traced benchmark run.

``Tracer.install()`` replaces every public function of each layer module
with a wrapper, in the namespace of every loaded ``quditgeom`` module that
holds a reference to it (``quditgeom.curves.real_roots`` as well as
``quditgeom.linalg.real_roots``), so calls between modules are seen.
Nothing in the package's source changes; ``restore()`` puts every original
back.

Each span records its name, start, end and parent span.  Spans stay in
memory in flat arrays until the run ends.  For ``representations`` spans
the wrapper also records how many state rows the first argument carries,
and for the outermost ``curves`` span of a call chain it counts the nodes,
masked (non-finite) nodes and physical nodes of the returned curve or mesh.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

PACKAGE = "quditgeom"
LAYERS = ("cli", "curves", "linalg", "models", "thermal", "representations", "basis")
# individual functions reported on their own as well as in their layer
FUNCTIONS = ("cli.main", "linalg.real_roots", "linalg.jacobi_eigvalsh")


def _rows_in(args) -> int:
    """State rows carried by the first positional argument (0 for scalars)."""
    shape = np.shape(args[0]) if args else ()
    return int(np.prod(shape[:-1])) if len(shape) > 1 else len(shape)


def _curve_nodes(result) -> tuple:
    """(nodes, masked, physical) of a curve, a mesh or a sequence of them."""
    if isinstance(result, (list, tuple)):
        totals = [_curve_nodes(item) for item in result]
        return tuple(int(sum(col)) for col in zip(*totals)) if totals else (0, 0, 0)
    points = getattr(result, "points", None)
    physical = getattr(result, "physical", None)
    if points is None or physical is None:
        return (0, 0, 0)
    finite = np.all(np.isfinite(points), axis=-1)
    return (int(finite.size), int(finite.size - finite.sum()), int(np.count_nonzero(physical)))


class Tracer:
    """Wraps layer functions and keeps their spans in memory."""

    def __init__(self):
        self.names = []          # span name table, "<layer>.<function>"
        self.name_layer = []     # layer index of each name
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.rows = array("q")
        self.curve_nodes = [0, 0, 0]  # nodes, masked, physical
        self._stack = []
        self._patched = []

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        modules = [mod for name, mod in sorted(sys.modules.items())
                   if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        wrappers = {}
        for layer_index, layer in enumerate(LAYERS):
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, value in vars(module).items():
                if (attr.startswith("_") or isinstance(value, type) or not callable(value)
                        or getattr(value, "__module__", None) != module.__name__):
                    continue
                wrappers[id(value)] = (value, self._wrap(f"{layer}.{attr}", layer_index, value))
        for module in modules:
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    self._patched.append((module, attr, value))

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def _wrap(self, name: str, layer_index: int, fn):
        name_id = len(self.names)
        self.names.append(name)
        self.name_layer.append(layer_index)
        names_of, parents, starts, ends, rows = (
            self.name_id, self.parent, self.start, self.end, self.rows)
        stack, name_layer = self._stack, self.name_layer
        clock = time.perf_counter
        count_rows = LAYERS[layer_index] == "representations"
        observe = self._observe_curve if LAYERS[layer_index] == "curves" else None

        def span(*args, **kwargs):
            sid = len(starts)
            parent = stack[-1] if stack else -1
            names_of.append(name_id)
            parents.append(parent)
            rows.append(_rows_in(args) if count_rows else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                starts[sid] = t0
                stack.pop()
            if observe is not None and (parent < 0 or name_layer[names_of[parent]] != layer_index):
                observe(result)
            return result

        return functools.update_wrapper(span, fn)

    def _observe_curve(self, result) -> None:
        for i, value in enumerate(_curve_nodes(result)):
            self.curve_nodes[i] += value

    def arrays(self) -> dict:
        """The recorded spans as numpy arrays (one entry per span)."""
        return {
            "names": np.array(self.names),
            "name_layer": np.array(self.name_layer, dtype=np.int32),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "rows": np.frombuffer(self.rows, dtype=np.int64).copy(),
        }


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Span duration minus the summed durations of its direct children."""
    duration = end - start
    has_parent = parent >= 0
    children = np.bincount(parent[has_parent], weights=duration[has_parent],
                           minlength=duration.size)
    return duration - children


def layer_summary(spans: dict) -> dict:
    """Per-layer and per-function call counts and self times, plus row counts."""
    self_s = self_times(spans["start"], spans["end"], spans["parent"])
    span_layer = spans["name_layer"][spans["name_id"]] if self_s.size else np.zeros(0, int)
    out = {}
    for index, layer in enumerate(LAYERS):
        mine = span_layer == index
        out[f"{layer}.calls"] = int(mine.sum())
        out[f"{layer}.self_s"] = float(self_s[mine].sum())
    names = list(spans["names"])
    for name in FUNCTIONS:
        mine = spans["name_id"] == names.index(name) if name in names else np.zeros(self_s.size, bool)
        out[f"{name}.calls"] = int(mine.sum())
        out[f"{name}.self_s"] = float(self_s[mine].sum())
    rep = span_layer == LAYERS.index("representations")
    out["representations.rows"] = int(spans["rows"][rep].sum())
    return out
