"""Outside-in tracer: times calls into each ramasim module from the outside.

The tracer wraps every public function and public method that a layer
module defines, and installs each wrapper wherever a ``ramasim.*`` module
binds the original, found by identity. A function imported under another
name, or moved to another importer, is therefore still traced.

Calls are aggregated per (parent layer, layer) edge as a count plus busy
time; no span is kept per call. A call into the layer already running is
passed straight through, so a layer's busy time counts only its outermost
entries. Self time is busy time minus the time spent in child layers, so
the self times of all layers add up to the time of the root call.
"""

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

import numpy as np

PACKAGE = "ramasim"
LAYERS = ("cli", "region", "rates", "sweep", "channel", "transceiver", "constellations")
ROOT_LAYER = "bench"  # parent of calls made by the benchmark itself

# Hooks that named metrics depend on; each must be found and bound.
REQUIRED_HOOKS = ("cli.main", "constellations.relate")


def _elements(args) -> int:
    """Elements a rates-layer call evaluates: the broadcast size of its arguments."""
    try:
        return np.broadcast(*args).size
    except (ValueError, TypeError):
        return 1


class Tracer:
    """Per-op edge aggregates for the public functions of the ramasim layers."""

    def __init__(self):
        self.edges = defaultdict(lambda: [0, 0.0])  # (parent, layer) -> [calls, busy s]
        self.self_s = defaultdict(float)
        self.fn_calls = Counter()
        self.elements = 0
        self._stack = [[ROOT_LAYER, 0.0]]  # [layer, time spent in child layers]
        self._patches = []  # (owner, attribute, original, wrapper)
        self.missing = []
        self._discover()

    def reset(self) -> None:
        self.edges.clear()
        self.self_s.clear()
        self.fn_calls.clear()
        self.elements = 0

    # --- wrapping -------------------------------------------------------------

    def _wrap(self, fn, layer: str, name: str):
        stack, edges, self_s, fn_calls = self._stack, self.edges, self.self_s, self.fn_calls
        clock = time.perf_counter
        count_elements = layer == "rates"
        tracer = self

        def wrapper(*args, **kwargs):
            fn_calls[name] += 1
            parent = stack[-1]
            if parent[0] == layer:
                return fn(*args, **kwargs)
            if count_elements:
                tracer.elements += _elements(args)
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent[1] += dt
                edge = edges[(parent[0], layer)]
                edge[0] += 1
                edge[1] += dt
                self_s[layer] += dt - frame[1]

        return functools.wraps(fn)(wrapper)

    def _discover(self) -> None:
        wrappers = {}  # original function -> (wrapper, hook label)
        bound = set()  # labels of hooks installed somewhere
        for layer in LAYERS:
            module = sys.modules.get(f"{PACKAGE}.{layer}")
            if module is None:
                self.missing.append(f"{layer} (module not imported)")
                continue
            hooked = 0
            for name, obj in vars(module).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    label = f"{layer}.{name}"
                    wrappers[obj] = (self._wrap(obj, layer, label), label)
                    hooked += 1
                elif inspect.isclass(obj):
                    hooked += self._discover_methods(obj, layer)
            if not hooked:
                self.missing.append(f"{layer} (no public function)")
        for name, module in list(sys.modules.items()):
            if module is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                hook = wrappers.get(value) if inspect.isfunction(value) else None
                if hook is not None:
                    self._patches.append((module, attr, value, hook[0]))
                    bound.add(hook[1])
        self.missing += [h for h in REQUIRED_HOOKS if h not in bound]

    def _discover_methods(self, cls, layer: str) -> int:
        hooked = 0
        for name, attr in vars(cls).items():
            if name.startswith("_"):
                continue
            label = f"{layer}.{cls.__name__}.{name}"
            if inspect.isfunction(attr):
                wrapper = self._wrap(attr, layer, label)
            elif isinstance(attr, (classmethod, staticmethod)):
                wrapper = type(attr)(self._wrap(attr.__func__, layer, label))
            else:
                continue
            self._patches.append((cls, name, attr, wrapper))
            hooked += 1
        return hooked

    # --- installation ---------------------------------------------------------

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # --- per-op summary -------------------------------------------------------

    def snapshot(self) -> dict:
        """Edge aggregates and per-layer busy, self and entry counts of the last op."""
        layers = {layer: {"busy_s": 0.0, "self_s": self.self_s.get(layer, 0.0), "calls": 0}
                  for layer in LAYERS}
        for (parent, layer), (calls, busy) in self.edges.items():
            layers[layer]["busy_s"] += busy
            layers[layer]["calls"] += calls
        return {
            "edges": {f"{p}>{c}": [n, b] for (p, c), (n, b) in self.edges.items()},
            "layers": layers,
            "fn_calls": dict(self.fn_calls),
            "elements": self.elements,
        }
