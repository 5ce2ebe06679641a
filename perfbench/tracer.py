"""Outside-in span tracer for the coarselab layers.

``Tracer.install()`` rebinds every public function of the traced modules,
in its own module and in every module that imported it (including
module-level dicts that hold it), to a wrapper that records a span. The
package itself is not edited, and ``uninstall()`` puts every original
back. Private helpers are not wrapped, so their time stays in the self
time of the public function that called them.

Spans are aggregated per op by call path (``cli.main>cover.verify_diameters
>graphs.set_diameter``), so per-vertex calls cost one table entry and each
path keeps its parent links. For each path the tracer keeps the call
count, the total time and the self time (total minus the time of traced
child spans). The self times of an op's paths therefore sum to the op's
wall time. Hooks in ``layers`` may split a span by backend (a ``[variant]``
suffix) and read counters off a call's arguments and result.
"""

from __future__ import annotations

import types
from time import perf_counter

ROOT = "cli.main"


class Tracer:
    def __init__(self, modules: dict[str, types.ModuleType], extra_methods=(), variants=None, observers=None):
        """``modules`` maps layer names to modules; their public functions
        are traced. ``extra_methods`` lists ``(layer, class, name)`` methods
        to trace as well."""
        self.modules = modules
        self.extra_methods = tuple(extra_methods)
        self.variants = variants or {}
        self.observers = observers or {}
        self._patches: list[tuple[object, str, object, bool]] = []
        self._stack: list[list] = []
        self._paths: dict[tuple[str, str], str] = {}
        self.spans: dict[str, list] = {}
        self.counters: dict[str, float] = {}

    # -- installation ----------------------------------------------------

    def traced_functions(self) -> dict[int, tuple[str, types.FunctionType]]:
        """id(original) -> (span name, original) for every public function
        defined in a traced module."""
        by_module = {m.__name__: layer for layer, m in self.modules.items()}
        found: dict[int, tuple[str, types.FunctionType]] = {}
        for m in self.modules.values():
            for name, obj in vars(m).items():
                if isinstance(obj, types.FunctionType) and not name.startswith("_") and obj.__module__ in by_module:
                    found[id(obj)] = (f"{by_module[obj.__module__]}.{obj.__name__}", obj)
        return found

    def install(self, namespaces: list[types.ModuleType]) -> None:
        """Wrap the traced functions wherever ``namespaces`` refer to them."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        originals = self.traced_functions()
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in originals.items()}
        for m in namespaces:
            ns = vars(m)
            for attr, obj in list(ns.items()):
                if id(obj) in wrappers and obj is originals[id(obj)][1]:
                    self._patch(m, attr, wrappers[id(obj)], is_dict=False)
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    for k, v in list(obj.items()):
                        if id(v) in wrappers and v is originals[id(v)][1]:
                            self._patch(obj, k, wrappers[id(v)], is_dict=True)
        for layer, cls, name in self.extra_methods:
            self._patch(cls, name, self._wrap(f"{layer}.{name}", vars(cls)[name]), is_dict=False)

    def _patch(self, target, key, new, is_dict: bool) -> None:
        if is_dict:
            self._patches.append((target, key, target[key], True))
            target[key] = new
        else:
            self._patches.append((target, key, getattr(target, key), False))
            setattr(target, key, new)

    def uninstall(self) -> None:
        for target, key, old, is_dict in reversed(self._patches):
            if is_dict:
                target[key] = old
            else:
                setattr(target, key, old)
        self._patches.clear()

    # -- spans -------------------------------------------------------------

    def _wrap(self, name: str, fn):
        variant = self.variants.get(name)
        observe = self.observers.get(name)
        stack = self._stack
        paths = self._paths

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            label = f"{name}[{variant(args, kwargs)}]" if variant else name
            parent = stack[-1]
            path = paths.get((parent[0], label))
            if path is None:
                path = paths[(parent[0], label)] = f"{parent[0]}>{label}"
            frame = [path, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                parent[1] += dur
                agg = self.spans.get(path)
                if agg is None:
                    agg = self.spans[path] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[1]
            if observe:
                for key, value in observe(args, kwargs, result).items():
                    self.counters[key] = self.counters.get(key, 0) + value
            return result

        return traced

    def run_op(self, call):
        """Run ``call()`` as one op under the root span; returns
        ``(result, trace)`` where ``trace`` holds the op's spans and counters."""
        self.spans = {}
        self.counters = {}
        root = [ROOT, 0.0]
        self._stack.append(root)
        t0 = perf_counter()
        try:
            result = call()
        finally:
            wall = perf_counter() - t0
            self._stack.pop()
        self.spans[ROOT] = [1, wall, wall - root[1]]
        trace = {"wall_s": wall, "spans": self.spans, "counters": self.counters}
        return result, trace
