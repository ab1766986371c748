"""Per-layer spans around every call into the public functions of steptardy.

``Tracer.install`` rebinds each public function of the traced modules, in
every steptardy module that imported it, to a wrapper that records a span:
call count, inclusive time and self time (inclusive time minus the time of
the spans it caused).  Spans are aggregated in memory per function, so the
hot loops inside the library are untouched and only calls that cross a
module boundary pay the wrapper.  ``uninstall`` restores the originals.

Code that must stay untraced (the benchmark's own checks and probes) holds
references to the original functions taken before ``install``.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("core", "neighborhoods", "metaheuristics", "swsp", "exact", "generator", "harness")


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        # descend broken down by neighbourhood, and how often it improved
        self.descend_k_s = defaultdict(float)
        self.descend_improved = 0
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        package = [m for name, m in sys.modules.items() if name.split(".")[0] == "steptardy"]
        for layer in LAYERS:
            module = importlib.import_module(f"steptardy.{layer}")
            for name, fn in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{name}", fn)
                for holder in package:
                    for attr, value in list(vars(holder).items()):
                        if value is fn:
                            self._patches.append((holder, attr, fn))
                            setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, fn in reversed(self._patches):
            setattr(holder, attr, fn)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum((v for key, v in self.self_s.items() if key.startswith(prefix)), 0.0)

    def _wrap(self, key, fn):
        stack = self._stack
        calls, total_s, self_s = self.calls, self.total_s, self.self_s
        clock = time.perf_counter
        is_descend = key == "neighborhoods.descend"

        def span(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                calls[key] += 1
                total_s[key] += dt
                self_s[key] += dt - children[0]
            if is_descend:
                self._observe_descend(args, kwargs, result, dt)
            return result

        return span

    def _observe_descend(self, args, kwargs, result, dt) -> None:
        bound = dict(zip(("instance", "sequence", "k"), args), **kwargs)
        self.descend_k_s[bound["k"]] += dt
        # descend accepts only strict improvements, so any change improved
        if list(result) != list(bound["sequence"]):
            self.descend_improved += 1
