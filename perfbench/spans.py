"""Spans around the public functions of conemetrics, installed from outside.

The program itself carries no instrumentation.  :class:`Tracer` replaces every
public function of the six layer modules (plus ``SvgCanvas.render``, the
``solve_ivp`` that ``geodesics`` imports, and ``scipy.integrate.quad``, which
``metric`` imports at call time) with a wrapper, at every name the function is
bound to, and puts the originals back on :meth:`Tracer.restore`.

Each call is a span whose parent is the innermost traced call still open.
Spans are folded into per-function totals as they close: calls, failed calls
(the function raised), total time, self time (span time minus the time of its
child spans) and, for ``solve_ivp``, the summed ``nfev`` of the returned
solutions.  Parent -> child call counts are kept as well.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import sys
from time import perf_counter

LAYERS = ("forms", "metric", "families", "geodesics", "svg", "cli")


class Stat:
    __slots__ = ("calls", "failed", "total_s", "self_s", "nfev")

    def __init__(self):
        self.calls = 0
        self.failed = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.nfev = 0


def traced_functions():
    """(span name, function) for every function the tracer wraps."""
    import scipy.integrate

    out = []
    for short in LAYERS:
        mod = importlib.import_module(f"conemetrics.{short}")
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and not attr.startswith("_")
                    and obj.__module__ == mod.__name__):
                out.append((f"{short}.{attr}", obj))
    svg = importlib.import_module("conemetrics.svg")
    geodesics = importlib.import_module("conemetrics.geodesics")
    out.append(("svg.SvgCanvas.render", svg.SvgCanvas.render))
    out.append(("geodesics.solve_ivp", geodesics.solve_ivp))
    out.append(("metric.quad", scipy.integrate.quad))
    return out


def _namespaces():
    """Every dict that may hold a binding of a traced function."""
    import scipy.integrate

    svg = importlib.import_module("conemetrics.svg")
    mods = [m for name, m in sorted(sys.modules.items())
            if name == "conemetrics" or name.startswith("conemetrics.")]
    return [(m, vars(m)) for m in mods] + [
        (scipy.integrate, vars(scipy.integrate)),
        (svg.SvgCanvas, vars(svg.SvgCanvas)),
    ]


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.edges: dict[tuple[str, str], int] = {}
        self.active = True
        self._stack: list[list] = []  # open spans: [name, child seconds]
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, Stat())
        stack = self._stack
        edges = self.edges
        count_nfev = name == "geodesics.solve_ivp"

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat.failed += 1
                raise
            finally:
                dt = perf_counter() - t0
                stack.pop()
                stat.calls += 1
                stat.total_s += dt
                stat.self_s += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                key = (parent, name)
                edges[key] = edges.get(key, 0) + 1
            if count_nfev:
                stat.nfev += int(getattr(result, "nfev", 0))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Replace every binding of every traced function with its wrapper."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {id(fn): (fn, self._wrap(name, fn)) for name, fn in traced_functions()}
        for owner, namespace in _namespaces():
            for attr, value in list(namespace.items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((owner, attr, value))
                    setattr(owner, attr, hit[1])

    def restore(self) -> None:
        """Put every original binding back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def suspended(self):
        """Run the benchmark's own checks without recording spans."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    @property
    def bindings(self) -> list[tuple[object, str, object]]:
        return list(self._patches)
