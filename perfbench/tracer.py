"""Outside-in span tracing of the ``repro`` layers.

:func:`install` replaces every public function and method of the modules in
:data:`LAYERS` with a wrapper that records a span (id, parent, function,
start, end) and charges the span's *self* time -- its duration minus the
time covered by its child spans -- to the function's layer.  Nothing under
``src/`` is edited: the wrappers are set on the classes and modules at run
time and :meth:`Tracer.uninstall` puts the originals back.

What the wrappers cannot see is charged to the nearest traced caller:
private helpers (``_run_slice``, ``SimClient._submit``), properties, and
closures run inside the span of the public function that called them.  The
one exception is the event loop's dispatch, a layer boundary of its own:
private methods scheduled on the loop get spans too.  Coroutine functions
are left alone because their spans would interleave on the asyncio loop;
the live layer is measured from the outside instead.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
from array import array
from pathlib import Path
from time import perf_counter
from types import FunctionType, MethodType

#: Module prefix -> layer.  The longest matching prefix wins.
LAYERS: dict[str, str] = {
    "repro.simulator.simulation": "engine",
    "repro.simulator.engine": "engine",
    "repro.simulator.kernel": "kernel",
    "repro.simulator.workload": "workload",
    "repro.simulator.client": "client",
    "repro.simulator.request": "client",
    "repro.simulator.server": "server",
    "repro.simulator.network": "network",
    "repro.simulator.metrics": "metrics",
    "repro.analysis.percentiles": "metrics",
    "repro.simulator.fluctuation": "scenarios",
    "repro.scenarios": "scenarios",
    "repro.analysis.histogram": "histogram",
    "repro.strategies": "strategies",
    "repro.core.config": "strategies",
    "repro.core.scoring": "core.scoring",
    "repro.core.feedback": "core.scoring",
    "repro.core.rate_control": "core.rate_control",
    "repro.core.cubic": "core.rate_control",
    "repro.core.ewma": "core.ewma",
    "repro.core.scheduler": "core.scheduler",
    "repro.core.backpressure": "core.scheduler",
    "repro.controls": "controls",
    "repro.runner.spec": "runner.payload",
    "repro.runner.results": "runner.aggregate",
    "repro.analysis.aggregate": "runner.aggregate",
    "repro.runner": "runner",
    "repro.live": "live",
}


def traced_modules() -> list[str]:
    """Every module of the ``repro`` package that belongs to a layer."""
    import repro

    names = [info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")]
    return [name for name in names if layer_of(name) is not None]


def layer_of(module: str) -> str | None:
    """The layer a module belongs to, by longest matching prefix."""
    best = None
    for prefix, layer in LAYERS.items():
        if (module == prefix or module.startswith(prefix + ".")) and (
            best is None or len(prefix) > len(best[0])
        ):
            best = (prefix, layer)
    return best[1] if best else None


class Tracer:
    """Span recorder plus per-layer self time and per-function counters."""

    def __init__(self) -> None:
        self.layers: list[str] = sorted(set(LAYERS.values()))
        self.functions: list[str] = []
        self._fn_layer: list[int] = []
        self.self_time = [0.0] * len(self.layers)
        self.calls: list[int] = []
        self.falses: list[int] = []
        self.inclusive: list[float] = []
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_fn = array("I")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ wrapping
    def wrap(self, fn, qualname: str, layer: str):
        """A span-recording wrapper around ``fn`` charged to ``layer``."""
        index = len(self.functions)
        self.functions.append(qualname)
        self._fn_layer.append(self.layers.index(layer))
        self.calls.append(0)
        self.falses.append(0)
        self.inclusive.append(0.0)
        layer_index = self._fn_layer[index]
        stack = self._stack
        self_time, calls, falses, inclusive = self.self_time, self.calls, self.falses, self.inclusive
        ids, parents, fns = self.span_id, self.span_parent, self.span_fn
        starts, ends = self.span_start, self.span_end
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._next_id
            tracer._next_id = span + 1
            parent = stack[-1][0] if stack else -1
            frame = [span, 0.0]
            stack.append(frame)
            start = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                self_time[layer_index] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                calls[index] += 1
                inclusive[index] += duration
                if result is False:
                    falses[index] += 1
                ids.append(span)
                parents.append(parent)
                fns.append(index)
                starts.append(start)
                ends.append(end)

        return traced

    def install(self, modules: list[str] | None = None) -> "Tracer":
        """Wrap the public functions and methods of ``modules`` (default:
        every ``repro`` module that belongs to a layer)."""
        originals: dict[int, object] = {}
        for name in traced_modules() if modules is None else modules:
            module = importlib.import_module(name)
            layer = layer_of(name)
            for attr, value in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if _plain_function(value) and value.__module__ == name:
                    wrapped = self.wrap(value, f"{name}.{attr}", layer)
                    originals[id(value)] = wrapped
                    self._set(module, attr, value, wrapped)
                elif inspect.isclass(value) and value.__module__ == name:
                    self._wrap_class(value, name, layer)
        # Rebind names other modules imported with ``from x import f``.
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                wrapped = originals.get(id(value))
                if wrapped is not None and value is not wrapped:
                    self._set(module, attr, value, wrapped)
        self._trace_event_callbacks()
        return self

    def _trace_event_callbacks(self) -> None:
        """Give each event the loop dispatches a span of its own.

        The event loop is a layer boundary: a server's ``_finish_service``
        or the workload's ``_arrive`` runs from the loop, not from a public
        caller, and without a span its time would be charged to the engine.
        Scheduling a private bound method swaps in a traced copy of it.
        """
        from repro.simulator.engine import EventLoop

        schedule_at = EventLoop.schedule_at
        traced_for: dict[object, object] = {}

        @functools.wraps(schedule_at)
        def traced_schedule_at(loop, time, callback, *args, **kwargs):
            func = getattr(callback, "__func__", None)
            if func is not None and not hasattr(func, "__wrapped__"):
                traced = traced_for.get(func)
                if traced is None:
                    layer = layer_of(func.__module__)
                    traced = func if layer is None else self.wrap(func, f"{func.__module__}.{func.__qualname__}", layer)
                    traced_for[func] = traced
                if traced is not func:
                    callback = MethodType(traced, callback.__self__)
            return schedule_at(loop, time, callback, *args, **kwargs)

        self._set(EventLoop, "schedule_at", schedule_at, traced_schedule_at)

    def _wrap_class(self, cls: type, module: str, layer: str) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            qualname = f"{module}.{cls.__name__}.{attr}"
            if isinstance(value, (staticmethod, classmethod)) and _plain_function(value.__func__):
                self._set(cls, attr, value, type(value)(self.wrap(value.__func__, qualname, layer)))
            elif _plain_function(value):
                self._set(cls, attr, value, self.wrap(value, qualname, layer))

    def _set(self, owner, attr: str, original, replacement) -> None:
        self._patched.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        """Put every original function back."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # ------------------------------------------------------------- reading
    def layer_self(self) -> dict[str, float]:
        """Self seconds per layer."""
        return dict(zip(self.layers, self.self_time))

    def count(self, suffix: str) -> int:
        """Calls of every traced function whose name ends with ``suffix``."""
        return sum(c for f, c in zip(self.functions, self.calls) if f.endswith(suffix))

    def false_count(self, suffix: str) -> int:
        """Calls returning ``False`` of functions whose name ends with ``suffix``."""
        return sum(c for f, c in zip(self.functions, self.falses) if f.endswith(suffix))

    def inclusive_time(self, suffix: str) -> float:
        """Inclusive seconds of every function whose name ends with ``suffix``."""
        return sum(t for f, t in zip(self.functions, self.inclusive) if f.endswith(suffix))

    def flush_spans(self, path: Path) -> Path:
        """Write the spans recorded so far as a compressed ``.npz`` artifact and drop them."""
        import numpy as np

        columns = {
            "id": (self.span_id, np.int64),
            "parent": (self.span_parent, np.int64),
            "function": (self.span_fn, np.uint32),
            "start": (self.span_start, np.float64),
            "end": (self.span_end, np.float64),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            functions=np.array(self.functions),
            function_layer=np.array([self.layers[i] for i in self._fn_layer]),
            **{name: np.array(column, dtype=dtype) for name, (column, dtype) in columns.items()},
        )
        for column, _ in columns.values():
            del column[:]
        return path


def _plain_function(value) -> bool:
    """A synchronous, non-generator Python function."""
    return (
        isinstance(value, FunctionType)
        and not inspect.iscoroutinefunction(value)
        and not inspect.isgeneratorfunction(value)
        and not inspect.isasyncgenfunction(value)
    )
