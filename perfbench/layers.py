"""Per-layer span tracer for the benchmark's traced run.

The tracer wraps the entry points of each simulator layer from outside
the program: every public and special method (constructors included) of
the classes a layer defines, every callback handed to
``Simulator.schedule``/``schedule_at`` (attributed to the callback's
module), and every listener handed to a queue, a sender or the event bus.
A call that enters a layer from a different layer opens a span; a call
that stays inside its layer does not, so ``calls`` counts boundary
crossings. Spans are not stored: each one is folded on exit into
per-(layer, parent) call counts and times, and into the layer's self
time (span time minus its child spans).

Wrappers must be installed before any component is built, because
``Link`` and ``NetemDelay`` keep ``sim.schedule`` bound at construction.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import time
from types import FunctionType
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.sim.engine import Simulator, event_pending

#: The layers, named after their modules under ``repro``. A module
#: belongs to the first layer that is it or a package containing it.
LAYERS: Tuple[str, ...] = (
    "core.experiment",
    "sim.engine",
    "sim.link",
    "sim.queue",
    "sim.netem",
    "tcp.connection",
    "tcp.rangeset",
    "tcp.rtt",
    "tcp.rate_sample",
    "tcp.cca",
    "obs",
    "instrumentation",
)

#: Parent name of spans the benchmark itself opens.
ROOT = "bench"

#: Methods whose first callable argument is a listener another layer
#: will call back; the listener is wrapped so that call is a span.
_LISTENER_METHODS = (
    "add_cwnd_listener",
    "add_enqueue_listener",
    "add_drop_listener",
    "subscribe",
)

#: Engine methods with their own wrappers below.
_ENGINE_SPECIAL = ("schedule", "schedule_at", "cancel")


def layer_of_module(module: Optional[str]) -> Optional[str]:
    if not module or not module.startswith("repro."):
        return None
    rel = module[len("repro."):]
    for layer in LAYERS:
        if rel == layer or rel.startswith(layer + "."):
            return layer
    return None


def _layer_modules() -> List[Any]:
    modules = []
    for layer in LAYERS:
        module = importlib.import_module("repro." + layer)
        modules.append(module)
        if hasattr(module, "__path__"):
            for info in pkgutil.iter_modules(module.__path__):
                modules.append(importlib.import_module(f"{module.__name__}.{info.name}"))
    return modules


class LayerTracer:
    """Aggregated spans and engine counters for one traced run."""

    clock = staticmethod(time.perf_counter)

    def __init__(self) -> None:
        self._stack: List[str] = [ROOT]
        self._child: List[float] = [0.0]
        self.calls: Dict[Tuple[str, str], int] = {}
        self.span_s: Dict[Tuple[str, str], float] = {}
        self.self_s: Dict[str, float] = {}
        self.schedules = 0
        self.cancels = 0
        self.peak_pending = 0
        self._code_layers: Dict[Any, Optional[str]] = {}
        self._undo: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------

    def _call(self, layer: str, fn: Callable[..., Any], args: Any, kwargs: Any) -> Any:
        parent = self._stack[-1]
        if parent == layer:
            return fn(*args, **kwargs)
        stack, child = self._stack, self._child
        stack.append(layer)
        child.append(0.0)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = self.clock() - start
            stack.pop()
            inner = child.pop()
            child[-1] += elapsed
            key = (layer, parent)
            self.calls[key] = self.calls.get(key, 0) + 1
            self.span_s[key] = self.span_s.get(key, 0.0) + elapsed
            self.self_s[layer] = self.self_s.get(layer, 0.0) + elapsed - inner

    def wrap(self, fn: Callable[..., Any], layer: str) -> Callable[..., Any]:
        """``fn`` with every call from outside ``layer`` recorded as a span."""
        call = self._call

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return call(layer, fn, args, kwargs)

        wrapper._bench_layer = layer  # type: ignore[attr-defined]
        return wrapper

    def _callback_layer(self, fn: Any) -> Optional[str]:
        """The layer of a callback's module; ``None`` for callbacks that
        are wrapped already or belong to no layer."""
        func = getattr(fn, "__func__", fn)
        code = getattr(func, "__code__", None)
        if code is None or hasattr(func, "_bench_layer"):
            return None
        try:
            return self._code_layers[code]
        except KeyError:
            layer = self._code_layers[code] = layer_of_module(getattr(func, "__module__", None))
            return layer

    def _dispatch(self, fn: Any, args: Any) -> Any:
        """What the engine calls in place of a scheduled callback."""
        layer = self._callback_layer(fn)
        if layer is None:
            return fn(*args)
        return self._call(layer, fn, args, {})

    def _wrap_listener(self, fn: Any) -> Any:
        layer = self._callback_layer(fn)
        return fn if layer is None else self.wrap(fn, layer)

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------

    def _patch(self, owner: Any, name: str, new: Any) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    def install(self) -> "LayerTracer":
        for module in _layer_modules():
            layer = layer_of_module(module.__name__)
            assert layer is not None
            for cls in list(vars(module).values()):
                if isinstance(cls, type) and cls.__module__ == module.__name__:
                    self._install_class(cls, layer)
        self._install_engine()
        return self

    def _install_class(self, cls: type, layer: str) -> None:
        for name, attr in list(vars(cls).items()):
            if not isinstance(attr, FunctionType):
                continue  # properties, static/class methods, nested classes
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                continue  # private helpers run inside their layer's span
            if cls is Simulator and name in _ENGINE_SPECIAL:
                continue
            if name in _LISTENER_METHODS:
                attr = self._listener_taker(attr)
            self._patch(cls, name, self.wrap(attr, layer))

    def _listener_taker(self, method: Callable[..., Any]) -> Callable[..., Any]:
        wrap_listener = self._wrap_listener

        @functools.wraps(method)
        def taker(obj: Any, *args: Any, **kwargs: Any) -> Any:
            args = tuple(wrap_listener(a) if callable(a) else a for a in args)
            return method(obj, *args, **kwargs)

        return taker

    def _install_engine(self) -> None:
        schedule, schedule_at, cancel = Simulator.schedule, Simulator.schedule_at, Simulator.cancel
        dispatch = self._dispatch
        tracer = self

        def note_pending(sim: Simulator) -> None:
            tracer.schedules += 1
            pending = sim.pending_events
            if pending > tracer.peak_pending:
                tracer.peak_pending = pending

        def traced_schedule(sim: Simulator, delay: float, fn: Any, *args: Any) -> Any:
            event = schedule(sim, delay, dispatch, fn, args)
            note_pending(sim)
            return event

        def traced_schedule_at(sim: Simulator, at: float, fn: Any, *args: Any) -> Any:
            event = schedule_at(sim, at, dispatch, fn, args)
            note_pending(sim)
            return event

        def traced_cancel(sim: Simulator, event: Any) -> None:
            if event_pending(event):
                tracer.cancels += 1
            cancel(sim, event)

        for name, fn in (
            ("schedule", traced_schedule),
            ("schedule_at", traced_schedule_at),
            ("cancel", traced_cancel),
        ):
            self._patch(Simulator, name, self.wrap(fn, "sim.engine"))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def layer_calls(self, layer: str) -> int:
        return sum(n for (callee, _), n in self.calls.items() if callee == layer)

    def ledger(self) -> List[Tuple[str, str, int, float]]:
        """``(layer, parent, calls, span seconds)`` rows, busiest first."""
        rows = [(k[0], k[1], n, self.span_s[k]) for k, n in self.calls.items()]
        return sorted(rows, key=lambda r: (-r[3], r[0], r[1]))
