"""Layer tracing from outside the program: spans aggregated per layer.

:class:`LayerTracer` is installed before any ``Network`` is built. It

- wraps every method (and ``__init__``) of every class defined in a
  ``repro`` module, so each call that crosses from one layer into another
  opens a span of the callee's layer (calls inside one layer pass straight
  through);
- wraps ``Simulator.schedule``/``schedule_at``/``cancel`` as spans of the
  kernel and tags each scheduled callback that is not already a traced
  method (closures, lambdas) with the layer of the module it was defined
  in;
- counts calls per method, which gives the traced work counts (CCA
  calls, noise samples, receptions, route evaluations, link-ETX reads).

Spans are aggregated in memory per phase and layer: count, inclusive time,
and self time (inclusive minus nested spans). Frame handlers and
``radio.on_receive`` bind methods at construction and ``start()``, which is
why the wrappers must be in place first. Wrappers only time and forward
their call, so the simulated outputs stay bit-identical.
"""

from __future__ import annotations

import enum
import functools
import sys
import time
import types
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Layer names in report order. ``sim`` is the kernel: its self time is the
#: run loop plus schedule/cancel; ``noise`` is reported inside ``radio``.
LAYERS = (
    "sim",
    "channel",
    "radio",
    "noise",
    "lpl",
    "net",
    "allocation",
    "forwarding",
    "endurance",
    "interference",
    "topology",
    "other",
)

#: Module prefix -> layer; the longest matching prefix wins, anything else
#: in ``repro`` is ``other``.
MODULE_LAYERS = {
    "repro.sim": "sim",
    "repro.radio.channel": "channel",
    "repro.radio.spatial": "channel",
    "repro.radio.propagation": "channel",
    "repro.radio.radio": "radio",
    "repro.radio.cc2420": "radio",
    "repro.radio.profiles": "radio",
    "repro.radio.frame": "radio",
    "repro.radio.noise": "noise",
    "repro.mac": "lpl",
    "repro.net": "net",
    "repro.core.allocation": "allocation",
    "repro.core.childtable": "allocation",
    "repro.core.pathcode": "allocation",
    "repro.core.neighbortable": "allocation",
    "repro.core": "forwarding",
    "repro.protocols": "forwarding",
    "repro.topology.mobility": "endurance",
    "repro.radio.battery": "endurance",
    "repro.radio.energy": "endurance",
    "repro.faults": "endurance",
    "repro.metrics.streaming": "endurance",
    "repro.workloads.interference": "interference",
    "repro.topology": "topology",
}

_LAYER_INDEX = {name: i for i, name in enumerate(LAYERS)}
_KERNEL_MODULES = ("repro.sim.simulator", "repro.sim.events")
_PHASES = ("run", "setup", "outside")


def layer_of(module: Optional[str]) -> str:
    """The layer a module belongs to (``other`` outside the map)."""
    if not module:
        return "other"
    best = ""
    for prefix in MODULE_LAYERS:
        if (module == prefix or module.startswith(prefix + ".")) and len(prefix) > len(best):
            best = prefix
    return MODULE_LAYERS[best] if best else "other"


class _Acc:
    """Per-layer span totals of one phase."""

    def __init__(self) -> None:
        n = len(LAYERS)
        self.count = [0] * n
        self.incl = [0.0] * n
        self.self_ = [0.0] * n
        #: Inclusive time of spans opened with no span around them.
        self.top = 0.0


class LayerTracer:
    """Install with ``with LayerTracer():``; read :attr:`phases` afterwards."""

    def __init__(self) -> None:
        self.phases: Dict[str, _Acc] = {name: _Acc() for name in _PHASES}
        self._acc = self.phases["outside"]
        self._stack: List[List[Any]] = []
        #: Calls per wrapped method, keyed ``module.Class.method``.
        self.calls: Dict[str, List[int]] = {}
        #: Route evaluations that changed the parent, path ETX or hop count.
        self.route_changes = 0
        self._patches: List[Tuple[type, str, Any]] = []
        self._module_layer: Dict[str, int] = {}

    # ------------------------------------------------------------- phases
    def set_phase(self, name: str) -> None:
        """Accumulate subsequent spans into ``name``'s totals."""
        self._acc = self.phases[name]

    def on_run(self, entering: bool) -> None:
        self.set_phase("run" if entering else "outside")

    def on_setup(self, entering: bool) -> None:
        self.set_phase("setup" if entering else "outside")

    def calls_of(self, qualname: str) -> int:
        """Calls counted for ``module.Class.method`` (0 if never wrapped)."""
        cell = self.calls.get(qualname)
        return cell[0] if cell else 0

    # ------------------------------------------------------------ wrapping
    def _span(
        self, fn: Callable[..., Any], layer: int, key: str, named: bool = True
    ) -> Callable[..., Any]:
        stack = self._stack
        clock = time.perf_counter
        counter = self.calls.setdefault(key, [0])
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            counter[0] += 1
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                acc = tracer._acc
                acc.count[layer] += 1
                acc.incl[layer] += elapsed
                acc.self_[layer] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                else:
                    acc.top += elapsed

        if named:
            functools.update_wrapper(traced, fn)
        traced._pb_layer = layer  # type: ignore[attr-defined]
        return traced

    def _layer_index(self, module: Optional[str]) -> int:
        key = module or ""
        index = self._module_layer.get(key)
        if index is None:
            index = self._module_layer[key] = _LAYER_INDEX[layer_of(module)]
        return index

    def _patch(self, owner: type, name: str, value: Any) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _dispatch(self, callback: Callable[..., Any]) -> Callable[..., Any]:
        """A scheduled callback, as a span of its defining module's layer."""
        func = getattr(callback, "__func__", callback)
        if getattr(func, "_pb_layer", None) is not None:
            return callback  # a traced method opens its own span
        module = getattr(callback, "__module__", None)
        return self._span(callback, self._layer_index(module), "dispatch", named=False)

    def __enter__(self) -> "LayerTracer":
        from repro.sim.simulator import Simulator

        for module_name, module in sorted(sys.modules.items()):
            if not module_name.startswith("repro.") or module is None:
                continue
            if module_name in _KERNEL_MODULES:
                continue
            layer = self._layer_index(module_name)
            for cls in list(vars(module).values()):
                if not isinstance(cls, type) or cls.__module__ != module_name:
                    continue
                if issubclass(cls, (enum.Enum, tuple, BaseException)):
                    continue
                if getattr(cls, "_is_protocol", False):
                    continue
                if cls.__name__ == "Network":
                    continue  # the clock times its construction
                for name, value in list(vars(cls).items()):
                    if not isinstance(value, types.FunctionType):
                        continue
                    if name.startswith("__") and name not in ("__init__", "__call__"):
                        continue
                    key = f"{module_name}.{cls.__qualname__}.{name}"
                    self._patch(cls, name, self._span(value, layer, key))

        sim_layer = _LAYER_INDEX["sim"]
        schedule = Simulator.schedule
        schedule_at = Simulator.schedule_at
        dispatch = self._dispatch

        def schedule_tagged(sim: Any, delay: int, callback: Any, *args: Any) -> Any:
            return schedule(sim, delay, dispatch(callback), *args)

        def schedule_at_tagged(sim: Any, when: int, callback: Any, *args: Any) -> Any:
            return schedule_at(sim, when, dispatch(callback), *args)

        kernel = "repro.sim.simulator.Simulator."
        for name, method in (
            ("schedule", schedule_tagged),
            ("schedule_at", schedule_at_tagged),
            ("cancel", Simulator.cancel),
        ):
            self._patch(Simulator, name, self._span(method, sim_layer, kernel + name))
        self._probe_route_evaluation()
        return self

    def _probe_route_evaluation(self) -> None:
        """Count route evaluations that changed anything (CTP rescans).

        ``_evaluate_route`` is private: if a later version renames it, the
        route-evaluation metrics read 0 instead of the benchmark failing.
        """
        from repro.net.ctp import CtpRouting

        evaluate = CtpRouting.__dict__.get("_evaluate_route")
        if evaluate is None:
            return
        tracer = self

        @functools.wraps(evaluate)
        def probed(routing: Any) -> None:
            before = (routing.parent, routing.path_etx, routing.hop_count)
            evaluate(routing)
            if (routing.parent, routing.path_etx, routing.hop_count) != before:
                tracer.route_changes += 1

        probed._pb_layer = getattr(evaluate, "_pb_layer", None)  # type: ignore[attr-defined]
        self._patch(CtpRouting, "_evaluate_route", probed)

    def __exit__(self, *exc: object) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()
