"""Per-layer spans recorded from outside the program.

:class:`LayerTracer` replaces, at class level, every method of every
class defined in a layer's modules with a wrapper, and hooks the
simulator's ``profiler`` dispatch interface (the one
``repro.obs.profiler`` uses), so that

* each dispatched event is a root span of layer ``sim``, and
* each call that crosses into another layer is a child span of the
  span that made it.

A call that stays inside its caller's layer is only counted, not
spanned, which keeps the span list to layer boundaries.  Two methods
always get their own span because metrics need their time alone:
``Packet.clone`` and ``Channel.transmit``.

Spans live in flat arrays (name, start, end, parent) while an episode
runs.  :meth:`LayerTracer.fold` turns them into self time per layer with
:func:`stats.self_times`; the caller may write them out first
(:meth:`LayerTracer.write_spans`).
Wrappers are installed before the deployment is built (bound methods
captured at construction then resolve to them) and removed afterwards;
while the tracer is inactive a wrapper is one attribute test and a call.
Nothing under ``src/`` changes.
"""

from __future__ import annotations

import enum
import functools
import importlib
import inspect
import json
import time
from array import array
from typing import Dict, List, Tuple

from stats import self_times

#: Layer -> the modules of ``src/repro`` that make it up.
LAYER_MODULES: Dict[str, Tuple[str, ...]] = {
    "sim": ("repro.sim.engine", "repro.sim.random"),
    "net": (
        "repro.net.packet",
        "repro.net.link",
        "repro.net.multicast",
        "repro.net.endhost",
        "repro.net.routing",
        "repro.net.topology",
    ),
    "switch": (
        "repro.switch.pisa",
        "repro.switch.control",
        "repro.switch.pipeline",
        "repro.switch.pktgen",
        "repro.switch.memory",
        "repro.switch.objects",
    ),
    "core": (
        "repro.core.manager",
        "repro.core.registers",
        "repro.core.chain",
        "repro.core.pending",
        "repro.core.merge",
    ),
    "protocols.sro": ("repro.protocols.sro",),
    "protocols.ewo": (
        "repro.protocols.ewo",
        "repro.crdt.clock",
        "repro.crdt.gcounter",
        "repro.crdt.lww",
        "repro.crdt.orset",
        "repro.crdt.pncounter",
    ),
    "protocols.controller": (
        "repro.protocols.controller",
        "repro.protocols.election",
        "repro.protocols.failover",
    ),
    "chaos": ("repro.chaos.faults", "repro.chaos.invariants", "repro.chaos.nemesis"),
    "obs": (
        "repro.obs.metrics",
        "repro.obs.flightrec",
        "repro.obs.accessprof",
        "repro.obs.slo",
        "repro.obs.causal",
        "repro.obs.inttel",
        "repro.sim.trace",
    ),
    "nf": (
        "repro.nf.base",
        "repro.nf.firewall",
        "repro.nf.ddos",
        "repro.sketch.countmin",
        "repro.sketch.heavyhitter",
        "repro.sketch.bloom",
    ),
}

LAYERS: Tuple[str, ...] = tuple(LAYER_MODULES)
SIM = LAYERS.index("sim")

#: The kernel's own event loop: the run being measured, not a callee.
_NOT_WRAPPED = {("Simulator", "run"), ("Simulator", "step")}
#: Spanned even when called from their own layer.
ALWAYS_SPANNED = ("Packet.clone", "Channel.transmit")

ROOT = "Simulator.dispatch"


def _methods(cls: type):
    for attr, value in vars(cls).items():
        if attr.startswith("__") and attr.endswith("__"):
            continue
        if (cls.__name__, attr) in _NOT_WRAPPED:
            continue
        if inspect.isfunction(value) and not inspect.isgeneratorfunction(value):
            yield attr, value


class LayerTracer:
    """Counts and spans at layer boundaries; see the module docstring."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.active = False
        self.names: List[str] = [ROOT]
        self.name_layer: List[int] = [SIM]
        self.calls: List[int] = [0]
        self._originals: List[Tuple[type, str, object]] = []
        # Span arrays, cleared in place by fold() (wrappers close over them).
        self.s_name = array("i")
        self.s_parent = array("i")
        self.s_start = array("d")
        self.s_end = array("d")
        self._stack: List[int] = [-1]
        self._layers: List[int] = [-1]
        # Folded totals.
        self.self_by_name: List[float] = [0.0]
        self.spans_by_name: List[int] = [0]
        self.root_s = 0.0

    # -- installation ---------------------------------------------------
    def install(self) -> "LayerTracer":
        if self._originals:
            raise RuntimeError("tracer already installed")
        for layer_index, layer in enumerate(LAYERS):
            for module_name in LAYER_MODULES[layer]:
                module = importlib.import_module(module_name)
                for cls in vars(module).values():
                    if not isinstance(cls, type) or cls.__module__ != module_name:
                        continue
                    if issubclass(cls, (enum.Enum, BaseException)):
                        continue
                    for attr, fn in list(_methods(cls)):
                        name = f"{cls.__name__}.{attr}"
                        name_id = self.add_name(name, layer_index)
                        wrapper = self._wrap(fn, name_id, layer_index, name in ALWAYS_SPANNED)
                        self._originals.append((cls, attr, fn))
                        setattr(cls, attr, wrapper)
        return self

    def add_name(self, name: str, layer: int) -> int:
        """Register a wrapped method; returns its name id."""
        self.names.append(name)
        self.name_layer.append(layer)
        self.calls.append(0)
        self.self_by_name.append(0.0)
        self.spans_by_name.append(0)
        return len(self.names) - 1

    def uninstall(self) -> None:
        for cls, attr, fn in reversed(self._originals):
            setattr(cls, attr, fn)
        self._originals.clear()

    def _wrap(self, fn, name_id: int, layer: int, always: bool):
        tracer = self
        calls = self.calls
        stack, layers = self._stack, self._layers
        s_name, s_parent, s_start, s_end = self.s_name, self.s_parent, self.s_start, self.s_end
        clock = self.clock

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            calls[name_id] += 1
            if not always and layers[-1] == layer:
                return fn(*args, **kwargs)
            index = len(s_name)
            s_name.append(name_id)
            s_parent.append(stack[-1])
            s_end.append(0.0)
            stack.append(index)
            layers.append(layer)
            s_start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                s_end[index] = clock()
                stack.pop()
                layers.pop()

        return functools.update_wrapper(wrapper, fn)

    # -- the simulator's profiler interface -----------------------------
    def dispatch(self, event) -> None:
        """Run one event as a root span (``Simulator.profiler`` hook)."""
        if not self.active:
            event.callback(*event.args)
            return
        index = len(self.s_name)
        self.calls[0] += 1
        self.s_name.append(0)
        self.s_parent.append(-1)
        self.s_end.append(0.0)
        self._stack.append(index)
        self._layers.append(SIM)
        self.s_start.append(self.clock())
        try:
            event.callback(*event.args)
        finally:
            self.s_end[index] = self.clock()
            self._stack.pop()
            self._layers.pop()

    # -- results --------------------------------------------------------
    def write_spans(self, path: str) -> None:
        """Write the current spans: one JSON header line (span count, the
        name and layer tables, array layout), then the raw name, parent,
        start and end arrays in that order."""
        header = {
            "count": len(self.s_name),
            "names": self.names,
            "layers": [LAYERS[layer] for layer in self.name_layer],
            "arrays": [
                ["name", self.s_name.typecode],
                ["parent", self.s_parent.typecode],
                ["start_s", self.s_start.typecode],
                ["end_s", self.s_end.typecode],
            ],
        }
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode("utf-8") + b"\n")
            for arr in (self.s_name, self.s_parent, self.s_start, self.s_end):
                arr.tofile(out)

    def fold(self) -> int:
        """Add the current spans' self times to the totals and clear them.
        Returns the number of spans folded."""
        selfs = self_times(self.s_start, self.s_end, self.s_parent)
        for i, own in enumerate(selfs):
            name_id = self.s_name[i]
            self.self_by_name[name_id] += own
            self.spans_by_name[name_id] += 1
            if self.s_parent[i] < 0:
                self.root_s += self.s_end[i] - self.s_start[i]
        folded = len(self.s_name)
        for arr in (self.s_name, self.s_parent, self.s_start, self.s_end):
            del arr[:]
        return folded

    def calls_of(self, name: str) -> int:
        return sum(c for n, c in zip(self.names, self.calls) if n == name)

    def calls_matching(self, layer: str, method: str) -> int:
        """Calls of every ``<Class>.<method>`` in ``layer``."""
        index = LAYERS.index(layer)
        return sum(
            c
            for n, l, c in zip(self.names, self.name_layer, self.calls)
            if l == index and n.rsplit(".", 1)[1] == method
        )

    def self_of(self, name: str) -> float:
        return sum(s for n, s in zip(self.names, self.self_by_name) if n == name)

    def layer_self(self, traced_wall: float) -> Dict[str, float]:
        """Self seconds per layer.  The kernel loop between events lies
        in no span; it belongs to ``sim``, so the layers sum to
        ``traced_wall``."""
        out = {layer: 0.0 for layer in LAYERS}
        for name_id, own in enumerate(self.self_by_name):
            out[LAYERS[self.name_layer[name_id]]] += own
        out["sim"] += traced_wall - self.root_s
        return out

    def entries(self, layer: str) -> int:
        """Calls into ``layer`` from another layer (its spans)."""
        index = LAYERS.index(layer)
        return sum(
            n
            for name_id, n in enumerate(self.spans_by_name)
            if self.name_layer[name_id] == index
        )
