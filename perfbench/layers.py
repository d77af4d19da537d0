"""Per-layer tracing by wrapping the program's public methods from outside.

:class:`LayerTracer` replaces a fixed list of class methods (and two
module functions) with timing wrappers.  Every call records a span --
layer name, start, end, parent span, op id -- and adds to its layer's
exact call count and host self time (the span's duration minus the
time its child spans cover).  No file under ``src/`` changes.

The wrappers must be installed before any machine is built: the fast
execution tiers bind ``machine.protocol.read``/``write`` when they
compile a processor's batch loop, so a machine built earlier would keep
the unwrapped methods.

Spans are kept in memory, up to :data:`SPAN_CAP` of them, and written
once when the run ends, in the Chrome Trace Event format that
``repro export-trace`` also writes; Perfetto (ui.perfetto.dev) and
``chrome://tracing`` open the file.  Calls past the cap still count
toward the per-layer totals.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from time import perf_counter
from typing import Dict, List, Optional, Tuple

#: (layer, module, class or None for a module function, attribute).
#: Two methods may share a layer; their counts and times add.
WRAPPED: Tuple[Tuple[str, str, Optional[str], str], ...] = (
    ("machine.build", "repro.machine.system", "Machine", "__init__"),
    ("machine.restore", "repro.machine.system", "Machine", "restore"),
    ("coherence.read", "repro.coherence.protocol", "ProtocolEngine",
     "read"),
    ("coherence.write", "repro.coherence.protocol", "ProtocolEngine",
     "write"),
    ("coherence.writeback", "repro.coherence.protocol", "ProtocolEngine",
     "writeback"),
    ("core.store_intent", "repro.core.controller", "ReViveController",
     "on_store_intent"),
    ("core.memory_write", "repro.core.controller", "ReViveController",
     "on_memory_write"),
    ("core.parity_update", "repro.core.parity", "ParityEngine",
     "time_update"),
    ("core.checkpoint", "repro.core.checkpoint", "CheckpointCoordinator",
     "run_checkpoint"),
    ("core.recover", "repro.core.recovery", "RecoveryManager", "recover"),
    ("core.log_decode", "repro.core.log", "MemoryLog", "decode_region"),
    ("core.parity_rebuild", "repro.core.parity", "ParityEngine",
     "reconstruct_line"),
    ("core.parity_rebuild", "repro.core.parity", "ParityEngine",
     "recompute_parity_line"),
    ("network.send", "repro.network.network", "Network", "send"),
    ("memory.dram", "repro.memory.dram", "MemoryTimingModel", "access"),
    ("harness.store_get", "repro.harness.store", "ResultStore", "get"),
    ("harness.store_put", "repro.harness.store", "ResultStore", "put"),
    # The campaign unpickles its warm image between the store lookup
    # and Machine.restore; without this span that time is unattributed.
    ("harness.image_unpickle", "pickle", None, "loads"),
)

#: Layer of ``Resource.acquire``, wrapped on every class defining it.
ACQUIRE_LAYER = "sim.acquire"

#: Layer of the serve client's request stream (a generator function).
SUBMIT_LAYER = "serve.submit"

#: Spans kept for the Chrome trace; later calls are counted only.
SPAN_CAP = 100_000


class LayerTracer:
    """Installs the wrappers and accumulates per-layer totals."""

    def __init__(self) -> None:
        self.layers: List[str] = []
        self._index: Dict[str, int] = {}
        self.calls: List[int] = []
        self.self_s: List[float] = []
        self.total_s: List[float] = []
        #: Open spans: [span id, child seconds].
        self._stack: List[list] = []
        self._next_id = 0
        #: Kept spans: (layer index, start, end, span id, parent, op).
        self.spans: List[Tuple[int, float, float, int, int, int]] = []
        self.op_id = -1
        #: Seconds inside outermost wrapped calls, per op id.
        self.covered: Dict[int, float] = {}
        self._originals: List[Tuple[object, str, object]] = []
        #: Machines the current op ran (for simulated per-layer values).
        self.machines: List[object] = []
        self.warmup: Dict[int, Tuple[float, int]] = {}
        self.run_split: Dict[str, float] = {"firsttouch_s": 0.0,
                                            "steady_s": 0.0}
        self.refs = 0
        self.store_gets = 0
        self.store_hits = 0
        self.serve_timing: List[Dict] = []
        self.serve_done: List[Dict] = []

    # -- bookkeeping -----------------------------------------------------

    def _layer(self, name: str) -> int:
        index = self._index.get(name)
        if index is None:
            index = self._index[name] = len(self.layers)
            self.layers.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
        return index

    def _enter(self) -> Tuple[int, int, list]:
        span = self._next_id
        self._next_id += 1
        stack = self._stack
        parent = stack[-1][0] if stack else -1
        frame = [span, 0.0]
        stack.append(frame)
        return span, parent, frame

    def _exit(self, layer: int, span: int, parent: int, frame: list,
              start: float, end: float) -> None:
        stack = self._stack
        stack.pop()
        duration = end - start
        if stack:
            stack[-1][1] += duration
        else:
            op = self.op_id
            self.covered[op] = self.covered.get(op, 0.0) + duration
        self.calls[layer] += 1
        self.self_s[layer] += duration - frame[1]
        self.total_s[layer] += duration
        if len(self.spans) < SPAN_CAP:
            self.spans.append((layer, start, end, span, parent, self.op_id))

    # -- wrappers --------------------------------------------------------

    def _wrap(self, layer_name: str, fn):
        layer = self._layer(layer_name)
        enter, leave = self._enter, self._exit
        clock = perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span, parent, frame = enter()
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                leave(layer, span, parent, frame, start, clock())
        return wrapper

    def _wrap_generator(self, layer_name: str, fn):
        layer = self._layer(layer_name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span, parent, frame = tracer._enter()
            start = perf_counter()
            try:
                for event in fn(*args, **kwargs):
                    name = event.get("name")
                    if name == "svc.timing":
                        tracer.serve_timing.append(event["phases"])
                    elif name == "svc.done":
                        tracer.serve_done.append(
                            {"jobs": event["jobs"],
                             "cached": event["cached"]})
                    yield event
            finally:
                tracer._exit(layer, span, parent, frame, start,
                             perf_counter())
        return wrapper

    def _replace(self, owner, attr: str, wrapper) -> None:
        self._originals.append((owner, attr, owner.__dict__[attr]
                                if isinstance(owner, type)
                                else getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self, serve_client: bool = False) -> None:
        """Wrap every layer; call before the first machine is built."""
        for layer_name, module_name, cls_name, attr in WRAPPED:
            module = importlib.import_module(module_name)
            owner = getattr(module, cls_name) if cls_name else module
            self._replace(owner, attr,
                          self._wrap(layer_name, getattr(owner, attr)))
        self._install_acquire()
        self._install_machine_hooks()
        if serve_client:
            client = importlib.import_module("repro.serve.client")
            self._replace(client, "submit", self._wrap_generator(
                SUBMIT_LAYER, client.submit))
        self._install_store_hits()

    def uninstall(self) -> None:
        """Put every original back (reverse order of installation)."""
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def _install_acquire(self) -> None:
        resources = importlib.import_module("repro.sim.resources")
        for _name, cls in inspect.getmembers(resources, inspect.isclass):
            if cls.__module__ == resources.__name__ \
                    and "acquire" in cls.__dict__:
                self._replace(cls, "acquire", self._wrap(
                    ACQUIRE_LAYER, cls.__dict__["acquire"]))

    def _install_machine_hooks(self) -> None:
        """Machine.run / note_warmup_done: the first-touch/steady split.

        The hook reads the reference counters around the
        ``machine.run`` span, so those reads are never charged to a
        layer the program owns.
        """
        system = importlib.import_module("repro.machine.system")
        machine_cls = system.Machine
        run = machine_cls.__dict__["run"]
        warmup = machine_cls.__dict__["note_warmup_done"]
        tracer = self

        span_run = self._wrap("machine.run", run)

        @functools.wraps(run)
        def run_hook(machine, *args, **kwargs):
            if not any(m is machine for m in tracer.machines):
                tracer.machines.append(machine)
            refs_before = machine.total_mem_refs()
            was_warm = getattr(machine, "_warmup_reset_done", False)
            start = perf_counter()
            try:
                return span_run(machine, *args, **kwargs)
            finally:
                end = perf_counter()
                refs_after = machine.total_mem_refs()
                mark = tracer.warmup.pop(id(machine), None)
                if mark is not None:
                    mark_time, warm_refs = mark
                    tracer.run_split["firsttouch_s"] += mark_time - start
                    tracer.run_split["steady_s"] += end - mark_time
                    tracer.refs += warm_refs - refs_before + refs_after
                else:
                    key = "steady_s" if was_warm else "firsttouch_s"
                    tracer.run_split[key] += end - start
                    tracer.refs += refs_after - refs_before

        @functools.wraps(warmup)
        def warmup_hook(machine):
            if not getattr(machine, "_warmup_reset_done", False):
                tracer.warmup[id(machine)] = (perf_counter(),
                                              machine.total_mem_refs())
            return warmup(machine)

        self._replace(machine_cls, "run", run_hook)
        self._replace(machine_cls, "note_warmup_done", warmup_hook)

    def _install_store_hits(self) -> None:
        store = importlib.import_module("repro.harness.store")
        get = store.ResultStore.__dict__["get"]
        tracer = self

        @functools.wraps(get)
        def counted_get(self, key):
            entry = get(self, key)
            tracer.store_gets += 1
            tracer.store_hits += entry is not None
            return entry
        self._replace(store.ResultStore, "get", counted_get)

    # -- results ---------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        """Tag spans with ``op_id`` and forget the previous op's machines."""
        self.op_id = op_id
        self.machines = []

    def totals(self) -> Dict[str, Dict[str, float]]:
        """``{layer: {"calls", "self_s", "total_s"}}`` for every layer."""
        return {name: {"calls": self.calls[i], "self_s": self.self_s[i],
                       "total_s": self.total_s[i]}
                for i, name in enumerate(self.layers)}

    def chrome_events(self, pid: int, origin: float) -> List[Dict]:
        """Kept spans as Chrome Trace complete ("X") events."""
        events = []
        for layer, start, end, span, parent, op in self.spans:
            events.append({
                "name": self.layers[layer], "cat": "layer", "ph": "X",
                "pid": pid, "tid": 0,
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "args": {"span": span, "parent": parent, "op": op}})
        return events


def write_chrome_trace(path: str, events: List[Dict],
                       metadata: Dict) -> None:
    """Write ``{"traceEvents": [...], "metadata": {...}}`` to ``path``."""
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                   "metadata": metadata}, handle)
