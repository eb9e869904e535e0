"""Host-time attribution to the simulator's layers, measured from outside.

The traced run never edits the simulator.  :class:`LayerTracer` replaces
each layer's entry points (:data:`BOUNDARIES`) with timing wrappers before
the machine is built, and restores the original class attributes after.
Event callbacks are timed through ``Simulator.enable_profiling`` (whose
clock the tracer supplies) and named through ``Simulator.enable_tracing``;
:data:`LABEL_LAYERS` maps each event label to the layer that scheduled it.

Every timed call is a frame on one stack.  A frame's self time is its
duration minus the time of the frames nested in it, less the tracer's own
bookkeeping, which is kept apart: each frame kind's per-frame cost is
measured on no-op stand-ins with the same wrapper code
(:func:`measure_costs`).  The layers' self and kept times add up to the
traced section's wall time without double counting.  The section itself
is the root frame; its self time is the engine's own loop, charged to
``sim``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from statistics import median
from time import perf_counter
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional, Tuple

from repro.common.units import CACHELINE_SIZE
from repro.sim.engine import Simulator
from repro.sim.packet import Packet, PacketType

#: Layer metric prefixes, in stack order (the interconnect reports as
#: ``xbar``, the name of its stats group).
LAYERS = ("sim", "cpu", "cache", "xbar", "memctrl", "mcsquare", "dram",
          "mem", "copyengine", "os")

UNATTRIBUTED = "unattributed"

#: Frame kinds.  Each wraps its call differently, so each has its own
#: bookkeeping cost: a plain call, a call with a counting observer, one
#: resume of a generator, ``Packet.complete``, and an event callback.
KINDS = ("call", "observed", "resume", "complete", "event")

#: Operations per frame kind in one probe trial, and trials per probe.
PROBE_OPS = 2_000
PROBE_TRIALS = 3

#: Spans kept for the Chrome-trace sample (the first ones recorded).
SPAN_LIMIT = 20_000

#: Entry points wrapped as layer boundaries: (layer, module, class,
#: methods).  Each method must be defined on that class itself.
BOUNDARIES: Tuple[Tuple[str, str, str, Tuple[str, ...]], ...] = (
    ("sim", "repro.sim.engine", "Simulator", ("schedule", "schedule_at")),
    # Where a cache or timer hands control back to the core.
    ("cpu", "repro.cpu.core", "Core",
     ("run_program", "_complete", "_resume_with_value", "_sb_free")),
    ("cache", "repro.cache.hierarchy", "CacheHierarchy",
     ("load", "store", "nt_store", "clwb", "clwb_range", "handle_mclazy",
      "handle_inmem_copy", "handle_mcfree", "bulk_copy")),
    ("xbar", "repro.interconnect.bus", "Interconnect", ("send",)),
    ("memctrl", "repro.memctrl.controller", "MemoryController",
     ("receive", "_handle_read", "_handle_write", "_handle_control",
      "dram_request")),
    # The (MC)2 overrides of the controller's packet hooks; their
    # super() calls land in the memctrl boundaries above.
    ("mcsquare", "repro.mcsquare.controller", "McSquareController",
     ("_handle_read", "_handle_write", "_handle_control")),
    ("mcsquare", "repro.mcsquare.ctt", "CopyTrackingTable",
     ("insert", "lookup_dest_line", "source_lines_for_dest",
      "source_overlaps", "dest_lines_for_source", "remove_dest_range",
      "free_hint", "pop_smallest")),
    ("mcsquare", "repro.mcsquare.bpq", "BouncePendingQueue",
     ("park", "merge", "release", "supersede", "drop", "get", "holds")),
    ("dram", "repro.dram.device", "DramChannel", ("access", "row_copy")),
    ("mem", "repro.mem.backing_store", "BackingStore",
     ("read_line", "write_line", "read", "write", "copy", "fill",
      "line_poisoned", "range_poisoned")),
    # Op generation: generator methods are timed on every resume.
    ("copyengine", "repro.sw.engine", "CopyEngine",
     ("copy_ops", "read_ops", "write_ops")),
    ("copyengine", "repro.sw.engine", "KernelEagerEngine", ("copy_ops",)),
    ("copyengine", "repro.sw.engine", "LazyEngine", ("copy_ops",)),
    ("copyengine", "repro.copyengine.base", "CopyBackend", ("copy_ops",)),
    ("os", "repro.os.vm", "OperatingSystem",
     ("fork", "begin_cow_fault", "complete_cow_fault", "cow_store_ops")),
)

_CPU_LABELS = ("compute-done", "stl-forward", "store-issued", "st-st-order",
               "order-wait", "ntstore-issued", "clwb-issued",
               "clwb-range-issued", "mclazy-issued", "inmem-copy-issued",
               "mcfree-issued", "mfence-done")
_CACHE_LABELS = ("l1-hit", "l2-hit", "store-hit", "store-l2", "refill-hit",
                 "peer-forward", "miss-finish", "clwb-clean",
                 "clwb-range-probe")
_MEMCTRL_LABELS = ("dram-grant", "mc-control-ack", "mc-inmem-ack",
                   "mc-inmem-done", "mc-read-done", "mc-wpq-drain",
                   "mc-wpq-forward", "mc-wpq-next", "mc-write-ack")
_MCSQUARE_LABELS = ("bounce-respond", "bounce-src-read", "bounce-start",
                    "bounce-writeback", "bpq-forward", "bpq-merge-ack",
                    "bpq-overflow-deadline", "bpq-park-ack", "mat-noop",
                    "materialize-line", "materialize-step", "mcfree-ack",
                    "mclazy-ack", "mclazy-eager-fallback", "mclazy-retry")
_XBAR_LABELS = (("xbar-arb",)
                + tuple(f"xbar-{pt.value}" for pt in PacketType)
                + tuple(f"xbar-dup-{pt.value}" for pt in PacketType))

#: Event label -> the layer whose code scheduled it.  ``coreN-pump``
#: labels are matched by :func:`label_layer`.
LABEL_LAYERS: Dict[str, str] = {
    **{label: "cpu" for label in _CPU_LABELS},
    **{label: "cache" for label in _CACHE_LABELS},
    **{label: "xbar" for label in _XBAR_LABELS},
    **{label: "memctrl" for label in _MEMCTRL_LABELS},
    **{label: "mcsquare" for label in _MCSQUARE_LABELS},
}

#: Module prefix -> layer, for packet continuations (a packet completes
#: into whichever layer issued it).
MODULE_LAYERS = (("repro.cpu.", "cpu"), ("repro.cache.", "cache"),
                 ("repro.interconnect.", "xbar"),
                 ("repro.memctrl.", "memctrl"),
                 ("repro.mcsquare.", "mcsquare"), ("repro.dram.", "dram"),
                 ("repro.mem.", "mem"), ("repro.copyengine.", "copyengine"),
                 ("repro.sw.", "copyengine"), ("repro.zio.", "copyengine"),
                 ("repro.os.", "os"), ("repro.sim.", "sim"))


#: Backing-store method -> (bytes read, bytes written) of one call.
#: ``copy`` and ``fill`` are absent: they move their bytes through
#: ``read`` and ``write``, which count them.
MEM_BYTES: Dict[str, Callable[..., Tuple[int, int]]] = {
    "read_line": lambda _store, _addr: (CACHELINE_SIZE, 0),
    "write_line": lambda _store, _addr, _data: (0, CACHELINE_SIZE),
    "read": lambda _store, _addr, size: (size, 0),
    "write": lambda _store, _addr, data: (0, len(data)),
}


def label_layer(label: str) -> Optional[str]:
    """The layer an event label belongs to, or None if the table lacks it."""
    layer = LABEL_LAYERS.get(label)
    if layer is None and label.startswith("core") and label.endswith("-pump"):
        return "cpu"
    return layer


def module_layer(module: Optional[str]) -> str:
    for prefix, layer in MODULE_LAYERS:
        if module and module.startswith(prefix):
            return layer
    return UNATTRIBUTED


class LayerTracer:
    """Frame stack, per-boundary aggregates, span sample, packet capture.

    ``boundaries[name] = [layer, calls, inclusive_s, self_s, kept_s]``
    for every entry point and event label seen while a section was open;
    ``kept_s`` is the bookkeeping taken out of its self time.  Spans
    (name, layer, start, end, id, parent id, repetition) are kept up to
    :data:`SPAN_LIMIT`.  ``packets`` maps
    ``id(pkt)`` to ``(pkt, send cycle)`` for every packet the open section
    sent through the interconnect; holding the packet keeps its ``id``
    unique.  ``costs[kind] = [outside, inside]`` is the bookkeeping
    seconds of one frame of that kind (see :func:`measure_costs`).
    """

    def __init__(self) -> None:
        self.boundaries: Dict[str, list] = {}
        self.spans: List[tuple] = []
        self.packets: Dict[int, tuple] = {}
        #: [bytes read, bytes written] through the backing store.
        self.mem_bytes = [0, 0]
        self.build_s: List[float] = []
        self.rep = 0
        self._stack: List[list] = []
        self._next_id = 0
        self._in_event = False
        self._event_frame: Optional[tuple] = None
        self._patched: List[Tuple[type, str, object]] = []
        self._layer_cache: Dict[object, str] = {}
        self.costs: Dict[str, List[float]] = {kind: [0.0, 0.0]
                                              for kind in KINDS}

    def set_costs(self, costs: Dict[str, List[float]]) -> None:
        """Use ``costs`` from now on (the wrappers hold the same lists)."""
        for kind, cost in costs.items():
            self.costs[kind][:] = cost

    # ------------------------------------------------------------ frames
    # A frame is [start, nested time, span id, parent span id, kept time]:
    # nested time is the children's duration plus their outside
    # bookkeeping, kept time that outside bookkeeping alone.
    def _enter(self) -> None:
        stack = self._stack
        self._next_id += 1
        stack.append([perf_counter(), 0.0, self._next_id, stack[-1][2], 0.0])

    def _leave(self, name: str, layer: str, cost: List[float]) -> None:
        end = perf_counter()
        start, child, span_id, parent, kept = self._stack.pop()
        self._record(name, layer, start, end, child, kept, span_id, parent,
                     cost)

    def _record(self, name: str, layer: str, start: float, end: float,
                child: float, kept: float, span_id: int, parent: int,
                cost: List[float]) -> None:
        """Close a frame.  Its *outside* bookkeeping ran in the parent
        frame, so it is kept out of the parent's self time; its *inside*
        bookkeeping ran within the frame, so it is kept out of its own."""
        incl = end - start
        outside, inside = cost
        up = self._stack[-1]
        up[1] += incl + outside
        up[4] += outside
        rec = self.boundaries.get(name)
        if rec is None:
            rec = self.boundaries[name] = [layer, 0, 0.0, 0.0, 0.0]
        rec[1] += 1
        rec[2] += incl
        rec[3] += incl - child - inside
        rec[4] += kept + inside
        if len(self.spans) < SPAN_LIMIT:
            self.spans.append((name, layer, start, end, span_id, parent,
                               self.rep))

    # ------------------------------------------------- event attribution
    def clock(self) -> float:
        """The profiling clock: ``Simulator.run`` reads it just before and
        just after each event callback, so calls alternate open/close."""
        if self._in_event:
            end = perf_counter()
            start, child, span_id, parent, kept = self._stack.pop()
            self._event_frame = (start, end, child, kept, span_id, parent)
            self._in_event = False
            return end
        self._in_event = True
        self._enter()
        return self._stack[-1][0]

    def on_event(self, label: str, _cycle: int) -> None:
        """The trace hook: names the callback :meth:`clock` just closed."""
        start, end, child, kept, span_id, parent = self._event_frame
        layer = label_layer(label) or UNATTRIBUTED
        self._record(f"event:{label or '<unlabelled>'}", layer, start, end,
                     child, kept, span_id, parent, self.costs["event"])

    def begin_section(self, system, rep: int) -> None:
        """Open the root frame and attach to ``system``'s engine."""
        self.rep = rep
        self.packets = {}
        system.sim.enable_profiling(self.clock)
        system.sim.enable_tracing(self.on_event)
        self._next_id += 1
        self._stack.append([perf_counter(), 0.0, self._next_id, 0, 0.0])

    def end_section(self, system) -> None:
        """Close the root frame (the engine loop's own time) and detach."""
        end = perf_counter()
        start, child, span_id, parent, kept = self._stack.pop()
        self._stack.append([0.0, 0.0, 0, 0, 0.0])  # absorbs the root's time
        self._record("sim:run", "sim", start, end, child, kept, span_id,
                     parent, [0.0, 0.0])
        self._stack.clear()
        system.sim.disable_profiling()
        system.sim.disable_tracing()

    def layer_totals(self) -> Dict[str, List[float]]:
        """``[self_s, kept_s]`` per layer (plus ``unattributed``) so far."""
        totals = {layer: [0.0, 0.0] for layer in LAYERS + (UNATTRIBUTED,)}
        for layer, _calls, _incl, self_s, kept in self.boundaries.values():
            total = totals.setdefault(layer, [0.0, 0.0])
            total[0] += self_s
            total[1] += kept
        return totals

    # ---------------------------------------------------------- wrapping
    def install(self) -> None:
        """Wrap every boundary; call before building the machine.

        Counting observers run inside the timing wrappers; their cost is
        part of the ``observed`` frame kind's bookkeeping.
        """
        if self._patched:
            raise RuntimeError("LayerTracer is already installed")
        observers = {("Interconnect", "send"): self._on_send}
        for method, count in MEM_BYTES.items():
            observers["BackingStore", method] = self._byte_counter(count)
        for layer, module, cls_name, methods in BOUNDARIES:
            cls = getattr(importlib.import_module(module), cls_name)
            for method in methods:
                fn, kind = cls.__dict__[method], "call"
                observer = observers.get((cls_name, method))
                if observer is not None:
                    fn, kind = self._observed(fn, observer), "observed"
                self._patch(cls, method,
                            self._wrap(f"{layer}:{cls_name}.{method}", layer,
                                       fn, kind))
        self._patch(Packet, "complete",
                    self._wrap_complete(Packet.__dict__["complete"]))
        system = importlib.import_module("repro.system.system").System
        self._patch(system, "__init__",
                    self._time_build(system.__dict__["__init__"]))

    def uninstall(self) -> None:
        """Restore every wrapped class attribute."""
        while self._patched:
            cls, name, original = self._patched.pop()
            setattr(cls, name, original)

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    def _patch(self, cls: type, name: str, wrapper: Callable) -> None:
        self._patched.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, wrapper)

    def _wrap(self, name: str, layer: str, fn: Callable,
              kind: str = "call") -> Callable:
        stack = self._stack
        enter, leave = self._enter, self._leave
        if inspect.isgeneratorfunction(fn):
            resume = self.costs["resume"]

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                return self._timed_resumes(name, layer, resume,
                                           fn(*args, **kwargs))
            return traced_gen
        cost = self.costs[kind]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            enter()
            try:
                return fn(*args, **kwargs)
            finally:
                leave(name, layer, cost)
        return traced

    def _timed_resumes(self, name: str, layer: str, cost: List[float], gen):
        """Proxy ``gen``, timing each resume as a frame of ``name``."""
        stack = self._stack
        value = None
        while True:
            if stack:
                self._enter()
                try:
                    op = gen.send(value)
                except StopIteration as stop:
                    return stop.value
                finally:
                    self._leave(name, layer, cost)
            else:
                try:
                    op = gen.send(value)
                except StopIteration as stop:
                    return stop.value
            value = yield op

    def _observed(self, fn: Callable, observer: Callable) -> Callable:
        """``fn``, calling ``observer(*args)`` first while a section is
        open.  An observer counts; it opens no frame of its own."""
        stack = self._stack

        @functools.wraps(fn)
        def observed(*args, **kwargs):
            if stack:
                observer(*args)
            return fn(*args, **kwargs)
        return observed

    def _on_send(self, bus, pkt) -> None:
        self.packets[id(pkt)] = (pkt, bus.sim.now)

    def _byte_counter(self, count: Callable) -> Callable:
        totals = self.mem_bytes

        def observer(*args) -> None:
            read, written = count(*args)
            totals[0] += read
            totals[1] += written
        return observer

    def _wrap_complete(self, complete: Callable) -> Callable:
        """``Packet.complete`` runs the issuer's continuation, so charge it
        to the layer that defined that continuation."""
        stack = self._stack
        cache = self._layer_cache
        cost = self.costs["complete"]

        @functools.wraps(complete)
        def traced(pkt, now):
            callback = pkt.on_complete
            if not stack or callback is None:
                return complete(pkt, now)
            module = getattr(callback, "__module__", None)
            layer = cache.get(module)
            if layer is None:
                layer = cache[module] = module_layer(module)
            self._enter()
            try:
                return complete(pkt, now)
            finally:
                self._leave(f"{layer}:Packet.complete", layer, cost)
        return traced

    def _time_build(self, init: Callable) -> Callable:
        """``System.__init__``: record every build's wall seconds."""
        @functools.wraps(init)
        def traced(system, *args, **kwargs):
            start = perf_counter()
            init(system, *args, **kwargs)
            self.build_s.append(perf_counter() - start)
        return traced


class _Stub:
    """No-op stand-ins for a layer's entry points (see measure_costs)."""

    def call(self, addr):
        return addr

    def observed(self, addr):
        return addr

    def resume(self, count):
        for _ in range(count):
            yield None


class _StubPacket(Packet):
    """The untraced twin of the probe's traced packet subclass, so both
    look ``complete`` up through one subclass level."""

    __slots__ = ()


def _done(_pkt) -> None:
    """A packet continuation that does nothing."""


def _fire() -> None:
    """An event callback that does nothing."""


def _empty(_obj, ops: int) -> None:
    for _ in range(ops):
        pass


def _call(obj, ops: int) -> None:
    for _ in range(ops):
        obj.call(0)


def _call_observed(obj, ops: int) -> None:
    for _ in range(ops):
        obj.observed(0)


def _resume(obj, ops: int) -> None:
    for _ in obj.resume(ops):
        pass


def _rearm(pkt, ops: int) -> None:
    for _ in range(ops):
        pkt.on_complete = _done


def _complete(pkt, ops: int) -> None:
    for _ in range(ops):
        pkt.on_complete = _done
        pkt.complete(0)


def _callback(_obj, ops: int) -> None:
    for _ in range(ops):
        _fire()


def _clocked(loop: Callable, *args) -> float:
    start = perf_counter()
    loop(*args)
    return perf_counter() - start


def _schedule_and_run(sim: Simulator, ops: int) -> None:
    for i in range(ops):
        sim.schedule(1 + (i & 7), _fire, "probe")
    sim.run()


def _event_trial(scratch: "LayerTracer", ops: int
                 ) -> Tuple[float, float, float]:
    """``ops`` no-op events scheduled and run, untraced (the engine's fast
    loop) then traced (profiled scheduling, observed loop): (untraced s,
    traced s, the callbacks' own call seconds)."""
    genuine = _clocked(_callback, None, ops) - _clocked(_empty, None, ops)
    times = []
    for traced in (False, True):
        system = SimpleNamespace(sim=Simulator())
        if traced:
            scratch.begin_section(system, 0)
        times.append(_clocked(_schedule_and_run, system.sim, ops))
        if traced:
            scratch.end_section(system)
    return times[0], times[1], genuine


def measure_costs() -> Dict[str, List[float]]:
    """Bookkeeping seconds of one frame of each kind: ``[outside, inside]``.

    A scratch tracer wraps no-op stand-ins with the same wrapper code the
    layers get, and each is driven :data:`PROBE_OPS` times untraced and
    traced.
    Traced minus untraced, per frame, is the whole bookkeeping cost.  The
    part the frame timed itself (its inclusive time less the stand-in's
    own call) is *inside*; the rest ran in the parent frame and is
    *outside*.  For events, untraced is the engine's fast loop, so the
    observed loop's extra work counts as bookkeeping too.  Medians over
    :data:`PROBE_TRIALS`.  Call while no tracer is installed.
    """
    scratch = LayerTracer()
    scratch.spans.extend([None] * SPAN_LIMIT)  # full, as in a long run
    traced_stub = type("_TracedStub", (_Stub,), {
        "call": scratch._wrap("probe:call", "probe", _Stub.call),
        "observed": scratch._wrap(
            "probe:observed", "probe",
            scratch._observed(_Stub.observed,
                              scratch._byte_counter(MEM_BYTES["read_line"])),
            "observed"),
        "resume": scratch._wrap("probe:resume", "probe", _Stub.resume),
    })()
    traced_packet = type("_TracedPacket", (Packet,), {
        "__slots__": (),
        "complete": scratch._wrap_complete(Packet.__dict__["complete"]),
    })(PacketType.READ, 0)
    stub, packet = _Stub(), _StubPacket(PacketType.READ, 0)
    # kind -> (frame name, idle loop, loop, untraced, traced object)
    drives = {
        "call": ("probe:call", _empty, _call, stub, traced_stub),
        "observed": ("probe:observed", _empty, _call_observed, stub,
                     traced_stub),
        "resume": ("probe:resume", _empty, _resume, stub, traced_stub),
        "complete": (f"{module_layer(_done.__module__)}:Packet.complete",
                     _rearm, _complete, packet, traced_packet),
    }
    samples: Dict[str, List[Tuple[float, float]]] = {k: [] for k in KINDS}
    for _ in range(PROBE_TRIALS):
        for kind in KINDS:
            scratch.boundaries.clear()
            if kind == "event":
                name = "event:probe"
                plain, traced, genuine = _event_trial(scratch, PROBE_OPS)
            else:
                name, empty, drive, obj, traced_obj = drives[kind]
                idle = _clocked(empty, obj, PROBE_OPS)
                plain = _clocked(drive, obj, PROBE_OPS)
                genuine = plain - idle
                scratch._stack.append([perf_counter(), 0.0, 0, 0, 0.0])
                traced = _clocked(drive, traced_obj, PROBE_OPS)
                scratch._stack.clear()
            inside = (scratch.boundaries[name][2] - genuine) / PROBE_OPS
            samples[kind].append(((traced - plain) / PROBE_OPS - inside,
                                  inside))
    return {kind: [median(o for o, _ in pairs), median(i for _, i in pairs)]
            for kind, pairs in samples.items()}


def percentile(values: List[int], pct: float) -> float:
    """Nearest-rank percentile of ``values`` (0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return float(ordered[int(rank) - 1])


def packet_waits(packets: Dict[int, tuple]) -> Dict[str, List[int]]:
    """Simulated waits of captured packets: transit is send -> MC arrival
    (the controller stamps ``issued_at`` on first arrival), service is MC
    arrival -> completion, split by reads and writes."""
    waits: Dict[str, List[int]] = {"transit": [], "read_service": [],
                                   "write_service": []}
    for pkt, sent in packets.values():
        arrived = pkt.issued_at
        if arrived is None:
            continue
        waits["transit"].append(arrived - sent)
        if pkt.completed_at is None:
            continue
        if pkt.ptype is PacketType.READ:
            waits["read_service"].append(pkt.completed_at - arrived)
        elif pkt.ptype is PacketType.WRITE:
            waits["write_service"].append(pkt.completed_at - arrived)
    return waits


def chrome_trace(spans: List[tuple], workload: str) -> dict:
    """The span sample as Chrome trace events (``X`` events).

    Timestamps and durations are integer nanoseconds from the first
    span's start (``otherData.ts_unit``), since most spans are shorter
    than the format's nominal microsecond.
    """
    origin = min((span[2] for span in spans), default=0.0)
    events = [{"name": "process_name", "ph": "M", "pid": 1, "tid": 1,
               "args": {"name": f"simbench {workload}"}}]
    for name, layer, start, end, span_id, parent, rep in sorted(
            spans, key=lambda span: (span[2], span[4])):
        events.append({
            "name": name, "cat": layer, "ph": "X", "pid": 1, "tid": 1,
            "ts": int((start - origin) * 1e9),
            "dur": int((end - start) * 1e9),
            "args": {"id": span_id, "parent": parent, "rep": rep},
        })
    return {"traceEvents": events,
            "otherData": {"ts_unit": "ns", "workload": workload,
                          "spans": len(spans)}}
