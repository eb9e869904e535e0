"""Simplified out-of-order core model.

The core executes a *program* — a Python generator yielding
:class:`~repro.isa.ops.Op` objects — under the resource limits that drive
the paper's memcpy analysis (§II):

* a bounded instruction window (ROB): ops retire in order, so a stalled
  head op blocks the window and eventually the whole core ("Mem miss
  stall cycles", Fig. 3);
* a bounded store buffer shared by stores, CLWB flushes, non-temporal
  stores and MCLAZY/MCFREE packets: once full, further such ops serialize
  (the >1KB knee in Fig. 11);
* MSHR-bounded memory-level parallelism (inside the cache hierarchy);
* ``blocking`` loads suspend the program until the value returns, which
  serializes pointer chases (Fig. 13);
* MFENCE completes only when every older op — including outstanding
  writebacks and lazy-copy packets — has completed (§III-C).

The core is event-driven: :meth:`_pump` advances issue whenever a
resource frees, and in-order retirement frees window slots.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Generator, Optional

from repro.common import params
from repro.cache.hierarchy import CacheHierarchy
from repro.common.errors import SimulationError
from repro.isa.ops import Op, OpKind
from repro.sim.engine import Simulator
from repro.sim.stats import StatGroup

Program = Generator[Op, Optional[bytes], None]

# The per-op tables below are keyed by an op kind's ``_value_`` string,
# not by the member: an Enum member hashes through a Python-level
# ``Enum.__hash__`` call, a str through its cached hash.

_ISSUE_COST = {
    OpKind.LOAD.value: 1,
    OpKind.STORE.value: 1,
    OpKind.NT_STORE.value: params.NT_STORE_CYCLES,
    OpKind.CLWB.value: params.CLWB_ISSUE_CYCLES,
    OpKind.MCLAZY.value: params.MCLAZY_ISSUE_CYCLES,
    OpKind.MCFREE.value: params.MCLAZY_ISSUE_CYCLES,
    OpKind.INMEM_COPY.value: params.MCLAZY_ISSUE_CYCLES,
    OpKind.MFENCE.value: 1,
    OpKind.COMPUTE.value: 0,
    OpKind.BULK_COPY.value: 1,
    OpKind.CLWB_RANGE.value: 4,
}

#: Op kinds that hold a store-buffer entry until they drain.
_SB_KINDS = frozenset(kind.value for kind in (
    OpKind.STORE, OpKind.NT_STORE, OpKind.CLWB, OpKind.CLWB_RANGE,
    OpKind.MCLAZY, OpKind.MCFREE, OpKind.INMEM_COPY))


class Core:
    """One simulated CPU core executing one program at a time."""

    def __init__(self, sim: Simulator, core_id: int,
                 hierarchy: CacheHierarchy, stats: StatGroup,
                 rob_entries: int = params.ROB_ENTRIES,
                 store_buffer_entries: int = params.STORE_BUFFER_ENTRIES):
        self.sim = sim
        self.core_id = core_id
        self.hierarchy = hierarchy
        self.stats = stats
        self.rob_entries = rob_entries
        self.store_buffer_entries = store_buffer_entries

        self._window: Deque[Op] = deque()
        self._gen: Optional[Program] = None
        self._gen_started = False
        self._awaiting: Optional[Op] = None  # blocking load in flight
        self._pending_op: Optional[Op] = None  # pulled but not yet issued
        self._fence: Optional[Op] = None
        self._serializing: Optional[Op] = None  # e.g. BULK_COPY
        self._sb_used = 0
        # Pending (not yet drained) stores for store-to-load forwarding:
        # list of [addr, size, data].
        self._pending_stores: list = []
        self._next_issue_at = 0
        self._exhausted = True
        self._on_finish: Optional[Callable[[int], None]] = None
        self._pump_scheduled = False
        # Hot-path bindings: _schedule_pump runs several times per op, so
        # the label and entry callback are built once, not per schedule.
        self._pump_label = f"core{core_id}-pump"
        self._pump_entry = self._run_pump

        # -------- statistics ---------------------------------------------
        self.ops_retired = stats.counter("ops_retired", "ops retired")
        self.loads = stats.counter("loads", "load ops")
        self.stores = stats.counter("stores", "store ops")
        self.mem_miss_cycles = stats.counter(
            "mem_miss_cycles", "cycles with >=1 outstanding memory read")
        self.stall_cycles = stats.counter(
            "stall_cycles", "cycles issue was fully blocked on memory")
        self.sb_full_stalls = stats.counter(
            "sb_full_stalls", "issue attempts blocked by a full store buffer")
        self._outstanding_mem = 0
        self._mem_busy_since: Optional[int] = None
        self._stall_since: Optional[int] = None

    # ------------------------------------------------------------ control
    @property
    def idle(self) -> bool:
        """True when no program is running and all work has drained."""
        return (self._exhausted and not self._window
                and self._pending_op is None and self._sb_used == 0)

    def run_program(self, program: Program,
                    on_finish: Optional[Callable[[int], None]] = None) -> None:
        """Start executing ``program``; ``on_finish(cycle)`` fires at drain."""
        if not self.idle:
            raise SimulationError(f"core {self.core_id} is busy")
        self._gen = program
        self._gen_started = False
        self._exhausted = False
        self._on_finish = on_finish
        self._next_issue_at = self.sim.now
        if not self._pump_scheduled:
            self._schedule_pump()

    # ------------------------------------------------------------ pumping
    def _schedule_pump(self, delay: int = 0) -> None:
        if self._pump_scheduled:
            return
        self._pump_scheduled = True
        # Late phase: the pump is the core's issue *arbiter* — it must
        # observe every same-cycle completion / resume / buffer release
        # before deciding what issues this cycle, no matter how the
        # tie-break orders those events (see repro.sim.engine).
        self.sim.schedule(delay, self._pump_entry, label=self._pump_label,
                          phase=1)

    def _run_pump(self) -> None:
        self._pump_scheduled = False
        self._pump()

    def _pump(self) -> None:
        """Issue as many ops as resources allow at the current cycle."""
        # Loop-invariant bindings (the mutable gates — _awaiting, _fence,
        # _serializing, _pending_op — are re-read each iteration because
        # _issue flips them mid-loop).
        window = self._window
        rob = self.rob_entries
        sb_limit = self.store_buffer_entries
        sb_kinds = _SB_KINDS
        sim = self.sim
        while True:
            if self._awaiting is not None:
                self._note_stall()
                return
            fence = self._fence
            if fence is not None and fence.completed_at is None:
                return  # fence blocks younger ops entirely
            serializing = self._serializing
            if serializing is not None and serializing.completed_at is None:
                self._note_stall()
                return  # kernel bulk copy blocks younger ops
            if len(window) >= rob:
                self._note_stall()
                return
            op = self._pending_op or self._pull()
            if op is None:
                self._maybe_finish()
                return
            self._pending_op = op
            if op.kind._value_ in sb_kinds and self._sb_used >= sb_limit:
                self.sb_full_stalls.value += 1
                self._note_stall()
                return
            now = sim.now
            if self._next_issue_at > now:
                self._schedule_pump(self._next_issue_at - now)
                return
            self._pending_op = None
            self._clear_stall()
            self._issue(op)

    def _pull(self) -> Optional[Op]:
        if self._exhausted or self._gen is None:
            return None
        try:
            if not self._gen_started:
                self._gen_started = True
                return next(self._gen)
            return self._gen.send(None)
        except StopIteration:
            self._exhausted = True
            return None

    def _resume_with_value(self, value: bytes) -> None:
        """Feed a blocking load's value back into the program."""
        self._awaiting = None
        if self._gen is None:
            return
        try:
            op = self._gen.send(value)
            self._pending_op = op
        except StopIteration:
            self._exhausted = True
        if not self._pump_scheduled:
            self._schedule_pump()

    def _forward_from_store_buffer(self, addr: int,
                                   size: int) -> Optional[bytes]:
        """Newest pending store fully covering [addr, addr+size), if any."""
        for entry in reversed(self._pending_stores):
            s_addr, s_size, s_data = entry
            if s_addr <= addr and addr + size <= s_addr + s_size:
                offset = addr - s_addr
                return bytes(s_data[offset:offset + size])
        return None

    def _older_store_overlaps(self, entry) -> bool:
        """Is an older pending store byte-overlapping ``entry``'s range?"""
        addr, size, _ = entry
        end = addr + size
        for other in self._pending_stores:
            if other is entry:
                return False
            o_addr, o_size, _ = other
            if o_addr < end and addr < o_addr + o_size:
                return True
        return False

    def _pending_store_overlap(self, addr: int, size: int) -> bool:
        """Any not-yet-drained store touching [addr, addr+size)?"""
        end = addr + size
        for s_addr, s_size, _ in self._pending_stores:
            if s_addr < end and addr < s_addr + s_size:
                return True
        return False

    def _dispatch_after_stores(self, ranges, action) -> None:
        """Run ``action`` once no pending store overlaps ``ranges``.

        Models the x86 ordering of CLWB (and our new MCLAZY / kernel
        copies) with respect to *older stores to the affected lines*:
        the flush/packet must observe them.
        """
        def _try() -> None:
            if any(self._pending_store_overlap(a, s) for a, s in ranges):
                # Late phase: the retry polls store-buffer state, so it
                # must not race same-cycle drains.
                self.sim.schedule(5, _try, label="order-wait", phase=1)
            else:
                action()

        _try()

    # -------------------------------------------------------------- issue
    def _issue(self, op: Op) -> None:
        now = self.sim.now
        op.issued_at = now
        kind = op.kind
        self._next_issue_at = now + _ISSUE_COST[kind._value_]
        self._window.append(op)

        if kind is OpKind.COMPUTE:
            self._next_issue_at = self.sim.now + op.cycles
            done = self.sim.now + max(op.cycles, 1)
            self.sim.schedule_at(done, lambda: self._complete(op),
                                 label="compute-done")
        elif kind is OpKind.LOAD:
            self.loads.value += 1
            forwarded = self._forward_from_store_buffer(op.addr, op.size)
            if forwarded is not None:
                op.value = forwarded
                done = self.sim.now + 5  # store-to-load forward latency

                def _fwd() -> None:
                    self._complete(op)
                    if op.blocking:
                        self._resume_with_value(forwarded)

                if op.blocking:
                    self._awaiting = op
                self.sim.schedule_at(done, _fwd, label="stl-forward")
                if not self._pump_scheduled:
                    self._schedule_pump()
                return
            self._mem_begin()
            if op.blocking:
                self._awaiting = op

            def _loaded(data: bytes, finish: int) -> None:
                op.value = data
                self._mem_end()
                self._complete(op)
                if op.blocking:
                    self._resume_with_value(data)

            if self._pending_store_overlap(op.addr, op.size):
                # Partial overlap with an in-flight store: no forward is
                # possible, so the load stalls until the store drains
                # (x86 replays such loads).
                self._dispatch_after_stores(
                    [(op.addr, op.size)],
                    lambda: self.hierarchy.load(self.core_id, op.addr,
                                                op.size, _loaded))
            else:
                self.hierarchy.load(self.core_id, op.addr, op.size,
                                    _loaded)
        elif kind is OpKind.STORE:
            self.stores.value += 1
            self._sb_used += 1
            data = op.data() if callable(op.data) else op.data
            if data is None:
                data = (op.addr & 0xFF).to_bytes(1, "little") * op.size
            entry = [op.addr, op.size, data]
            self._pending_stores.append(entry)
            self.sim.schedule(1, lambda: self._complete(op),
                              label="store-issued")

            def _drained(finish: int) -> None:
                self._pending_stores.remove(entry)
                self._sb_free()

            def _dispatch() -> None:
                # Same-address stores must commit in program order: an
                # older overlapping store whose RFO is still in flight
                # would otherwise land *after* this one and resurrect
                # stale data.
                if self._older_store_overlaps(entry):
                    self.sim.schedule(5, _dispatch, label="st-st-order",
                                      phase=1)
                    return
                self.hierarchy.store(self.core_id, op.addr, op.size, data,
                                     _drained)

            _dispatch()
        elif kind is OpKind.NT_STORE:
            self.stores.value += 1
            self._sb_used += 1
            data = op.data() if callable(op.data) else op.data
            if data is None:
                data = (op.addr & 0xFF).to_bytes(1, "little") * op.size
            self.sim.schedule(1, lambda: self._complete(op),
                              label="ntstore-issued")
            self.hierarchy.nt_store(self.core_id, op.addr, op.size, data,
                                    lambda finish: self._sb_free())
        elif kind is OpKind.CLWB:
            self._sb_used += 1
            self.sim.schedule(1, lambda: self._complete(op),
                              label="clwb-issued")
            self._dispatch_after_stores(
                [(op.addr, op.size)],
                lambda: self.hierarchy.clwb(self.core_id, op.addr,
                                            lambda finish: self._sb_free()))
        elif kind is OpKind.CLWB_RANGE:
            self._sb_used += 1
            self.sim.schedule(1, lambda: self._complete(op),
                              label="clwb-range-issued")
            self._dispatch_after_stores(
                [(op.addr, op.size)],
                lambda: self.hierarchy.clwb_range(
                    self.core_id, op.addr, op.size,
                    lambda finish: self._sb_free()))
        elif kind is OpKind.MCLAZY:
            self._sb_used += 1
            self.sim.schedule(1, lambda: self._complete(op),
                              label="mclazy-issued")
            self._dispatch_after_stores(
                [(op.src_addr, op.size), (op.addr, op.size)],
                lambda: self.hierarchy.handle_mclazy(
                    self.core_id, op.addr, op.src_addr, op.size,
                    lambda finish: self._sb_free()))
        elif kind is OpKind.INMEM_COPY:
            # Offloaded in-DRAM copy: issues like MCLAZY (descriptor
            # build + send) but the store-buffer slot is held until
            # every channel finishes its share, so a later MFENCE
            # orders after the clone itself, not just the send.
            self._sb_used += 1
            self.sim.schedule(1, lambda: self._complete(op),
                              label="inmem-copy-issued")
            self._dispatch_after_stores(
                [(op.src_addr, op.size), (op.addr, op.size)],
                lambda: self.hierarchy.handle_inmem_copy(
                    self.core_id, op.addr, op.src_addr, op.size,
                    op.copy_mode or "rowclone",
                    lambda finish: self._sb_free()))
        elif kind is OpKind.MCFREE:
            self._sb_used += 1
            self.sim.schedule(1, lambda: self._complete(op),
                              label="mcfree-issued")
            self.hierarchy.handle_mcfree(self.core_id, op.addr, op.size,
                                         lambda finish: self._sb_free())
        elif kind is OpKind.BULK_COPY:
            self._mem_begin()
            self._serializing = op

            def _copied(finish: int) -> None:
                self._serializing = None
                self._mem_end()
                self._complete(op)

            self._dispatch_after_stores(
                [(op.src_addr, op.size), (op.addr, op.size)],
                lambda: self.hierarchy.bulk_copy(
                    self.core_id, op.addr, op.src_addr, op.size, _copied))
        elif kind is OpKind.MFENCE:
            self._fence = op
            self._try_fence()
        else:  # pragma: no cover - exhaustive
            raise SimulationError(f"unknown op kind {kind}")
        if not self._pump_scheduled:
            self._schedule_pump()

    # -------------------------------------------------------- completion
    def _complete(self, op: Op) -> None:
        op.completed_at = self.sim.now
        self._retire()
        if self._fence is not None:
            self._try_fence()
        if not self._pump_scheduled:
            self._schedule_pump()

    def _retire(self) -> None:
        while self._window and self._window[0].completed_at is not None:
            op = self._window.popleft()
            op.retired_at = self.sim.now
            self.ops_retired.value += 1
            if op.on_retire is not None:
                op.on_retire(op, self.sim.now)
        self._maybe_finish()

    def _try_fence(self) -> None:
        """Complete the fence once all older work has drained."""
        fence = self._fence
        if fence is None or fence.completed_at is not None:
            return
        older_done = all(o.completed_at is not None
                         for o in self._window if o is not fence)
        if older_done and self._sb_used == 0:
            done = self.sim.now + params.MFENCE_CYCLES

            def _fence_done() -> None:
                if fence.completed_at is None:
                    fence.completed_at = self.sim.now
                    self._fence = None
                    self._retire()
                    if not self._pump_scheduled:
                        self._schedule_pump()

            self.sim.schedule_at(done, _fence_done, label="mfence-done")

    def _sb_free(self) -> None:
        self._sb_used -= 1
        if self._fence is not None:
            self._try_fence()
        if not self._pump_scheduled:
            self._schedule_pump()

    def _maybe_finish(self) -> None:
        if self.idle and self._on_finish is not None:
            callback = self._on_finish
            self._on_finish = None
            callback(self.sim.now)

    # -------------------------------------------------------- accounting
    def _mem_begin(self) -> None:
        if self._outstanding_mem == 0:
            self._mem_busy_since = self.sim.now
        self._outstanding_mem += 1

    def _mem_end(self) -> None:
        self._outstanding_mem -= 1
        if self._outstanding_mem == 0 and self._mem_busy_since is not None:
            self.mem_miss_cycles.inc(self.sim.now - self._mem_busy_since)
            self._mem_busy_since = None

    def _note_stall(self) -> None:
        if self._stall_since is None and self._outstanding_mem > 0:
            self._stall_since = self.sim.now

    def _clear_stall(self) -> None:
        if self._stall_since is not None:
            self.stall_cycles.inc(self.sim.now - self._stall_since)
            self._stall_since = None
