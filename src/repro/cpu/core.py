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
resource frees, and in-order retirement frees window slots.  Each op
kind issues through its own handler, found in one table keyed by the
kind's value.
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
        self._pump_entry = self._pump
        # Completion of every op that holds a store-buffer slot until it
        # drains.
        self._sb_done = lambda finish: self._sb_free()

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
        self.sim.schedule(delay, self._pump_entry, self._pump_label, 1)

    def _pump(self) -> None:
        """Issue as many ops as resources allow at the current cycle."""
        self._pump_scheduled = False
        # Most runs issue at most one op (after each issue the pump
        # runs again in the same cycle), so state is read where it is
        # used rather than bound up front; the gates are re-read each
        # iteration because an issue handler flips them mid-loop.
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
            window = self._window
            if len(window) >= self.rob_entries:
                self._note_stall()
                return
            op = self._pending_op
            if op is None:
                # Pull the program's next op; the first pull is next(),
                # so a plain iterator works as a one-op program.
                if self._exhausted or self._gen is None:
                    self._maybe_finish()
                    return
                try:
                    if self._gen_started:
                        op = self._gen.send(None)
                    else:
                        self._gen_started = True
                        op = next(self._gen)
                except StopIteration:
                    self._exhausted = True
                    self._maybe_finish()
                    return
                self._pending_op = op
            cost, holds_sb, handler = self._ISSUE[op.kind._value_]
            if holds_sb and self._sb_used >= self.store_buffer_entries:
                self.sb_full_stalls.value += 1
                self._note_stall()
                return
            sim = self.sim
            now = sim.now
            # _schedule_pump, inlined here and after the issue below.
            if self._next_issue_at > now:
                if not self._pump_scheduled:
                    self._pump_scheduled = True
                    sim.schedule(self._next_issue_at - now,
                                 self._pump_entry, self._pump_label, 1)
                return
            self._pending_op = None
            if self._stall_since is not None:
                self.stall_cycles.value += now - self._stall_since
                self._stall_since = None
            op.issued_at = now
            self._next_issue_at = now + cost
            window.append(op)
            handler(self, op)
            if not self._pump_scheduled:
                self._pump_scheduled = True
                sim.schedule(0, self._pump_entry, self._pump_label, 1)

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
            for addr, size in ranges:
                if self._pending_store_overlap(addr, size):
                    # Late phase: the retry polls store-buffer state, so
                    # it must not race same-cycle drains.
                    self.sim.schedule(5, _try, label="order-wait", phase=1)
                    return
            action()

        _try()

    # -------------------------------------------------------------- issue
    # One handler per op kind, called by _pump after it has stamped the
    # op issued, charged its issue cycles and put it in the window.  The
    # pump schedules itself again after every handler.  The hot kinds
    # (loads, CLWBs, MCLAZYs) check for an overlapping pending store
    # themselves and call the caches directly when there is none,
    # instead of building an ordering wait.

    def _issue_compute(self, op: Op) -> None:
        now = self.sim.now
        self._next_issue_at = now + op.cycles
        self.sim.schedule_at(now + max(op.cycles, 1),
                             lambda: self._complete(op), "compute-done")

    def _issue_load(self, op: Op) -> None:
        self.loads.value += 1
        pending = self._pending_stores
        if pending:
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
                self.sim.schedule_at(done, _fwd, "stl-forward")
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

        if pending and self._pending_store_overlap(op.addr, op.size):
            # Partial overlap with an in-flight store: no forward is
            # possible, so the load stalls until the store drains
            # (x86 replays such loads).
            self._dispatch_after_stores(
                [(op.addr, op.size)],
                lambda: self.hierarchy.load(self.core_id, op.addr,
                                            op.size, _loaded))
        else:
            self.hierarchy.load(self.core_id, op.addr, op.size, _loaded)

    def _store_data(self, op: Op) -> bytes:
        data = op.data() if callable(op.data) else op.data
        if data is None:
            data = (op.addr & 0xFF).to_bytes(1, "little") * op.size
        return data

    def _issue_store(self, op: Op) -> None:
        self.stores.value += 1
        self._sb_used += 1
        data = self._store_data(op)
        entry = [op.addr, op.size, data]
        self._pending_stores.append(entry)
        self.sim.schedule(1, lambda: self._complete(op), "store-issued")

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

    def _issue_nt_store(self, op: Op) -> None:
        self.stores.value += 1
        self._sb_used += 1
        data = self._store_data(op)
        self.sim.schedule(1, lambda: self._complete(op), "ntstore-issued")
        self.hierarchy.nt_store(self.core_id, op.addr, op.size, data,
                                self._sb_done)

    def _issue_clwb(self, op: Op) -> None:
        self._sb_used += 1
        self.sim.schedule(1, lambda: self._complete(op), "clwb-issued")
        if self._pending_store_overlap(op.addr, op.size):
            self._dispatch_after_stores(
                [(op.addr, op.size)],
                lambda: self.hierarchy.clwb(self.core_id, op.addr,
                                            self._sb_done))
        else:
            self.hierarchy.clwb(self.core_id, op.addr, self._sb_done)

    def _issue_clwb_range(self, op: Op) -> None:
        self._sb_used += 1
        self.sim.schedule(1, lambda: self._complete(op), "clwb-range-issued")
        self._dispatch_after_stores(
            [(op.addr, op.size)],
            lambda: self.hierarchy.clwb_range(self.core_id, op.addr,
                                              op.size, self._sb_done))

    def _issue_mclazy(self, op: Op) -> None:
        self._sb_used += 1
        self.sim.schedule(1, lambda: self._complete(op), "mclazy-issued")
        if (self._pending_store_overlap(op.src_addr, op.size)
                or self._pending_store_overlap(op.addr, op.size)):
            self._dispatch_after_stores(
                [(op.src_addr, op.size), (op.addr, op.size)],
                lambda: self.hierarchy.handle_mclazy(
                    self.core_id, op.addr, op.src_addr, op.size,
                    self._sb_done))
        else:
            self.hierarchy.handle_mclazy(self.core_id, op.addr, op.src_addr,
                                         op.size, self._sb_done)

    def _issue_inmem_copy(self, op: Op) -> None:
        # Offloaded in-DRAM copy: issues like MCLAZY (descriptor
        # build + send) but the store-buffer slot is held until
        # every channel finishes its share, so a later MFENCE
        # orders after the clone itself, not just the send.
        self._sb_used += 1
        self.sim.schedule(1, lambda: self._complete(op), "inmem-copy-issued")
        self._dispatch_after_stores(
            [(op.src_addr, op.size), (op.addr, op.size)],
            lambda: self.hierarchy.handle_inmem_copy(
                self.core_id, op.addr, op.src_addr, op.size,
                op.copy_mode or "rowclone", self._sb_done))

    def _issue_mcfree(self, op: Op) -> None:
        self._sb_used += 1
        self.sim.schedule(1, lambda: self._complete(op), "mcfree-issued")
        self.hierarchy.handle_mcfree(self.core_id, op.addr, op.size,
                                     self._sb_done)

    def _issue_bulk_copy(self, op: Op) -> None:
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

    def _issue_mfence(self, op: Op) -> None:
        self._fence = op
        self._try_fence()

    #: Op kind -> (issue cycles, holds a store-buffer slot until it
    #: drains, handler).  Keyed by the kind's ``_value_`` string, not by
    #: the member: an Enum member hashes through a Python-level
    #: ``Enum.__hash__`` call, a str through its cached hash.
    _ISSUE = {
        OpKind.COMPUTE.value: (0, False, _issue_compute),
        OpKind.LOAD.value: (1, False, _issue_load),
        OpKind.STORE.value: (1, True, _issue_store),
        OpKind.NT_STORE.value: (params.NT_STORE_CYCLES, True,
                                _issue_nt_store),
        OpKind.CLWB.value: (params.CLWB_ISSUE_CYCLES, True, _issue_clwb),
        OpKind.CLWB_RANGE.value: (4, True, _issue_clwb_range),
        OpKind.MCLAZY.value: (params.MCLAZY_ISSUE_CYCLES, True,
                              _issue_mclazy),
        OpKind.INMEM_COPY.value: (params.MCLAZY_ISSUE_CYCLES, True,
                                  _issue_inmem_copy),
        OpKind.MCFREE.value: (params.MCLAZY_ISSUE_CYCLES, True,
                              _issue_mcfree),
        OpKind.BULK_COPY.value: (1, False, _issue_bulk_copy),
        OpKind.MFENCE.value: (1, False, _issue_mfence),
    }

    # -------------------------------------------------------- completion
    def _complete(self, op: Op) -> None:
        op.completed_at = self.sim.now
        # Nothing retires (nor can the program finish) while the window
        # head is still in flight.
        window = self._window
        if not window or window[0].completed_at is not None:
            self._retire()
        if self._fence is not None:
            self._try_fence()
        if not self._pump_scheduled:
            self._pump_scheduled = True
            self.sim.schedule(0, self._pump_entry, self._pump_label, 1)

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
