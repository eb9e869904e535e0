"""(MC)² memory controller.

Extends the baseline :class:`~repro.memctrl.controller.MemoryController`
with the paper's three mechanisms (§III):

* **Copy Tracking Table** — replicated across controllers (broadcast
  consistency is charged as interconnect latency and counted in stats);
  consulted in parallel with every MC-observed access.
* **Bounce** — a read of a tracked destination line is rerouted to the
  source line(s); the reconstructed line is returned to the core and, when
  the destination WPQ is below 75% occupancy, also written back to memory
  so future reads are served normally (the Fig. 13 "writeback"
  optimization; disable with ``bounce_writeback=False``).
* **Bounce Pending Queue** — a write to a tracked source line is parked
  while the dependent destination lines are materialized from pre-write
  memory, then drained (Fig. 9 state machine).
* **Asynchronous freeing** — once the CTT passes its fill threshold, the
  controller resolves the smallest entries in the background,
  ``parallel_frees`` at a time, to keep the table from filling (§III-A1,
  Figs. 20 and 22).

Timing is charged on the owning channels through the shared simulator, so
background copies contend for DRAM bandwidth with demand traffic, exactly
the trade-off §III-A1 discusses.

Every mechanism resolves a destination line the same way: read its 64 B
source window with the window's poison (:meth:`_read_window`), charge
DRAM on the owning channels, then land the line (:meth:`_land`): write
it, carry the poison and stop tracking it.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Tuple

from repro.common import params
from repro.common.units import CACHELINE_SIZE, align_down
from repro.dram.address_map import AddressMap
from repro.mem.backing_store import BackingStore
from repro.memctrl.controller import MemoryController
from repro.mcsquare.bpq import BouncePendingQueue, BpqEntry
from repro.mcsquare.ctt import CopyTrackingTable, CttEntry, window_lines
from repro.sim.engine import Simulator
from repro.sim.packet import Packet, PacketType
from repro.sim.stats import StatGroup


class McSquareController(MemoryController):
    """One memory-controller channel with (MC)² extensions."""

    def __init__(
        self,
        sim: Simulator,
        channel_id: int,
        address_map: AddressMap,
        backing: BackingStore,
        stats: StatGroup,
        ctt: CopyTrackingTable,
        bpq_entries: int = params.BPQ_ENTRIES,
        copy_threshold: float = params.CTT_COPY_THRESHOLD,
        parallel_frees: int = params.CTT_PARALLEL_FREES,
        bounce_writeback: bool = True,
        eager_async_copies: bool = False,
        wpq_entries: int = params.MC_WPQ_ENTRIES,
        rpq_entries: int = params.MC_RPQ_ENTRIES,
        inmem_layout: str = "hash",
        inmem_subarray_rows: int = params.ROWCLONE_SUBARRAY_ROWS,
    ):
        super().__init__(sim, channel_id, address_map, backing, stats,
                         wpq_entries=wpq_entries, rpq_entries=rpq_entries,
                         inmem_layout=inmem_layout,
                         inmem_subarray_rows=inmem_subarray_rows)
        self.ctt = ctt
        self.bpq = BouncePendingQueue(bpq_entries, stats.group("bpq"),
                                      name=f"bpq{channel_id}",
                                      clock=lambda: self.sim.now)
        self.copy_threshold = copy_threshold
        self.parallel_frees = parallel_frees
        self.bounce_writeback = bounce_writeback
        # §VI extension: a copy engine drains the CTT continuously rather
        # than waiting for the 50% threshold (fully asynchronous copies).
        self.eager_async_copies = eager_async_copies
        self.peers: List["McSquareController"] = []  # set by the system
        # Stalled source writes as (arrival_cycle, packet): the stall
        # stat is charged at admission, and only when the write actually
        # waited past its arrival cycle (see _admit_overflow).
        self._bpq_overflow: Deque[Tuple[int, Packet]] = deque()
        self._async_inflight = 0

        self._bounces = stats.counter("bounces", "dest reads rerouted to source")
        self._double_bounces = stats.counter(
            "double_bounces", "bounces needing two source lines (misaligned)")
        self._bounce_writebacks = stats.counter(
            "bounce_writebacks", "reconstructed lines written back to memory")
        self._bounce_wb_rejected = stats.counter(
            "bounce_wb_rejected", "writebacks refused: WPQ >75% full")
        self._bounce_dropped = stats.counter(
            "bounce_dropped", "stale bounce writebacks dropped")
        self._dest_write_untracks = stats.counter(
            "dest_write_untracks", "CTT entries trimmed by destination writes")
        self._src_write_copies = stats.counter(
            "src_write_copies", "dest lines materialized due to source writes")
        self._async_frees = stats.counter(
            "async_frees", "CTT entries resolved by the async free engine")
        self._async_copied_lines = stats.counter(
            "async_copied_lines", "cachelines copied asynchronously")
        self._ctt_full_stalls = stats.counter(
            "ctt_full_stalls", "MCLAZY retries while the CTT was full")
        self._ctt_full_stall_cycles = stats.counter(
            "ctt_full_stall_cycles", "cycles MCLAZY packets waited on a full CTT")
        self._broadcasts = stats.counter(
            "broadcasts", "CTT-consistency broadcasts snooped")
        self._eager_boundary_lines = stats.counter(
            "eager_boundary_lines", "mixed-source lines resolved at insert")
        self._mcfrees = stats.counter("mcfrees", "MCFREE hints processed")
        self._poison_propagations = stats.counter(
            "poison_propagations",
            "destination lines poisoned because their source was")
        self._superseded_parked = stats.counter(
            "superseded_parked_writes",
            "parked writes discarded: a newer copy overwrote their line")
        stats.formula(
            "bounce_rate", "fraction of serviced reads that bounced",
            lambda: (self._bounces.value / self._reads.value
                     if self._reads.value else 0.0))

    # =============================================================== reads
    def _handle_read(self, pkt: Packet) -> None:
        line = align_down(pkt.addr, CACHELINE_SIZE)

        # Reads to a parked source line are merged from the BPQ.
        parked = self.bpq.get(line)
        if parked is not None:
            pkt.data = bytes(parked.data)
            pkt.poisoned = parked.poisoned
            done = self.sim.now + params.MC_STATIC_LATENCY_CYCLES + 2
            self.sim.schedule_at(done, lambda: pkt.complete(self.sim.now),
                                 label="bpq-forward")
            self._reads.inc()
            return

        entry = self.ctt.lookup_dest_line(line)
        if entry is not None:
            self._bounce_read(pkt, line, entry)
            return

        self._reads.inc()
        self._service_read_from_memory(pkt)

    def _bounce_read(self, pkt: Packet, line: int, entry: CttEntry) -> None:
        """Reroute a tracked-destination read to its source line(s).

        Timing is event-driven: every DRAM access is issued at its actual
        start cycle so that concurrent bounces pipeline through the banks
        instead of reserving future bus slots in call order.
        """
        self._reads.inc()
        self._bounces.inc()
        src_start = entry.src_for_dst(line)
        src_lines = window_lines(src_start)
        if len(src_lines) == 2:
            self._double_bounces.inc()
        trace = self._trace
        if trace is not None:
            trace.instant("mcsquare", self._track, "bounce",
                          {"line": hex(line), "double": len(src_lines) == 2})
            if entry.copy_id is not None:
                trace.span_point("copy", "ctt", "bounce",
                                 f"copy:{entry.copy_id}",
                                 {"line": hex(line)})

        # Functional: compose the line from pre-write memory.
        data, poisoned = self._read_window(src_start)
        issued_at = self.sim.now

        def _read_next(index: int) -> None:
            if index < len(src_lines):
                # Each bounce hop targets one source module; the second
                # source line (misaligned copies) requires a further
                # bounce that serializes behind the first (§III-B2).
                src_line = src_lines[index]
                owner = self._owner_of(src_line)
                extra = (params.INTERCONNECT_HOP_CYCLES
                         if owner is not self else 0)
                loc = owner.address_map.decode(src_line)
                owner.dram_request(
                    loc, (self.DRAM_RANK_BOUNCE, pkt.addr, index),
                    lambda done: self.sim.schedule_at(
                        done, lambda: _read_next(index + 1),
                        label="bounce-src-read"),
                    extra=extra)
                return
            done = self.sim.now + params.MC_STATIC_LATENCY_CYCLES
            pkt.data = data
            pkt.poisoned = poisoned
            self._read_latency.record(done - issued_at)
            self.sim.schedule_at(done, lambda: pkt.complete(self.sim.now),
                                 label="bounce-respond")
            self._maybe_bounce_writeback(line, src_start, data, poisoned)

        # The CTT lookup runs in parallel with the (preempted) access, so
        # only its latency is added before the bounce departs.
        self.sim.schedule(params.CTT_LATENCY_CYCLES,
                          lambda: _read_next(0), label="bounce-start")

    def _maybe_bounce_writeback(self, line: int, expected_src: int,
                                data: bytes, poisoned: bool = False) -> None:
        """Persist a reconstructed line so future reads hit memory.

        Skipped when disabled, when the destination WPQ is contended
        (§III-B2's 75% rule), or — checked again at completion — when the
        tracking changed while the write was in flight.
        """
        if not self.bounce_writeback:
            return
        dest_owner = self._owner_of(line)
        if dest_owner.wpq_fullness > params.WPQ_REJECT_THRESHOLD:
            self._bounce_wb_rejected.inc()
            if self._trace is not None:
                self._trace.instant("mcsquare", self._track,
                                    "bounce-wb-rejected", {"line": hex(line)})
            return

        def _complete_writeback() -> None:
            current = self.ctt.lookup_dest_line(line)
            if current is None or current.src_for_dst(line) != expected_src:
                self._bounce_dropped.inc()  # CPU overwrote D meanwhile
                return
            if self.ctt.source_overlaps(line, CACHELINE_SIZE):
                self._bounce_dropped.inc()  # D became someone's source
                return
            self._land(line, data, poisoned)
            self._broadcast_update()
            self._bounce_writebacks.inc()
            if self._trace is not None:
                self._trace.instant("mcsquare", self._track,
                                    "bounce-writeback", {"line": hex(line)})
            self._drain_ready_bpq_entries()

        wb_loc = dest_owner.address_map.decode(line)
        dest_owner.dram_request(
            wb_loc, (self.DRAM_RANK_BOUNCE_WB, line),
            lambda wb_done: self.sim.schedule_at(wb_done,
                                                 _complete_writeback,
                                                 label="bounce-writeback"))

    # ============================================================== writes
    def _handle_write(self, pkt: Packet) -> None:
        line = align_down(pkt.addr, CACHELINE_SIZE)
        if pkt.data is None:
            pkt.data = self.backing.read_line(line)

        # Writes to an already-parked line coalesce in the BPQ.
        if self.bpq.holds(line):
            self.bpq.merge(line, pkt.data, pkt)
            self._writes.inc()
            ack = self.sim.now + params.MC_STATIC_LATENCY_CYCLES
            self.sim.schedule_at(ack, lambda: pkt.complete(self.sim.now),
                                 label="bpq-merge-ack")
            return

        # Writes to a tracked source line park in the BPQ.
        if self.ctt.source_overlaps(line, CACHELINE_SIZE):
            if self.bpq.full:
                # Full-stall accounting is deferred to admission time: a
                # write admitted in its arrival cycle was never delayed
                # (a same-cycle drain freed the slot), and charging it
                # here would make the count depend on whether that drain
                # dispatched before or after this handler.
                self._bpq_overflow.append((self.sim.now, pkt))
                return  # ack (and hence CLWB completion) is delayed
            self._park_source_write(pkt, line)
            return

        # Writes to a tracked destination stop the tracking.
        if self._untrack_written(line):
            self._drain_ready_bpq_entries()
        self._accept_write(pkt)

    def _park_source_write(self, pkt: Packet, line: int) -> None:
        """Fig. 9 states 3/5: hold the write, materialize dependents."""
        self._writes.inc()
        entry = self.bpq.park(line, pkt.data, pkt, self.sim.now)
        ack = self.sim.now + params.MC_STATIC_LATENCY_CYCLES
        self.sim.schedule_at(ack, lambda: pkt.complete(self.sim.now),
                             label="bpq-park-ack")
        if not self._materialize_parked(entry):
            self._drain_ready_bpq_entries()

    def _materialize_parked(self, entry: BpqEntry) -> bool:
        """Schedule a copy of every destination line that still reads the
        parked line; False when there is none."""
        dest_lines = self.ctt.dest_lines_for_source(entry.line,
                                                    CACHELINE_SIZE)
        entry.pending_copies = len(dest_lines)
        when = self.sim.now + params.CTT_LATENCY_CYCLES
        for dest_line in dest_lines:
            when = self._schedule_materialize(
                dest_line, when,
                on_done=lambda: self._copy_done_for(entry))
        return bool(dest_lines)

    def _copy_done_for(self, bpq_entry) -> None:
        bpq_entry.pending_copies -= 1
        self._drain_ready_bpq_entries()

    # ===================================================== materialization
    def _schedule_materialize(self, dest_line: int, start: int,
                              on_done=None) -> int:
        """Lazily copy one destination line; returns the finish cycle.

        Reads the needed source line(s) from memory (never the BPQ),
        composes the destination line, writes it to the destination
        channel, and trims the CTT — unless the tracking changed while the
        copy was in flight, in which case the result is dropped.
        """
        entry = self.ctt.lookup_dest_line(dest_line)
        if entry is None:
            if on_done is not None:
                self.sim.schedule_at(max(start, self.sim.now),
                                     lambda: on_done(), label="mat-noop")
            return start
        expected_src = entry.src_for_dst(dest_line)
        data, src_poisoned = self._read_window(expected_src)
        # Reads, then the copy write.
        steps = window_lines(expected_src) + [dest_line]

        def _step(index: int) -> None:
            if index < len(steps):
                addr = steps[index]
                owner = self._owner_of(addr)
                loc = owner.address_map.decode(addr)
                owner.dram_request(
                    loc, (self.DRAM_RANK_MATERIALIZE, dest_line, index),
                    lambda done: self.sim.schedule_at(
                        done, lambda: _step(index + 1),
                        label="materialize-step"))
                return
            current = self.ctt.lookup_dest_line(dest_line)
            if (current is not None
                    and current.src_for_dst(dest_line) == expected_src):
                # The line itself may back other prospective copies (it
                # became a destination after an older copy sourced from
                # it); resolve those from its pre-write contents first,
                # then land this copy.
                if self.ctt.source_overlaps(dest_line, CACHELINE_SIZE):
                    self._resolve_dependents_of(dest_line, self.sim.now,
                                                set())
                self._land(dest_line, data, src_poisoned)
                self._broadcast_update()
                self._src_write_copies.inc()
                if self._trace is not None:
                    self._trace.instant("mcsquare", self._track,
                                        "materialize",
                                        {"line": hex(dest_line)})
            else:
                self._bounce_dropped.inc()
                if self._trace is not None:
                    self._trace.instant("mcsquare", self._track,
                                        "materialize-dropped",
                                        {"line": hex(dest_line)})
            if on_done is not None:
                on_done()

        begin = max(start, self.sim.now)
        self.sim.schedule_at(begin, lambda: _step(0),
                             label="materialize-line")
        # Estimated completion for the caller's pacing of further lines.
        return begin + params.DRAM_ROW_HIT_CYCLES

    def _drain_ready_bpq_entries(self) -> None:
        """Drain parked writes whose line no longer backs any copy.

        A parked entry's dependent destinations are re-derived here: the
        CTT may have been rewritten (a newer overlapping copy) between
        parking and materialization, leaving the original copies dropped
        as stale while *new* entries still source from the parked line —
        those must be materialized too or the entry would wait forever.
        """
        if not len(self.bpq):
            return  # called after every bounce writeback; most find none
        for entry in self.bpq.entries():
            if entry.pending_copies > 0:
                continue
            if self._materialize_parked(entry):
                # Still backing copies: issue the (possibly refreshed)
                # materializations rather than waiting passively.
                continue
            self.bpq.release(entry.line)
            drained = Packet(PacketType.WRITE, entry.line, CACHELINE_SIZE)
            drained.data = bytes(entry.data)
            drained.poisoned = entry.poisoned
            # A parked line may itself be a tracked destination (the
            # write "completes" now): stop tracking it.
            self._untrack_written(entry.line)
            self._accept_write(drained)
            self._admit_overflow()

    def _admit_overflow(self) -> None:
        """Move stalled source writes into freed BPQ slots."""
        while self._bpq_overflow and not self.bpq.full:
            arrived, pkt = self._bpq_overflow.popleft()
            if self.sim.now > arrived:
                self.bpq.record_full_stall()
            line = align_down(pkt.addr, CACHELINE_SIZE)
            if self.bpq.holds(line):
                self.bpq.merge(line, pkt.data, pkt)
                pkt.complete(self.sim.now)
            elif self.ctt.source_overlaps(line, CACHELINE_SIZE):
                self._park_source_write(pkt, line)
            else:
                self._accept_write(pkt)  # tracking resolved while waiting

    # ============================================================ control
    def _handle_control(self, pkt: Packet) -> None:
        if pkt.ptype is PacketType.MCLAZY:
            self._handle_mclazy(pkt)
        elif pkt.ptype is PacketType.MCFREE:
            self._mcfrees.inc()
            self.ctt.free_hint(pkt.addr, pkt.size)
            self._broadcast_update()
            self._drain_ready_bpq_entries()
            done = self.sim.now + params.BROADCAST_CYCLES
            self.sim.schedule_at(done, lambda: pkt.complete(self.sim.now),
                                 label="mcfree-ack")
        else:
            super()._handle_control(pkt)

    def _handle_mclazy(self, pkt: Packet, attempt: int = 0) -> None:
        """Insert a prospective copy, stalling while sources are parked
        or the table is full: the paper's stall retries every
        ``CTT_RETRY_CYCLES`` until the free engine makes room."""
        src = pkt.src_addr
        assert src is not None
        parked = self._parked_bpqs()
        blocked = bool(parked) and any(
            bpq.holds(line) for line in self._lines_of(src, pkt.size)
            for bpq in parked)
        if blocked or not self._try_insert(pkt):
            retry = params.CTT_RETRY_CYCLES
            self._ctt_full_stalls.inc()
            self._ctt_full_stall_cycles.inc(retry)
            if self._trace is not None:
                self._trace.instant("mcsquare", self._track, "mclazy-stall",
                                    {"attempt": attempt, "retry": retry,
                                     "blocked": blocked})
            self.sim.schedule(retry,
                              lambda: self._handle_mclazy(pkt, attempt + 1),
                              label="mclazy-retry")
            return
        if self._trace is not None:
            self._trace.instant("mcsquare", self._track, "mclazy",
                                {"dst": hex(pkt.addr),
                                 "src": hex(pkt.src_addr),
                                 "size": pkt.size})
        self._broadcast_update()
        done = self.sim.now + params.BROADCAST_CYCLES
        self.sim.schedule_at(done, lambda: pkt.complete(self.sim.now),
                             label="mclazy-ack")
        self._maybe_start_async_free(force=self.eager_async_copies)

    def _try_insert(self, pkt: Packet) -> bool:
        result = self.ctt.insert(pkt.addr, pkt.src_addr, pkt.size)
        if not result.ok:
            self._maybe_start_async_free(force=True)
            return False
        # Parked writes inside the destination range reached the MC
        # before this MCLAZY, so the copy wholly overwrites them (dst
        # and size are line-aligned).  Discard them now — draining them
        # later would land stale bytes over the new tracking and untrack
        # it (the eager-line resolution below can trigger such a drain).
        self._discard_superseded_parked(pkt.addr, pkt.size)
        # Boundary lines with mixed sources are copied right away, in
        # three phases.  First snapshot every composition from the
        # pre-insert memory image: a redirected piece may source from a
        # line that is itself a tracked destination of this same insert
        # (dst overlapping the redirect target), which the dependent
        # resolution below legitimately rewrites — and the boundary
        # lines of one insert may source from each other's pre-write
        # bytes.  Composing up front reads only, so it cannot disturb
        # the resolution; writing per-line would read clobbered data.
        when = self.sim.now
        staged = []
        for dest_line, pieces in result.eager_lines:
            # The pieces rewrite the whole line, so neither its old bytes
            # nor its old poison survive.
            composed = bytearray(CACHELINE_SIZE)
            poisoned = False
            for src_byte, offset, length in pieces:
                composed[offset:offset + length] = \
                    self.backing.read(src_byte, length)
                poisoned = poisoned or \
                    self.backing.range_poisoned(src_byte, length)
                when = self._access(src_byte, when)
            staged.append((dest_line, bytes(composed), poisoned))
        # The eager writes land in memory now, so any older copy still
        # sourcing from one of these lines must materialize first —
        # for *every* boundary line, before any eager write.
        for dest_line, _pieces in result.eager_lines:
            self._eager_boundary_lines.inc()
            when = self._resolve_dependents_of(dest_line, when, set())
        for dest_line, composed, poisoned in staged:
            self._land(dest_line, composed, poisoned)
            when = self._access(dest_line, when)
        return True

    def _discard_superseded_parked(self, dst: int, size: int) -> None:
        """Drop parked writes that a newly accepted copy wholly overwrites.

        A parked write was received (and acked) before the copy, so in
        MC-observed order the copy — which rewrites every byte of its
        line-aligned destination range — supersedes it.  Without this,
        the parked write would eventually drain through
        :meth:`_drain_ready_bpq_entries`, land its stale bytes, and
        untrack the newer copy's destination.
        """
        parked = self._parked_bpqs()
        if not parked:
            return
        for line in self._lines_of(dst, size):
            for bpq in parked:
                if bpq.holds(line):
                    bpq.supersede(line)
                    self._superseded_parked.inc()

    def _resolve_dependents_of(self, line: int, when: int,
                               visited: set) -> int:
        """Synchronously materialize every tracked destination that still
        draws bytes from ``line``, recursively, before ``line``'s memory
        is overwritten.  Returns the updated timing cursor."""
        if line in visited:
            return when
        visited.add(line)
        for dep in self.ctt.dest_lines_for_source(line, CACHELINE_SIZE):
            # A self-sourcing line is left to the caller, which rewrites
            # ``line`` after every other dependent has read its old bytes.
            if dep == line or self.ctt.lookup_dest_line(dep) is None:
                continue
            when = self._resolve_dependents_of(dep, when, visited)
            # Re-fetch after recursing: a dependency cycle through other
            # lines can materialize and remove ``dep`` inside the
            # recursion, and a stale snapshot would write it a second
            # time from bytes that have since been overwritten.
            entry = self.ctt.lookup_dest_line(dep)
            if entry is None:
                continue
            src_start = entry.src_for_dst(dep)
            data, poisoned = self._read_window(src_start)
            for src_line in window_lines(src_start):
                when = self._access(src_line, when)
            self._land(dep, data, poisoned)
            self._src_write_copies.inc()
            when = self._access(dep, when)
        self._drain_ready_bpq_entries()
        return when

    # ====================================================== async freeing
    def _maybe_start_async_free(self, force: bool = False) -> None:
        """Resolve smallest entries in the background past the threshold."""
        while (self._async_inflight < self.parallel_frees
               and (force or self.ctt.occupancy >= self.copy_threshold)):
            entry = self.ctt.pop_smallest()
            if entry is None:
                return
            self._async_inflight += 1
            self._resolve_entry_async(entry)
            force = False

    def _resolve_entry_async(self, entry: CttEntry) -> None:
        """Copy one claimed entry line by line in the background."""
        if self._trace is not None:
            self._trace.instant("mcsquare", self._track, "async-free",
                                {"dst": hex(entry.dst),
                                 "size": entry.size})
        lines = self._lines_of(entry.dst, entry.size)
        when = self.sim.now
        remaining = {"n": len(lines)}

        def _line_done() -> None:
            remaining["n"] -= 1
            if remaining["n"] == 0:
                self._async_inflight -= 1
                self._async_frees.inc()
                self._drain_ready_bpq_entries()
                self._maybe_start_async_free()

        for line in lines:
            self._async_copied_lines.inc()
            when = self._schedule_materialize(line, when, on_done=_line_done)

    # ============================================================ helpers
    def _parked_bpqs(self) -> List[BouncePendingQueue]:
        """This channel's BPQ and its peers', in that order, leaving
        out the empty ones (usually all of them)."""
        return [mc.bpq for mc in [self] + self.peers if len(mc.bpq)]

    def _read_window(self, start: int) -> Tuple[bytes, bool]:
        """The 64 B source window at ``start`` and its poison: a DUE
        anywhere in the window makes the composed line known-bad."""
        return (self.backing.read(start, CACHELINE_SIZE),
                self.backing.range_poisoned(start, CACHELINE_SIZE))

    def _land(self, line: int, data: bytes, poisoned: bool) -> None:
        """Write a resolved destination line, carry its source's poison,
        and stop tracking it."""
        self.backing.write_line(line, data)
        if poisoned:
            self.backing.poison(line)
            self._poison_propagations.inc()
        self.ctt.remove_dest_range(line, CACHELINE_SIZE)

    def _untrack_written(self, line: int) -> bool:
        """Stop tracking a destination line a write overwrites; False
        when it was not tracked."""
        if self.ctt.lookup_dest_line(line) is None:
            return False
        trimmed = self.ctt.remove_dest_range(line, CACHELINE_SIZE)
        self._dest_write_untracks.inc(trimmed)
        self._broadcast_update()
        return True

    def _access(self, addr: int, when: int) -> int:
        """One synchronous DRAM access to ``addr`` on its owning
        channel, no earlier than ``when``; returns its finish cycle."""
        owner = self._owner_of(addr)
        return owner.channel.access(owner.address_map.decode(addr), when)

    def _owner_of(self, addr: int) -> "McSquareController":
        channel = self.address_map.channel_of(addr)
        if channel == self.channel_id:
            return self
        for peer in self.peers:
            if peer.channel_id == channel:
                return peer
        return self  # single-controller configurations

    def _broadcast_update(self) -> None:
        self._broadcasts.inc(max(1, len(self.peers)))

    @staticmethod
    def _lines_of(addr: int, size: int) -> List[int]:
        first = align_down(addr, CACHELINE_SIZE)
        last = align_down(addr + size - 1, CACHELINE_SIZE)
        return list(range(first, last + CACHELINE_SIZE, CACHELINE_SIZE))
