"""Bounce Pending Queue (BPQ).

The BPQ extends the memory controller's write pending queue (§III-A2).
When a write arrives for a cacheline that is the *source* of one or more
prospective copies, the write is parked here while (MC)² materializes the
dependent destination lines from the pre-write memory contents.  Once every
entry referencing the line is resolved, the parked write drains to memory.

Reads and writes from the CPU to a parked line are merged and serviced
directly from the BPQ (Fig. 9, states 3-6).  When the BPQ is full, further
source-buffer writes are stalled, creating back-pressure on the caches —
this is the effect the paper's Figure 21 sweeps.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.common import params
from repro.common.errors import SimulationError
from repro.common.units import CACHELINE_SIZE, align_down
from repro.sim.packet import Packet
from repro.sim.stats import StatGroup


class BpqEntry:
    """One parked source-line write awaiting lazy-copy resolution."""

    __slots__ = ("line", "data", "packets", "pending_copies", "parked_at",
                 "poisoned", "park_id")

    def __init__(self, line: int, data: bytes, packet: Packet, now: int):
        self.line = line
        self.data = bytearray(data)
        self.packets: List[Packet] = [packet]
        self.pending_copies = 0
        self.parked_at = now
        # Poison travels with the parked data: a poisoned write stays
        # poisoned through merges and into the eventual drain.
        self.poisoned = packet.poisoned
        # Per-queue serial assigned at park time; keys the trace span.
        self.park_id: Optional[int] = None

    def merge(self, data: bytes, packet: Packet) -> None:
        """Coalesce a newer full-line write to the same parked line."""
        self.data = bytearray(data)
        self.packets.append(packet)
        # The newer full-line write fully replaces the parked bytes, so
        # its poison state replaces the old one too.
        self.poisoned = packet.poisoned


class BouncePendingQueue:
    """Fixed-capacity queue of parked source writes for one MC."""

    def __init__(self, capacity: int = params.BPQ_ENTRIES,
                 stats: Optional[StatGroup] = None,
                 name: str = "bpq",
                 clock: Optional[Callable[[], int]] = None):
        if capacity <= 0:
            raise SimulationError("BPQ capacity must be positive")
        self.capacity = capacity
        self.name = name
        self._clock = clock
        self._entries: Dict[int, BpqEntry] = {}
        # Optional repro.obs tracer (set by runtime.attach_tracer) and
        # the per-queue park serial that keys its spans.
        self._trace = None
        self._park_seq = 0
        stats = stats or StatGroup("bpq")
        self.stats = stats
        self._parked = stats.counter("parked", "source writes parked")
        self._merged = stats.counter("merged", "writes merged into a parked line")
        self._drained = stats.counter("drained", "parked writes drained to memory")
        self._full_stalls = stats.counter(
            "full_stalls", "writes delayed because the BPQ was full")
        # Cycle-end high-water mark, mirroring the CTT's: a same-cycle
        # park/release pair ends the cycle at the same length whichever
        # ran first, so only cycle-end lengths count toward the peak
        # (per-mutation when clockless — see _note_occupancy).
        self._peak_committed = 0
        self._peak_cycle: Optional[int] = None
        self._cycle_end_len = 0
        stats.formula("peak_occupancy", "max entries held at any cycle end",
                      lambda: float(max(self._peak_committed,
                                        len(self._entries))))
        self._dropped = stats.counter(
            "dropped", "parked writes discarded by fault injection")
        self._superseded = stats.counter(
            "superseded", "parked writes overwritten by a newer copy")

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def full(self) -> bool:
        """True when no further source write can be parked."""
        return len(self._entries) >= self.capacity

    def holds(self, addr: int) -> bool:
        """True when the line containing ``addr`` is parked."""
        return align_down(addr, CACHELINE_SIZE) in self._entries

    def get(self, addr: int) -> Optional[BpqEntry]:
        """The parked entry for the line containing ``addr``, if any."""
        return self._entries.get(align_down(addr, CACHELINE_SIZE))

    def park(self, line: int, data: bytes, packet: Packet, now: int) -> BpqEntry:
        """Park a source write; the line must not already be parked."""
        if line in self._entries:
            raise SimulationError(f"line {line:#x} already parked")
        if self.full:
            raise SimulationError("BPQ full; caller must check before parking")
        entry = BpqEntry(line, data, packet, now)
        entry.park_id = self._park_seq
        self._park_seq += 1
        self._entries[line] = entry
        self._parked.inc()
        self._note_occupancy()
        trace = self._trace
        if trace is not None:
            trace.span_begin("bpq", self.name, "parked-write",
                            self._span_id(entry), {"line": hex(line)})
        return entry

    def merge(self, line: int, data: bytes, packet: Packet) -> BpqEntry:
        """Coalesce a newer write into an already-parked line."""
        entry = self._entries[line]
        entry.merge(data, packet)
        self._merged.inc()
        trace = self._trace
        if trace is not None:
            trace.span_point("bpq", self.name, "merge",
                             self._span_id(entry))
        return entry

    def _note_occupancy(self) -> None:
        """Advance the cycle-end occupancy high-water mark.

        The first mutation of a new cycle commits the previous cycle's
        final length as a peak candidate; the read-time formula folds in
        the still-open cycle.  Clockless queues (unit tests) keep a
        per-mutation high-water mark instead.
        """
        if self._clock is None:
            if len(self._entries) > self._peak_committed:
                self._peak_committed = len(self._entries)
            return
        now = self._clock()
        if self._peak_cycle is not None and now != self._peak_cycle \
                and self._cycle_end_len > self._peak_committed:
            self._peak_committed = self._cycle_end_len
        self._peak_cycle = now
        self._cycle_end_len = len(self._entries)

    def release(self, line: int) -> BpqEntry:
        """Remove and return the parked entry (it is draining to memory)."""
        entry = self._entries.pop(line)
        self._drained.inc()
        self._note_occupancy()
        self._end_span(entry, "drained")
        return entry

    def supersede(self, line: int) -> BpqEntry:
        """Remove a parked entry wholly overwritten by a newer copy.

        An MCLAZY accepted *after* the write parked turns the line into a
        tracked destination; the copy overwrites the full cacheline, so
        in MC-observed order (§III-E) the parked bytes must never drain —
        they would land stale data over the newer copy's tracking.
        """
        entry = self._entries.pop(line)
        self._superseded.inc()
        self._note_occupancy()
        self._end_span(entry, "superseded")
        return entry

    def drop(self, line: int) -> BpqEntry:
        """Remove a parked entry *without* draining it (fault injection).

        The parked bytes are lost; memory keeps the pre-write contents.
        Distinct from :meth:`release` so the stats tell data loss apart
        from a normal drain.
        """
        entry = self._entries.pop(line)
        self._dropped.inc()
        self._note_occupancy()
        self._end_span(entry, "dropped")
        return entry

    def record_full_stall(self) -> None:
        """Account one write delayed by a full BPQ."""
        self._full_stalls.inc()

    def entries(self) -> List[BpqEntry]:
        """Snapshot of parked entries."""
        return list(self._entries.values())

    # ------------------------------------------------------------- tracing
    def _span_id(self, entry: BpqEntry) -> str:
        return f"{self.name}:park:{entry.park_id}"

    def _end_span(self, entry: BpqEntry, reason: str) -> None:
        trace = self._trace
        if trace is not None:
            trace.span_end("bpq", self._span_id(entry), {"reason": reason})
