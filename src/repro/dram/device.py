"""DDR4-style DRAM device timing.

Each channel has a set of banks, each with an open-row register.  An access
costs a device latency that depends on the row-buffer state (hit / closed /
conflict) plus data-burst occupancy of the shared channel data bus.  The
channel bus is modelled as a busy-until resource: requests serialize on it,
which is what produces bandwidth-bound behaviour (Figs 16b/17b/22).
"""

from __future__ import annotations

from typing import List, Optional

from repro.common import params
from repro.dram.address_map import DramLocation
from repro.sim.stats import StatGroup


class Bank:
    """One DRAM bank: tracks the open row and when it is next usable."""

    __slots__ = ("open_row", "ready_at")

    def __init__(self) -> None:
        self.open_row: Optional[int] = None
        self.ready_at: int = 0


class DramChannel:
    """Timing model of one DRAM channel (one per memory controller)."""

    def __init__(self, stats: StatGroup, banks: int = params.DRAM_BANKS_PER_CHANNEL):
        self.banks: List[Bank] = [Bank() for _ in range(banks)]
        self.bus_free_at: int = 0
        # Device latencies of the speed grade in force when the channel
        # is built (repro.dram.timing.apply_timing rebinds the params
        # for systems built after it).
        self._hit_cycles = params.DRAM_ROW_HIT_CYCLES
        self._miss_cycles = params.DRAM_ROW_MISS_CYCLES
        self._conflict_cycles = params.DRAM_ROW_CONFLICT_CYCLES
        self._burst_cycles = params.DRAM_BURST_CYCLES
        self.stats = stats
        self._row_hits = stats.counter("row_hits", "row-buffer hits")
        self._row_misses = stats.counter("row_misses", "closed-row activations")
        self._row_conflicts = stats.counter("row_conflicts", "row-buffer conflicts")
        self._busy_cycles = stats.counter("bus_busy_cycles", "data-bus occupancy")
        self._accesses = stats.counter("accesses", "total device accesses")
        # In-DRAM copy (repro.copyengine rowclone/mirror backends).  Row
        # copies are deliberately *not* counted as accesses: they move
        # data without occupying the external channel bus (except PSM).
        self._copies_fpm = stats.counter(
            "row_copies_fpm", "RowClone fast-parallel-mode row copies")
        self._copies_psm = stats.counter(
            "row_copies_psm", "RowClone pipelined-serial-mode transfers")
        self._copies_mirror = stats.counter(
            "row_copies_mirror", "in-memory-mirroring row clones")
        self._copy_lines = stats.counter(
            "row_copy_lines", "cachelines moved by in-DRAM copies")
        # Optional repro.obs tracer (set by runtime.attach_tracer) and
        # this channel's trace track name.  The "dram" category is a
        # firehose (one event per device access) and is off by default.
        self._trace = None
        self._track = "dram"

    def access(self, loc: DramLocation, now: int) -> int:
        """Perform one cacheline access; returns the completion cycle.

        Updates bank open-row state and channel bus occupancy.  ``now`` is
        the cycle the request reaches the device.
        """
        bank = self.banks[loc.bank]
        start = bank.ready_at
        if start < now:
            start = now
        burst = self._burst_cycles
        open_row = bank.open_row
        row = loc.row
        if open_row == row:
            device = self._hit_cycles
            # Back-to-back CAS to an open row pipeline at tCCD: the bank
            # accepts the next column command after roughly one burst.
            occupancy = burst
            self._row_hits.value += 1
            kind = "hit"
        elif open_row is None:
            device = self._miss_cycles
            occupancy = device  # activation blocks the bank
            self._row_misses.value += 1
            kind = "miss"
        else:
            device = self._conflict_cycles
            # FR-FCFS controllers batch same-row requests before
            # switching, amortizing the precharge+activate over several
            # column accesses.  Our in-order bank cannot reorder, so the
            # batching shows up as reduced *occupancy* (throughput) while
            # each conflicting access still pays the full latency.
            occupancy = device // 4
            self._row_conflicts.value += 1
            kind = "conflict"
        bank.open_row = row

        # Banks overlap their device latency; only the 64B data burst
        # serializes on the shared channel data bus.
        data_ready = start + device
        if data_ready < self.bus_free_at:
            data_ready = self.bus_free_at
        done = data_ready + burst
        self.bus_free_at = done
        bank.ready_at = start + occupancy
        self._busy_cycles.value += burst
        self._accesses.value += 1
        if self._trace is not None:
            self._trace.complete("dram", self._track, "access", start, done,
                                 {"bank": loc.bank, "row": row,
                                  "kind": kind})
        return done

    def row_copy(self, src_loc: DramLocation, dst_loc: DramLocation,
                 now: int, mode: str, lines: int) -> int:
        """Copy ``lines`` cachelines from ``src_loc`` to ``dst_loc`` in DRAM.

        ``mode`` is the mechanism the controller chose for this job:

        * ``"fpm"`` — RowClone fast parallel mode: back-to-back
          activations within one subarray clone the whole row without
          touching the channel bus.  Both banks (one, when src and dst
          share a bank) are busy for the activation window.
        * ``"mirror"`` — In-Memory Mirroring: one activation window
          drives both rows, no read phase, no bus occupancy.
        * ``"psm"`` — RowClone pipelined serial mode: one cacheline at a
          time through the internal bus, serializing against ordinary
          data bursts (this is where bandwidth pressure bites).

        Returns the completion cycle.  Like :meth:`access`, ``now`` is
        the cycle the command reaches the device; bank/bus state is a
        busy-until model, so calls compute future completion times
        deterministically in grant order.
        """
        src_bank = self.banks[src_loc.bank]
        dst_bank = self.banks[dst_loc.bank]
        start = max(now, src_bank.ready_at, dst_bank.ready_at)
        if mode == "fpm":
            done = start + params.ROWCLONE_FPM_CYCLES
            self._copies_fpm.value += 1
        elif mode == "mirror":
            done = start + params.MIRROR_ROW_CYCLES
            self._copies_mirror.value += 1
        else:  # psm
            start = max(start, self.bus_free_at)
            done = start + lines * params.ROWCLONE_PSM_PER_LINE_CYCLES
            self.bus_free_at = done
            self._busy_cycles.value += done - start
            self._copies_psm.value += 1
        # Both banks end the copy with the touched rows activated (FPM's
        # AAP sequence leaves the destination row in the row buffer;
        # PSM's serial transfers keep both rows open throughout).
        src_bank.ready_at = done
        dst_bank.ready_at = done
        src_bank.open_row = src_loc.row
        dst_bank.open_row = dst_loc.row
        self._copy_lines.value += lines
        if self._trace is not None:
            self._trace.complete("dram", self._track, f"rowcopy-{mode}",
                                 start, done,
                                 {"src_bank": src_loc.bank,
                                  "dst_bank": dst_loc.bank,
                                  "lines": lines})
        return done

    def earliest_start(self, now: int) -> int:
        """Earliest cycle a new access could begin on this channel."""
        return max(now, self.bus_free_at)
