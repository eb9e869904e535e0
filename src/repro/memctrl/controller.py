"""Base memory controller.

Marshals cacheline READ/WRITE packets onto one DRAM channel.  Reads are
latency-critical: they traverse the controller, access the device, and fire
the packet continuation when data returns.  Writes are *posted*: the sender
is acknowledged after the controller's static latency while the actual
drain to DRAM happens in the background through the write pending queue
(WPQ).  Functional data is applied at arrival so that MC-observed order
defines memory contents, matching the paper's consistency argument (§III-E).

:class:`MemoryController` is the vanilla baseline; the (MC)² controller in
:mod:`repro.mcsquare.controller` subclasses it and overrides the read/write
hooks to add CTT and BPQ behaviour.
"""

from __future__ import annotations

from collections import deque
from operator import itemgetter
from typing import Deque, Dict

from repro.common import params
from repro.common.errors import SimulationError
from repro.dram.address_map import AddressMap
from repro.dram.device import DramChannel
from repro.mem.backing_store import BackingStore
from repro.sim.engine import Simulator
from repro.sim.packet import INMEM_COPY, READ, WRITE, Packet
from repro.sim.stats import StatGroup

#: Sort key of a pending DRAM request: its canonical grant key.
_GRANT_KEY = itemgetter(0)


class MemoryController:
    """One memory controller driving one DRAM channel."""

    def __init__(
        self,
        sim: Simulator,
        channel_id: int,
        address_map: AddressMap,
        backing: BackingStore,
        stats: StatGroup,
        wpq_entries: int = params.MC_WPQ_ENTRIES,
        rpq_entries: int = params.MC_RPQ_ENTRIES,
        inmem_layout: str = "hash",
        inmem_subarray_rows: int = params.ROWCLONE_SUBARRAY_ROWS,
    ):
        self.sim = sim
        self.channel_id = channel_id
        self.address_map = address_map
        self.backing = backing
        self.stats = stats
        self.channel = DramChannel(stats.group("dram"))
        self.wpq_entries = wpq_entries
        self.rpq_entries = rpq_entries
        # In-DRAM copy placement model (repro.copyengine rowclone/mirror):
        # "hash" keeps the avalanche bank hash (row pairs almost never
        # share a subarray, so RowClone degrades to PSM); "ideal" models
        # RowClone's OS/allocator support placing copy pairs in the same
        # subarray, making FPM reachable.
        self.inmem_layout = inmem_layout
        self.inmem_subarray_rows = inmem_subarray_rows
        self._wpq: Deque[Packet] = deque()
        self._wpq_overflow: Deque[Packet] = deque()
        # addr -> count of buffered writes covering it (for forwarding).
        self._pending_write_counts: Dict[int, int] = {}
        self._wpq_draining = False
        # Drain hysteresis watermarks, in entries (see WPQ_DRAIN_HIGH).
        self._wpq_drain_high = max(1, int(wpq_entries * self.WPQ_DRAIN_HIGH))
        self._wpq_drain_low = int(wpq_entries * self.WPQ_DRAIN_LOW)
        self._rpq_occupancy = 0
        # Same-cycle DRAM arbitration: single-access requests issued
        # during a cycle accumulate here and are granted channel slots
        # in canonical key order by one rendezvous-phase event (see
        # dram_request); bank/bus slot assignment must not depend on
        # the order same-cycle callbacks happened to run.
        self._dram_pending: list = []
        self._dram_grant_armed = False
        # Optional repro.obs tracer (set by runtime.attach_tracer) and
        # this controller's trace track name.
        self._trace = None
        self._track = f"mc{channel_id}"

        self._reads = stats.counter("reads", "read packets serviced")
        self._writes = stats.counter("writes", "write packets accepted")
        self._write_drains = stats.counter("write_drains", "WPQ entries drained")
        self._wpq_rejects = stats.counter(
            "wpq_rejects", "writes refused because the WPQ was too full")
        self._inmem_copies = stats.counter(
            "inmem_copies", "in-DRAM copy packets serviced")
        self._read_latency = stats.distribution(
            "read_latency", "cycles from MC arrival to data return",
            keep_samples=False)

    # ----------------------------------------------------------- interface
    def receive(self, pkt: Packet) -> None:
        """Accept a packet from the interconnect at the current cycle."""
        if pkt.issued_at is None:
            pkt.issued_at = self.sim.now
        ptype = pkt.ptype
        if ptype is READ:
            self._handle_read(pkt)
        elif ptype is WRITE:
            self._handle_write(pkt)
        else:
            self._handle_control(pkt)

    @property
    def wpq_occupancy(self) -> int:
        """Writes currently buffered awaiting drain."""
        return len(self._wpq)

    @property
    def wpq_fullness(self) -> float:
        """WPQ occupancy as a fraction of capacity."""
        return len(self._wpq) / self.wpq_entries

    # -------------------------------------------------------------- hooks
    def _handle_read(self, pkt: Packet) -> None:
        """Service a read: device access, then complete with data."""
        self._reads.value += 1
        self._service_read_from_memory(pkt)

    def _handle_write(self, pkt: Packet) -> None:
        """Accept a posted write into the WPQ."""
        self._accept_write(pkt)

    def _handle_control(self, pkt: Packet) -> None:
        """Baseline controller ignores (MC)² control packets."""
        if pkt.ptype is INMEM_COPY:
            self._handle_inmem_copy(pkt)
            return
        self.sim.schedule(1, lambda: pkt.complete(self.sim.now),
                          label="mc-control-ack")

    # ------------------------------------------------------ in-DRAM copy
    def _handle_inmem_copy(self, pkt: Packet) -> None:
        """Execute this channel's share of an in-DRAM copy descriptor.

        The interconnect broadcasts one child packet per controller;
        each controller copies only the destination lines its channel
        owns.  Functional data is applied at arrival (MC-observed order
        defines memory contents, same as posted writes); timing runs the
        row-copy jobs through the per-cycle DRAM arbiter so same-cycle
        grants stay in canonical order.
        """
        jobs = self._inmem_jobs(pkt)
        if not jobs:
            self.sim.schedule(1, lambda: pkt.complete(self.sim.now),
                              label="mc-inmem-ack")
            return
        self._inmem_copies.inc()
        if self._trace is not None:
            self._trace.instant("mc", self._track, "inmem-copy",
                                {"addr": hex(pkt.addr), "size": pkt.size,
                                 "jobs": len(jobs)})
        state = {"left": len(jobs), "done": 0}

        def _granted(done: int) -> None:
            state["left"] -= 1
            if done > state["done"]:
                state["done"] = done
            if state["left"] == 0:
                finish = state["done"] + params.MC_STATIC_LATENCY_CYCLES
                self.sim.schedule_at(finish,
                                     lambda: pkt.complete(self.sim.now),
                                     label="mc-inmem-done")

        for key, run_job in jobs:
            self.dram_request(run_job, key, _granted,
                              extra=params.MC_STATIC_LATENCY_CYCLES)

    def _inmem_jobs(self, pkt: Packet) -> list:
        """Group this channel's line pairs into row-copy jobs.

        Returns ``[(grant_key, job_callable), ...]`` where each callable
        runs one :meth:`DramChannel.row_copy` when granted.  A job is
        one (source row, destination row) pair; a *full* pair (every
        line of the destination row covered, sources all in one row —
        i.e. the copy offset is row-aligned) is eligible for FPM /
        mirroring, anything partial falls back to PSM's serial per-line
        transfer.
        """
        amap = self.address_map
        line_bytes = amap.row_bytes // amap.lines_per_row
        # job key -> [src_loc, dst_loc, first_dst_addr, lines]
        groups: Dict[tuple, list] = {}
        for off in range(0, pkt.size, line_bytes):
            dst_line = pkt.addr + off
            if not self.owns(dst_line):
                continue
            src_line = pkt.src_addr + off
            src_loc = amap.decode(src_line)
            if src_loc.channel != self.channel_id:
                raise SimulationError(
                    "INMEM_COPY pair crosses channels: the issuing "
                    f"backend must guarantee congruence (src {src_line:#x} "
                    f"on ch{src_loc.channel}, dst {dst_line:#x} on "
                    f"ch{self.channel_id})")
            dst_loc = amap.decode(dst_line)
            self.backing.copy(dst_line, src_line, line_bytes)
            key = (src_loc.bank, src_loc.row, dst_loc.bank, dst_loc.row)
            group = groups.get(key)
            if group is None:
                groups[key] = [src_loc, dst_loc, dst_line, 1]
            else:
                group[3] += 1
        jobs = []
        for src_loc, dst_loc, first_dst, lines in groups.values():
            mode = self._inmem_mode(pkt.copy_mode, src_loc, dst_loc, lines)
            jobs.append((
                (self.DRAM_RANK_MATERIALIZE, first_dst),
                lambda at, s=src_loc, d=dst_loc, m=mode, n=lines:
                    self.channel.row_copy(s, d, at, m, n),
            ))
        return jobs

    def _inmem_mode(self, requested, src_loc, dst_loc, lines: int) -> str:
        """Pick the DRAM mechanism for one row-pair job."""
        if lines < self.address_map.lines_per_row:
            return "psm"  # partial rows cannot be cloned wholesale
        if requested == "mirror":
            return "mirror"
        if self.inmem_layout == "ideal":
            return "fpm"
        same_subarray = (
            src_loc.bank == dst_loc.bank
            and src_loc.row // self.inmem_subarray_rows
            == dst_loc.row // self.inmem_subarray_rows)
        return "fpm" if same_subarray else "psm"

    # ---------------------------------------------------- DRAM arbitration
    # Canonical same-cycle grant order: reads first (latency-critical,
    # the standard read-priority policy), then bounce reads, lazy-copy
    # materializations, bounce writebacks, WPQ drains last.
    DRAM_RANK_READ = 0
    DRAM_RANK_BOUNCE = 1
    DRAM_RANK_MATERIALIZE = 2
    DRAM_RANK_BOUNCE_WB = 3
    DRAM_RANK_DRAIN = 4

    def dram_request(self, loc, key, on_grant, extra: int = 0) -> None:
        """Reserve one channel access through this cycle's arbiter.

        ``on_grant(done)`` is invoked *during the grant event* (same
        cycle, rendezvous phase) with the access's completion cycle;
        the caller schedules its own continuation.  ``key`` is the
        canonical grant order — a (rank, addr, ...) tuple of ints — so
        that same-cycle requests are granted identically however the
        tie-break ordered the requesting callbacks.  ``extra`` delays
        the device arrival (controller static latency, remote hops).
        """
        self._dram_pending.append((key, loc, extra, on_grant))
        if not self._dram_grant_armed:
            self._dram_grant_armed = True
            self.sim.schedule(0, self._grant_dram, label="dram-grant",
                              phase=2)

    def _grant_dram(self) -> None:
        self._dram_grant_armed = False
        pending = self._dram_pending
        self._dram_pending = []
        if len(pending) > 1:
            pending.sort(key=_GRANT_KEY)
        now = self.sim.now
        for _key, loc, extra, on_grant in pending:
            # ``loc`` is either a decoded DramLocation for an ordinary
            # cacheline access, or (for in-DRAM copy jobs) a callable
            # that runs its own device operation at the granted cycle.
            if callable(loc):
                on_grant(loc(now + extra))
            else:
                on_grant(self.channel.access(loc, now + extra))

    # ---------------------------------------------------------- mechanics
    def _service_read_from_memory(self, pkt: Packet,
                                  extra_delay: int = 0) -> None:
        """Run ``pkt`` through the DRAM channel and schedule completion."""
        sim = self.sim
        backing = self.backing
        addr = pkt.addr
        # Forward from the WPQ when a buffered write covers this line.
        if self._pending_write_counts.get(addr):
            pkt.data = backing.read_line(addr)
            pkt.poisoned = backing.line_poisoned(addr)
            # WPQ CAM forward
            done = sim.now + params.MC_STATIC_LATENCY_CYCLES + extra_delay + 2
            sim.schedule_at(done, lambda: pkt.complete(sim.now),
                            label="mc-wpq-forward")
            self._read_latency.record(done - sim.now)
            return

        def _granted(data_ready: int) -> None:
            done = data_ready + params.MC_STATIC_LATENCY_CYCLES
            pkt.data = backing.read_line(addr)
            pkt.poisoned = backing.line_poisoned(addr)
            self._read_latency.record(done - sim.now)
            sim.schedule_at(done, lambda: pkt.complete(sim.now),
                            label="mc-read-done")

        self.dram_request(self.address_map.decode(addr),
                          (self.DRAM_RANK_READ, addr, pkt.requestor),
                          _granted,
                          extra=params.MC_STATIC_LATENCY_CYCLES + extra_delay)

    def _accept_write(self, pkt: Packet) -> None:
        """Post a write: apply data, ack the sender, queue the drain.

        Functional data is applied at arrival (MC-observed order defines
        memory contents); the *ack* is what back-pressure delays when the
        WPQ is full.
        """
        self._writes.value += 1
        addr = pkt.addr
        if pkt.data is not None:
            self.backing.write_line(addr, pkt.data)
            if pkt.poisoned:
                # A poisoned cacheline written back stays known-bad in
                # memory; only clean data clears the line's poison.
                self.backing.poison(addr)
        else:
            pkt.data = self.backing.read_line(addr)
            pkt.poisoned = self.backing.line_poisoned(addr)
        counts = self._pending_write_counts
        counts[addr] = counts.get(addr, 0) + 1
        wpq = self._wpq
        if len(wpq) < self.wpq_entries:
            wpq.append(pkt)
            sim = self.sim
            sim.schedule_at(sim.now + params.MC_STATIC_LATENCY_CYCLES,
                            lambda: pkt.complete(sim.now),
                            label="mc-write-ack")
        else:
            # Full: the write waits outside; its ack is deferred, which
            # back-pressures the sender.
            self._wpq_rejects.value += 1
            self._wpq_overflow.append(pkt)
            if self._trace is not None:
                self._trace.instant("mc", self._track, "wpq-reject",
                                    {"addr": hex(addr), "wpq": len(wpq)})
        self._kick_wpq_drain()

    def _retire_write(self, pkt: Packet) -> None:
        """Bookkeeping when a buffered write leaves the WPQ."""
        counts = self._pending_write_counts
        addr = pkt.addr
        count = counts.get(addr, 1) - 1
        if count <= 0:
            counts.pop(addr, None)
        else:
            counts[addr] = count
        overflow = self._wpq_overflow
        if overflow and len(self._wpq) < self.wpq_entries:
            promoted = overflow.popleft()
            self._wpq.append(promoted)
            promoted.complete(self.sim.now)

    # Write-drain hysteresis: start draining above the high watermark,
    # stop below the low one.  Batching writes keeps them from closing
    # the rows that in-flight reads are streaming out of (the standard
    # read-priority / write-drain-mode controller policy).
    WPQ_DRAIN_HIGH = 0.5
    WPQ_DRAIN_LOW = 0.25

    def _kick_wpq_drain(self) -> None:
        if self._wpq_draining or len(self._wpq) < self._wpq_drain_high:
            return
        self._wpq_draining = True
        if self._trace is not None:
            self._trace.instant("mc", self._track, "wpq-drain-start",
                                {"wpq": len(self._wpq)})
        # Phase 1: the drain pump is a component arbiter — its
        # stop/continue decision samples WPQ occupancy, which must
        # reflect every same-cycle write arrival regardless of the
        # tie-break (MC2601).
        self.sim.schedule(1, self._drain_one_write, label="mc-wpq-drain",
                          phase=1)

    def _drain_one_write(self) -> None:
        wpq = self._wpq
        if not wpq or (len(wpq) <= self._wpq_drain_low
                       and not self._wpq_overflow):
            self._wpq_draining = False
            return
        pkt = wpq.popleft()
        self._retire_write(pkt)
        addr = pkt.addr
        self._write_drains.value += 1
        self.dram_request(self.address_map.decode(addr),
                          (self.DRAM_RANK_DRAIN, addr), self._drain_granted)

    def _drain_granted(self, done: int) -> None:
        """The drained write's DRAM slot is granted: pump the next one
        when its access completes."""
        self.sim.schedule_at(done, self._drain_one_write,
                             label="mc-wpq-next", phase=1)

    # ------------------------------------------------------------ helpers
    def owns(self, addr: int) -> bool:
        """True when this controller's channel owns ``addr``."""
        return self.address_map.channel_of(addr) == self.channel_id
