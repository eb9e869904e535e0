"""Two-level cache hierarchy (per-core L1 + shared L2) with timing.

Responsibilities:

* demand loads/stores with write-allocate and RFO semantics,
* MSHR-bounded memory-level parallelism per core,
* dirty-line writebacks on eviction (functional data reaches memory only
  through these, which is what the (MC)² BPQ relies on),
* CLWB (flush one line, keep it cached clean),
* non-temporal stores (straight to memory, invalidating cached copies),
* MCLAZY pre-processing (§III-B1): write back dirty source lines, then
  invalidate destination lines, then forward the packet to the MCs,
* stride prefetching at the L2 (Table I has one at both levels; modelling
  it where misses are expensive captures the behaviour that matters).

A simple write-invalidate policy keeps per-core L1s coherent: a store by
one core invalidates the line in other cores' L1s.

The caches share one *presence directory* (line address -> bitmask of
the caches holding it: bit ``i`` for core ``i``'s L1, bit ``num_cores``
for the L2), kept exact by :class:`~repro.cache.cache.Cache` itself.
Every walk over several caches — the flush and invalidate boundary in
front of CLWB, MCLAZY, in-DRAM and bulk copies, the peer-L1 snoops and
invalidations, the functional reads — consults it first: a line no
cache holds costs one dict probe, and otherwise only the holders are
visited, the L1s before the L2 (an L1 copy is never older than the
L2's).  A bulk copy's buffers are usually uncached, so this boundary
is mostly probes.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.common import params
from repro.common.errors import AlignmentError
from repro.common.units import CACHELINE_SIZE, align_down
from repro.cache.cache import Cache, CacheLine
from repro.cache.prefetcher import StridePrefetcher
from repro.sim.engine import Simulator
from repro.sim.packet import READ, WRITE, Packet, PacketType
from repro.sim.stats import StatGroup

#: Aligns an address down to its cacheline (CACHELINE_SIZE is 2^n).
_LINE_MASK = ~(CACHELINE_SIZE - 1)


class CacheHierarchy:
    """Per-core L1s over a shared L2, fronting the memory interconnect."""

    def __init__(
        self,
        sim: Simulator,
        num_cores: int,
        send_to_memory: Callable[[Packet], None],
        stats: StatGroup,
        l1_size: int = params.L1_SIZE,
        l1_assoc: int = params.L1_ASSOC,
        l2_size: int = params.L2_SIZE,
        l2_assoc: int = params.L2_ASSOC,
        prefetch_enabled: bool = True,
    ):
        self.sim = sim
        self.num_cores = num_cores
        self.send_to_memory = send_to_memory
        self.stats = stats
        # Presence directory shared by all caches (see the module
        # docstring); each cache owns one bit of the mask.
        self._directory: Dict[int, int] = {}
        self.l1s = [Cache(f"l1_{i}", l1_size, l1_assoc,
                          stats.group(f"l1_{i}"),
                          directory=self._directory, bit=1 << i)
                    for i in range(num_cores)]
        self.l2 = Cache("l2", l2_size, l2_assoc, stats.group("l2"),
                        directory=self._directory, bit=1 << num_cores)
        # Directory mask of every L1 but core's own (snoop targets).
        self._peer_bits: List[int] = [
            ((1 << num_cores) - 1) & ~(1 << core) for core in range(num_cores)]
        # Every cache once, the L1s before the L2: an L1 copy is never
        # older than the L2's (the L2 learns newer data only from an L1
        # that gives the line up or writes it back), so the first
        # holder, or the first dirty holder, in this order has the
        # line's current data.  Write-invalidate keeps at most one L1
        # copy dirty (the ConsistencyChecker's single-writer rule), so
        # the order among the L1s does not matter.
        self._caches: List[Cache] = self.l1s + [self.l2]
        self.prefetcher = StridePrefetcher(stats.group("prefetcher"),
                                           enabled=prefetch_enabled)
        # Per-core outstanding L1 misses (MSHR budget) + wait queues.
        self._outstanding: List[int] = [0] * num_cores
        self._mshr_waiters: List[List[Callable[[], None]]] = [
            [] for _ in range(num_cores)]
        # Lines with a memory fetch in flight: addr -> callbacks waiting.
        self._inflight_fills: Dict[int, List[Callable[[bytes, int], None]]] = {}
        self._prefetch_inflight: set = set()
        # Prefetch queue depth is tracked per requesting core: one
        # saturated stream must not starve the other cores' prefetchers.
        self._prefetch_inflight_by_core: List[int] = [0] * num_cores
        self._clwb_inflight = 0
        self._clwb_waiters: List[Callable[[], None]] = []
        # Optional repro.obs tracer (set by runtime.attach_tracer).
        self._trace = None
        # Invalidation epochs: a fill that started before an invalidation
        # (MCLAZY destination, NT store, bulk-copy overwrite) must not
        # install its now-stale data when it returns.  An epoch matters
        # only while a fill that captured it is outstanding, so
        # invalidations bump only while captures are outstanding and the
        # table empties when the last one is released.
        self._fill_epoch: Dict[int, int] = {}
        self._epoch_captures = 0
        # Lines whose cached copy was filled from poisoned memory
        # (detected-uncorrectable ECC).  Writebacks of these lines carry
        # the poison back to memory so corruption stays contained; a
        # clean refill or full invalidation clears the mark.  Empty on a
        # healthy machine, so the hot paths are unaffected.
        self.poisoned_lines: set = set()

        self._loads = stats.counter("loads", "demand loads")
        self._stores = stats.counter("stores", "demand stores")
        self._mem_reads = stats.counter("mem_reads", "reads sent to memory")
        self._writebacks = stats.counter("writebacks", "dirty lines written back")
        self._clwbs = stats.counter("clwbs", "CLWB flushes performed")
        self._nt_stores = stats.counter("nt_stores", "non-temporal stores")
        self._prefetch_fills = stats.counter(
            "prefetch_fills", "prefetched lines installed")
        self._prefetch_useful = stats.counter(
            "prefetch_useful", "demand hits on in-flight prefetches")

    # ------------------------------------------------------------ demand
    def load(self, core: int, addr: int, size: int,
             on_complete: Callable[[bytes, int], None]) -> None:
        """Load ``size`` bytes (within one line) for ``core``.

        ``on_complete(data, finish_cycle)`` fires when the value is
        available.  Latency: L1 hit, L2 hit, or full memory round trip,
        bounded by the core's MSHR budget.
        """
        self._loads.value += 1
        line_addr = addr & _LINE_MASK
        offset = addr - line_addr
        if offset + size > CACHELINE_SIZE:
            self._split_load(core, addr, size, on_complete)
            return
        l1 = self.l1s[core]
        sim = self.sim
        now = sim.now

        line = l1.lookup(addr, now)
        if line is not None:
            l1.hits.value += 1
            done = now + params.L1_HIT_CYCLES
            data = bytes(line.data[offset:offset + size])
            sim.schedule_at(done, lambda: on_complete(data, done), "l1-hit")
            return
        l1.misses.value += 1
        self._train_prefetcher(core, line_addr)

        # MESI-style owner forward: if a peer L1 holds the line dirty,
        # its copy is the truth — any L2 copy is a stale RFO fill.
        # Migrate it into the shared L2 before consulting it.
        held = self._directory.get(line_addr, 0) & self._peer_bits[core]
        if held:
            for peer in self.l1s:
                if not peer.bit & held:
                    continue
                peer_line = peer.lookup(addr, now, touch=False)
                if peer_line.dirty:
                    self._install(self.l2, line_addr, bytes(peer_line.data),
                                  dirty=True)
                    peer_line.dirty = False
                    break

        l2_line = self.l2.lookup(addr, now)
        if l2_line is not None:
            self.l2.hits.value += 1
            done = now + params.L2_HIT_CYCLES
            data = bytes(l2_line.data)
            value = data[offset:offset + size]
            epoch = self._capture_epoch(line_addr)

            def _fill_l1() -> None:
                if self._release_epoch(line_addr, epoch):
                    self._install(l1, line_addr, data, dirty=False)
                on_complete(value, done)

            sim.schedule_at(done, _fill_l1, "l2-hit")
            return
        self.l2.misses.value += 1

        # Snoop peer L1s: a dirty copy there must be forwarded, not
        # re-fetched stale from memory.
        held = self._directory.get(line_addr, 0) & self._peer_bits[core]
        if held:
            # The lowest set bit is the first holder in core order.
            peer = self.l1s[(held & -held).bit_length() - 1]
            peer_line = peer.lookup(addr, now, touch=False)
            data = bytes(peer_line.data)
            self._install(self.l2, line_addr, data, dirty=peer_line.dirty)
            peer_line.dirty = False
            done = now + params.L2_HIT_CYCLES + 10
            value = data[offset:offset + size]
            epoch = self._capture_epoch(line_addr)

            def _forwarded(d=data, v=value, t=done) -> None:
                if self._release_epoch(line_addr, epoch):
                    self._install(l1, line_addr, d, dirty=False)
                on_complete(v, t)

            sim.schedule_at(done, _forwarded, "peer-forward")
            return

        def _on_fill(data: bytes, finish: int) -> None:
            on_complete(data[offset:offset + size], finish)

        # Both levels just missed, so no replay lookup is needed.
        self._fetch_miss(core, line_addr, _on_fill, fill_l1=True)

    def store(self, core: int, addr: int, size: int, data: bytes,
              on_complete: Callable[[int], None]) -> None:
        """Store ``size`` bytes (within one line): write-allocate + RFO.

        ``on_complete(finish_cycle)`` fires when the store has landed in
        the cache (i.e. when a store-buffer entry could drain).
        """
        self._stores.value += 1
        line_addr = align_down(addr, CACHELINE_SIZE)
        if (addr - line_addr) + size > CACHELINE_SIZE:
            self._split_store(core, addr, size, data, on_complete)
            return
        l1 = self.l1s[core]
        self._invalidate_peers(core, line_addr)
        # A store that rewrites every byte of the line no longer depends
        # on the (possibly poisoned) previous contents: recovery by full
        # overwrite, as on real machines.  Partial stores keep the taint.
        full_line = addr == line_addr and size == CACHELINE_SIZE

        if l1.write_bytes(addr, data, self.sim.now):
            if full_line:
                self.poisoned_lines.discard(line_addr)
            l1.hits.value += 1
            done = self.sim.now + 1
            self.sim.schedule_at(done, lambda: on_complete(done),
                                 label="store-hit")
            return
        l1.misses.value += 1
        self._train_prefetcher(core, line_addr)

        l2_line = self.l2.lookup(addr, self.sim.now)
        if l2_line is not None:
            self.l2.hits.value += 1
            done = self.sim.now + params.L2_HIT_CYCLES

            def _fill_and_write() -> None:
                self._install(l1, line_addr, bytes(l2_line.data), dirty=False)
                l1.write_bytes(addr, data, self.sim.now)
                if full_line:
                    self.poisoned_lines.discard(line_addr)
                on_complete(done)

            self.sim.schedule_at(done, _fill_and_write, label="store-l2")
            return
        self.l2.misses.value += 1

        def _on_rfo(line_data: bytes, finish: int) -> None:
            l1.write_bytes(addr, data, self.sim.now)
            if full_line:
                self.poisoned_lines.discard(line_addr)
            on_complete(finish)

        # Both levels just missed, so no replay lookup is needed.
        self._fetch_miss(core, line_addr, _on_rfo, fill_l1=True)

    def _split_load(self, core: int, addr: int, size: int,
                    on_complete: Callable[[bytes, int], None]) -> None:
        """A load crossing a cacheline splits into two accesses."""
        first = CACHELINE_SIZE - (addr % CACHELINE_SIZE)
        parts: Dict[int, bytes] = {}
        latest = [0]

        def _collect(idx, n):
            def _done(data: bytes, finish: int) -> None:
                parts[idx] = data
                latest[0] = max(latest[0], finish)
                if len(parts) == 2:
                    on_complete(parts[0] + parts[1], latest[0])
            return _done

        self.load(core, addr, first, _collect(0, first))
        self.load(core, addr + first, size - first, _collect(1, size - first))

    def _split_store(self, core: int, addr: int, size: int, data: bytes,
                     on_complete: Callable[[int], None]) -> None:
        """A store crossing a cacheline splits into two accesses."""
        first = CACHELINE_SIZE - (addr % CACHELINE_SIZE)
        remaining = [2]
        latest = [0]

        def _done(finish: int) -> None:
            remaining[0] -= 1
            latest[0] = max(latest[0], finish)
            if remaining[0] == 0:
                on_complete(latest[0])

        self.store(core, addr, first, data[:first], _done)
        self.store(core, addr + first, size - first, data[first:], _done)

    # -------------------------------------------------------- special ops
    def nt_store(self, core: int, addr: int, size: int, data: bytes,
                 on_complete: Callable[[int], None]) -> None:
        """Non-temporal store: bypass the caches, no RFO (§V-B, Fig. 17)."""
        self._nt_stores.inc()
        line_addr = align_down(addr, CACHELINE_SIZE)
        merged = bytearray(self._functional_line(line_addr))
        offset = addr - line_addr
        merged[offset:offset + size] = data
        # A full-line NT store is all-fresh data; a partial one keeps
        # bytes from a (possibly poisoned) cached copy.  Capture before
        # the invalidation clears the poison mark.
        tainted = (size < CACHELINE_SIZE
                   and line_addr in self.poisoned_lines)
        self._invalidate_everywhere(line_addr)
        pkt = Packet(WRITE, line_addr, CACHELINE_SIZE,
                     requestor=core,
                     on_complete=lambda p: on_complete(self.sim.now))
        pkt.data = bytes(merged)
        pkt.poisoned = tainted
        self._send(pkt)

    def clwb(self, core: int, addr: int,
             on_complete: Callable[[int], None]) -> None:
        """Flush the line containing ``addr`` to memory; keep it cached.

        Completion fires when the memory controller *accepts* the write —
        so a full BPQ (tracked-source line) delays it, which is exactly
        the back-pressure Figure 21 measures.  Drains share a small pool
        of line-fill buffers, so long CLWB trains serialize — the >1KB
        knee of Fig. 11.
        """
        if self._clwb_inflight >= params.CLWB_PARALLELISM:
            self._clwb_waiters.append(
                lambda: self.clwb(core, addr, on_complete))
            return
        self._clwb_inflight += 1

        def _done(finish: int) -> None:
            self._clwb_inflight -= 1
            if self._clwb_waiters:
                self._clwb_waiters.pop(0)()
            on_complete(finish)

        line_addr = addr & _LINE_MASK
        data = self._clean_scan(line_addr)
        if data is None:
            # Nothing dirty anywhere: the flush still probes the whole
            # hierarchy before completing.
            done = self.sim.now + params.CLWB_PROBE_CYCLES
            self.sim.schedule_at(done, lambda: _done(done),
                                 label="clwb-clean")
            return
        self._clwbs.inc()
        pkt = Packet(WRITE, line_addr, CACHELINE_SIZE,
                     requestor=core,
                     on_complete=lambda p: _done(self.sim.now))
        pkt.data = data
        self._send(pkt)

    def clwb_range(self, core: int, addr: int, size: int,
                   on_complete: Callable[[int], None]) -> None:
        """Range writeback (§V-A1 extension): one probe pass over the
        range, writebacks only for lines actually dirty.

        Completion fires when every generated writeback has been accepted
        by its memory controller (so BPQ back-pressure still applies).
        """
        start = align_down(addr, CACHELINE_SIZE)
        pending = {"n": 1}  # sentinel until the scan finishes
        latest = [self.sim.now]

        def _one_done(finish: int = 0) -> None:
            pending["n"] -= 1
            latest[0] = max(latest[0], self.sim.now)
            if pending["n"] == 0:
                on_complete(latest[0])

        dirty = 0
        for line in range(start, addr + size, CACHELINE_SIZE):
            data = self._clean_scan(line)
            if data is None:
                continue
            dirty += 1
            self._clwbs.inc()
            pending["n"] += 1
            pkt = Packet(WRITE, line, CACHELINE_SIZE,
                         requestor=core,
                         on_complete=lambda p: _one_done())
            pkt.data = data
            self._send(pkt)
        # The probe itself costs one pass over the range's tags —
        # pipelined, so a fixed overhead plus a small per-line term.
        probe = params.CLWB_PROBE_CYCLES + (size // CACHELINE_SIZE) // 8
        self.sim.schedule(probe, _one_done, label="clwb-range-probe")

    def handle_mclazy(self, core: int, dst: int, src: int, size: int,
                      on_complete: Callable[[int], None]) -> None:
        """§III-B1 steps 2-3: flush source, invalidate dest, forward.

        Dirty source lines still cached (the wrapper normally CLWBs them
        first) are written back here so their data reaches the MC before
        the MCLAZY packet — the FIFO write-buffer guarantee.
        """
        if self._trace is not None:
            self._trace.instant("cache", "caches", "mclazy-preprocess",
                                {"dst": hex(dst), "src": hex(src),
                                 "size": size})
        self._copy_boundary(core, dst, src, size)
        pkt = Packet(PacketType.MCLAZY, dst, size, src_addr=src,
                     requestor=core,
                     on_complete=lambda p: on_complete(self.sim.now))
        self._send(pkt)

    def handle_inmem_copy(self, core: int, dst: int, src: int, size: int,
                          mode: str,
                          on_complete: Callable[[int], None]) -> None:
        """Coherence boundary for an offloaded in-DRAM copy (LazyPIM).

        Before DRAM copies rows underneath the caches, dirty source
        lines must reach memory (or the clone would move stale bytes)
        and cached destination lines must be invalidated (or the CPU
        would keep reading pre-copy contents).  Same FIFO-write-buffer
        argument as MCLAZY: the writebacks take link slots ahead of the
        copy descriptor, and the interconnect scatters the descriptor to
        every controller owning a share of the destination.
        """
        if self._trace is not None:
            self._trace.instant("cache", "caches", "inmem-copy-preprocess",
                                {"dst": hex(dst), "src": hex(src),
                                 "size": size, "mode": mode})
        self._copy_boundary(core, dst, src, size)
        pkt = Packet(PacketType.INMEM_COPY, dst, size, src_addr=src,
                     requestor=core,
                     on_complete=lambda p: on_complete(self.sim.now))
        pkt.copy_mode = mode
        self._send(pkt)

    def handle_mcfree(self, core: int, addr: int, size: int,
                      on_complete: Callable[[int], None]) -> None:
        """Forward an MCFREE hint to the memory controllers."""
        if self._trace is not None:
            self._trace.instant("cache", "caches", "mcfree",
                                {"addr": hex(addr), "size": size})
        pkt = Packet(PacketType.MCFREE, addr, size, requestor=core,
                     on_complete=lambda p: on_complete(self.sim.now))
        self._send(pkt)

    def bulk_copy(self, core: int, dst: int, src: int, size: int,
                  on_complete: Callable[[int], None]) -> None:
        """Line-granular copy driven by the memory system (``rep movsb``).

        Dirty cached source lines are flushed first; cached destination
        lines are invalidated (the copy overwrites them in memory).  Up
        to 32 lines are in flight at a time, modelling the microcoded
        copy loop's pipelining; completion fires when the last write is
        accepted.  Raises :class:`AlignmentError` unless ``dst``,
        ``src`` and ``size`` are whole cachelines: a partial line would
        be copied whole, past ``dst + size``.
        """
        if dst % CACHELINE_SIZE or src % CACHELINE_SIZE \
                or size % CACHELINE_SIZE:
            raise AlignmentError(
                f"bulk_copy requires cacheline-aligned dst/src/size, got "
                f"dst={dst:#x} src={src:#x} size={size}")
        if self._trace is not None:
            self._trace.instant("cache", "caches", "bulk-copy",
                                {"dst": hex(dst), "src": hex(src),
                                 "size": size})
        self._copy_boundary(core, dst, src, size)

        next_offset = 0  # of the next line to issue
        pending = 0  # lines in flight
        window = 32

        def _issue_more() -> None:
            nonlocal next_offset, pending
            while next_offset < size and pending < window:
                offset = next_offset
                next_offset += CACHELINE_SIZE
                pending += 1
                self._bulk_copy_line(dst + offset, src + offset, _one_done)
            if next_offset >= size and pending == 0:
                on_complete(self.sim.now)

        def _one_done(_wr: Packet) -> None:
            nonlocal pending
            pending -= 1
            _issue_more()

        _issue_more()

    def _bulk_copy_line(self, dst_line: int, src_line: int,
                        done: Callable[[Packet], None]) -> None:
        """Read one source line, then write it to ``dst_line``;
        ``done`` is the write's completion continuation."""
        def _got_src(pkt: Packet) -> None:
            wr = Packet(WRITE, dst_line, CACHELINE_SIZE, on_complete=done)
            wr.data = pkt.data or bytes(CACHELINE_SIZE)
            wr.poisoned = pkt.poisoned  # poison travels with copied data
            self._send(wr)

        self._send(Packet(READ, src_line, CACHELINE_SIZE,
                          on_complete=_got_src))

    # ----------------------------------------------------------- plumbing
    def _copy_boundary(self, core: int, dst: int, src: int,
                       size: int) -> None:
        """Coherence boundary in front of a memory-side copy: write back
        (and count) dirty source lines ahead of the copy's packets, and
        invalidate destination lines the copy overwrites in memory."""
        for line in range(align_down(src, CACHELINE_SIZE),
                          src + size, CACHELINE_SIZE):
            data = self._clean_scan(line)
            if data is not None:
                wb = Packet(WRITE, line, CACHELINE_SIZE,
                            requestor=core)
                wb.data = data
                self._writebacks.inc()
                self._send(wb)
        for line in range(dst, dst + size, CACHELINE_SIZE):
            self._invalidate_everywhere(line)

    def _clean_scan(self, line_addr: int) -> Optional[bytes]:
        """Clear ``line_addr``'s dirty bit in every cache; first dirty wins.

        Calls :meth:`Cache.clean` on each holder, in ``_caches`` order,
        and returns the data to write back.  That data then refreshes
        every holder: a clean copy beside a dirty one is stale (say the
        L2's RFO fill under a written L1 line), and once no dirty bit is
        left nothing would tell it apart — a later L1 eviction would
        expose it.  The CLWB/MCLAZY/bulk-copy paths run this once per
        line over whole buffers, so a line no cache holds is answered by
        the directory alone.  ``line_addr`` must be aligned.
        """
        held = self._directory.get(line_addr)
        if not held:
            return None
        holders = [cache for cache in self._caches if cache.bit & held]
        data: Optional[bytes] = None
        for cache in holders:
            dirty = cache.clean(line_addr)
            if data is None:
                data = dirty
        if data is not None:
            for cache in holders:
                line = cache.lookup(line_addr, self.sim.now, touch=False)
                line.data[:] = data
        return data

    def _capture_epoch(self, line_addr: int) -> int:
        """Open a fill's freshness window on ``line_addr``; every capture
        is closed by exactly one :meth:`_release_epoch`."""
        self._epoch_captures += 1
        return self._fill_epoch.get(line_addr, 0)

    def _release_epoch(self, line_addr: int, epoch: int) -> bool:
        """Close a capture: True when ``line_addr`` was not invalidated
        since :meth:`_capture_epoch` returned ``epoch``."""
        fresh = self._fill_epoch.get(line_addr, 0) == epoch
        self._epoch_captures -= 1
        if not self._epoch_captures:
            self._fill_epoch.clear()
        return fresh

    def _invalidate_everywhere(self, line_addr: int) -> None:
        """Drop a line from all caches and poison in-flight fills for it.

        Program-order-older accesses coalesced on an in-flight fill still
        receive the (older) data — that is consistent — but the fill no
        longer installs, and later accesses start a fresh fetch that
        observes the new memory-side state (e.g. a CTT bounce).
        """
        held = self._directory.get(line_addr)
        if held:
            for cache in self._caches:
                if cache.bit & held:
                    cache.invalidate(line_addr)
        if self._epoch_captures:
            self._fill_epoch[line_addr] = self._fill_epoch.get(line_addr, 0) + 1
        self._inflight_fills.pop(line_addr, None)
        self.poisoned_lines.discard(line_addr)
        # A poisoned prefetch still returns and decrements its core's
        # counter via the discard guard, so only drop it from the dedup
        # set here if nothing is in flight for it anymore.

    def _invalidate_peers(self, core: int, line_addr: int) -> None:
        """Write-invalidate coherence: kill other cores' copies."""
        held = self._directory.get(line_addr, 0) & self._peer_bits[core]
        if not held:
            return
        for l1 in self.l1s:
            if not l1.bit & held:
                continue
            victim = l1.invalidate(line_addr)
            if victim.dirty:
                # Migrate dirty data into the shared L2 instead of losing it.
                self._install(self.l2, line_addr, bytes(victim.data),
                              dirty=True)

    def _functional_line(self, line_addr: int) -> bytes:
        """Best-effort current value of a line from the caches (NT merge)."""
        line = self._first_holder(line_addr)
        return bytes(CACHELINE_SIZE) if line is None else bytes(line.data)

    def _first_holder(self, line_addr: int) -> Optional[CacheLine]:
        """The line as held by the first cache (in ``_caches`` order)
        holding it: the current cached data."""
        held = self._directory.get(line_addr)
        if held:
            for cache in self._caches:
                if cache.bit & held:
                    return cache.lookup(line_addr, self.sim.now, touch=False)
        return None

    def _install(self, cache: Cache, line_addr: int, data: bytes,
                 dirty: bool) -> None:
        victim = cache.fill(line_addr, data, self.sim.now, dirty)
        if victim is not None and victim.dirty:
            if cache is not self.l2:
                self._install(self.l2, victim.addr, bytes(victim.data),
                              dirty=True)
            else:
                wb = Packet(WRITE, victim.addr, CACHELINE_SIZE)
                wb.data = bytes(victim.data)
                self._writebacks.inc()
                self._send(wb)

    def _train_prefetcher(self, core: int, line_addr: int) -> None:
        for target in self.prefetcher.observe(core, line_addr):
            if self.l2.probe(target) or target in self._inflight_fills \
                    or target in self._prefetch_inflight:
                continue
            if self._prefetch_inflight_by_core[core] >= \
                    params.PREFETCH_MAX_INFLIGHT:
                break  # this stream's queue share is full: drop
            self._issue_prefetch(core, target)

    def _issue_prefetch(self, core: int, line_addr: int) -> None:
        if self._trace is not None:
            self._trace.instant("cache", "caches", "prefetch",
                                {"line": hex(line_addr), "core": core})
        self._prefetch_inflight.add(line_addr)
        self._prefetch_inflight_by_core[core] += 1
        waiters_list: List[Callable[[bytes, int], None]] = []
        self._inflight_fills[line_addr] = waiters_list
        epoch = self._capture_epoch(line_addr)

        def _on_return(pkt: Packet) -> None:
            if line_addr in self._prefetch_inflight:
                self._prefetch_inflight_by_core[core] -= 1
            self._prefetch_inflight.discard(line_addr)
            self._prefetch_fills.inc()
            data = pkt.data or bytes(CACHELINE_SIZE)
            if self._inflight_fills.get(line_addr) is waiters_list:
                del self._inflight_fills[line_addr]
            if self._release_epoch(line_addr, epoch):
                self._install(self.l2, line_addr, data, dirty=False)
                self._note_fill_poison(line_addr, pkt.poisoned)
            # Demand accesses that arrived meanwhile coalesced onto this
            # prefetch; hand them the data now.
            for waiter in waiters_list:
                waiter(data, self.sim.now)

        pkt = Packet(READ, line_addr, CACHELINE_SIZE,
                     on_complete=_on_return)
        pkt.is_prefetch = True
        self._send(pkt)

    def _replay_miss(self, core: int, line_addr: int,
                     on_fill: Callable[[bytes, int], None],
                     fill_l1: bool) -> None:
        """A miss the MSHR budget held back, issued again."""
        # The replay may run after the line has already been filled;
        # serve it from the caches instead of re-fetching.
        for cache in (self.l1s[core], self.l2):
            line = cache.lookup(line_addr, self.sim.now, touch=False)
            if line is not None:
                data = bytes(line.data)
                done = self.sim.now + params.L1_HIT_CYCLES
                if fill_l1:
                    self._install(self.l1s[core], line_addr, data,
                                  dirty=False)
                self.sim.schedule_at(done, lambda: on_fill(data, done),
                                     label="refill-hit")
                return
        self._fetch_miss(core, line_addr, on_fill, fill_l1)

    def _fetch_miss(self, core: int, line_addr: int,
                    on_fill: Callable[[bytes, int], None],
                    fill_l1: bool) -> None:
        """Miss to memory, respecting the core's MSHR budget."""
        waiters = self._inflight_fills.get(line_addr)
        if waiters is not None:
            # Coalesce with an in-flight fetch (demand or prefetch) for
            # the same line: an MSHR entry holds multiple targets, so no
            # extra slot is consumed.  Capture the invalidation epoch so
            # a fill poisoned after registration does not install.
            if line_addr in self._prefetch_inflight:
                self._prefetch_useful.inc()
            epoch = self._capture_epoch(line_addr)
            waiters.append(lambda data, t: self._finish_miss(
                core, line_addr, data, t, on_fill, fill_l1, epoch,
                holds_mshr=False))
            return
        if self._outstanding[core] >= params.MAX_OUTSTANDING_MISSES:
            self._mshr_waiters[core].append(
                lambda: self._replay_miss(core, line_addr, on_fill, fill_l1))
            return
        self._outstanding[core] += 1
        waiters_list: List[Callable[[bytes, int], None]] = []
        self._inflight_fills[line_addr] = waiters_list
        # Released by _finish_miss once the L1 install is decided.
        epoch = self._capture_epoch(line_addr)
        self._mem_reads.inc()

        def _on_return(pkt: Packet) -> None:
            data = pkt.data or bytes(CACHELINE_SIZE)
            finish = self.sim.now + params.L1_HIT_CYCLES
            if self._inflight_fills.get(line_addr) is waiters_list:
                del self._inflight_fills[line_addr]
            if self._fill_epoch.get(line_addr, 0) == epoch:
                self._install(self.l2, line_addr, data, dirty=False)
                self._note_fill_poison(line_addr, pkt.poisoned)
            self._finish_miss(core, line_addr, data, finish, on_fill,
                              fill_l1, epoch)
            for waiter in waiters_list:
                waiter(data, finish)

        pkt = Packet(READ, line_addr, CACHELINE_SIZE,
                     requestor=core, on_complete=_on_return)
        self._send(pkt)

    def _finish_miss(self, core: int, line_addr: int, data: bytes,
                     finish: int, on_fill: Callable[[bytes, int], None],
                     fill_l1: bool, epoch: int,
                     holds_mshr: bool = True) -> None:
        def _complete() -> None:
            # Freshness must be re-checked at install time: an MCLAZY
            # invalidation can land between the fill's return and this
            # completion event.
            fresh = self._release_epoch(line_addr, epoch)
            if fill_l1 and fresh:
                self._install(self.l1s[core], line_addr, data, dirty=False)
            if holds_mshr:
                self._outstanding[core] -= 1
                # Drain replays while slots are free: a replay served from
                # the cache (or coalesced) consumes no slot and produces
                # no later completion, so popping just one could starve
                # the queue.
                waiters = self._mshr_waiters[core]
                while waiters and self._outstanding[core] < \
                        params.MAX_OUTSTANDING_MISSES:
                    waiters.pop(0)()
            on_fill(data, self.sim.now)

        if finish <= self.sim.now:
            _complete()
        else:
            self.sim.schedule_at(finish, _complete, label="miss-finish")

    def _note_fill_poison(self, line_addr: int, poisoned: bool) -> None:
        """Track poison for an installed fill; a clean refill clears it."""
        if poisoned:
            self.poisoned_lines.add(line_addr)
        else:
            self.poisoned_lines.discard(line_addr)

    def _send(self, pkt: Packet) -> None:
        # Every outbound packet funnels through here, so tagging once
        # covers CLWB drains, eviction writebacks, MCLAZY source flushes
        # and flush_all alike: a write of a poisoned cached line carries
        # the poison back to memory.  The set is almost always empty, so
        # it is tested first.
        poisoned = self.poisoned_lines
        if poisoned and pkt.ptype is WRITE and not pkt.poisoned \
                and align_down(pkt.addr, CACHELINE_SIZE) in poisoned:
            pkt.poisoned = True
        self.send_to_memory(pkt)

    # -------------------------------------------------------------- tools
    def flush_all(self) -> None:
        """Write back and drop every line (used between experiment phases)."""
        for cache in self._caches:
            for line in cache.dirty_lines():
                wb = Packet(WRITE, line.addr, CACHELINE_SIZE)
                wb.data = bytes(line.data)
                self._send(wb)
            cache.clear()

    def read_functional(self, addr: int, size: int) -> Optional[bytes]:
        """Read bytes from the caches only (None when uncached)."""
        line_addr = align_down(addr, CACHELINE_SIZE)
        line = self._first_holder(line_addr)
        if line is None:
            return None
        offset = addr - line_addr
        return bytes(line.data[offset:offset + size])
