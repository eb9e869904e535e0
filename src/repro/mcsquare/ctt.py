"""Copy Tracking Table (CTT) — the core (MC)² hardware structure.

The CTT tracks *prospective copies*: (destination, source, size) triples
registered by ``MCLAZY`` and resolved lazily.  This module implements the
table logic of the paper's §III-A1 exactly:

* **Destination uniqueness** — tracked destination ranges never overlap.
  Inserting a copy whose destination overlaps an existing entry trims (or
  splits) the existing entry, because the new copy overwrites that data.
* **Source redirection (no copy chains)** — if part of the new copy's
  *source* is itself a tracked destination, the new entry is split so the
  overlapping part points directly at the original source (A→B then B→C is
  stored as A→C).
* **Merging** — entries with contiguous destination *and* source ranges
  are coalesced into one (element-by-element array copies become a single
  entry).
* **Capacity** — a fixed number of entries (2,048 × 16B = 32KB SRAM in the
  paper; CACTI gives 0.79 ns access, 0.14 mm², 33.8 mW leakage).  When an
  insert does not fit, the caller (the MC) stalls the CPU and the
  asynchronous free engine makes room.

Destination ranges are cacheline-aligned with cacheline-multiple sizes
(enforced by the MCLAZY ISA contract); sources may be arbitrarily
misaligned, in which case one destination line draws from two source lines.

Entries are replicated consistently across memory controllers via
interconnect broadcast; this class models the replicated content once.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.common import params
from repro.common.errors import AlignmentError, ConfigError, SimulationError
from repro.common.units import CACHELINE_SIZE, PAGE_SIZE, align_down
from repro.sim.stats import StatGroup


def window_lines(start: int) -> List[int]:
    """The one or two cachelines holding the 64 B window at ``start``:
    two when ``start`` is misaligned (the paper's double bounce)."""
    first = align_down(start, CACHELINE_SIZE)
    last = align_down(start + CACHELINE_SIZE - 1, CACHELINE_SIZE)
    return [first] if first == last else [first, last]


class InsertResult:
    """Outcome of a CTT insert.

    ``ok`` is False when the table was full (MC stalls the requestor).
    ``eager_lines`` lists destination lines that could not be tracked by a
    single entry (mixed sources after redirection) and must be copied
    immediately: ``(dst_line, [(src_byte_addr, line_offset, length), ...])``.
    """

    __slots__ = ("ok", "eager_lines")

    def __init__(self, ok: bool,
                 eager_lines: Optional[List[Tuple[int, List[Tuple[int, int, int]]]]] = None):
        self.ok = ok
        self.eager_lines = eager_lines or []

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"InsertResult(ok={self.ok}, eager={len(self.eager_lines)})"


class CttEntry:
    """One prospective copy: ``size`` bytes from ``src`` to ``dst``.

    ``dst`` is cacheline-aligned and ``size`` is a cacheline multiple;
    ``src`` may be misaligned.  ``active`` mirrors the paper's A-bit (an
    entry being resolved by the async free engine is still consulted but
    not re-claimed).
    """

    __slots__ = ("dst", "src", "size", "active", "copy_id")

    def __init__(self, dst: int, src: int, size: int,
                 copy_id: Optional[int] = None):
        # Deliberately no module-global serial id (see sim.packet): that
        # is shared mutable state across forked sweep workers.  copy_id
        # is a *per-table* sequence tying every entry (and trim remnant)
        # back to the MCLAZY registration that created it, for the
        # copy-lifecycle stats and trace spans.
        self.dst = dst
        self.src = src
        self.size = size
        self.active = True
        self.copy_id = copy_id

    @property
    def dst_end(self) -> int:
        """One past the last tracked destination byte."""
        return self.dst + self.size

    @property
    def src_end(self) -> int:
        """One past the last tracked source byte."""
        return self.src + self.size

    def src_for_dst(self, dst_addr: int) -> int:
        """Source byte address backing destination byte ``dst_addr``."""
        return self.src + (dst_addr - self.dst)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"CttEntry(dst={self.dst:#x}, src={self.src:#x}, "
                f"size={self.size})")


class CopyTrackingTable:
    """The replicated CTT content plus its management logic."""

    def __init__(self, capacity: int = params.CTT_ENTRIES,
                 stats: Optional[StatGroup] = None,
                 max_entry_size: int = params.CTT_MAX_COPY_SIZE,
                 clock: Optional[Callable[[], int]] = None):
        if capacity <= 0:
            raise ConfigError("CTT capacity must be positive")
        self.capacity = capacity
        self.max_entry_size = max_entry_size
        # Cycle source for copy-lifecycle stats (the System passes the
        # simulator clock); without one, lifetimes record as 0.
        self._clock = clock
        # Optional repro.obs tracer; set by runtime.attach_tracer.
        self._trace = None
        # Entries sorted by destination start; destinations never overlap.
        # ``_starts`` mirrors ``[e.dst for e in _entries]`` so the
        # per-access destination lookup can bisect without rebuilding the
        # key list (entry dst is immutable; only _add/_remove mutate).
        self._entries: List[CttEntry] = []
        self._starts: List[int] = []
        # Coarse per-page reference counts over *source* ranges, used to
        # reject the common case (a write that touches no tracked source)
        # in O(1) instead of scanning the table.
        self._src_pages: Dict[int, int] = {}
        stats = stats or StatGroup("ctt")
        self.stats = stats
        self._inserts = stats.counter("inserts", "prospective copies inserted")
        self._insert_fails = stats.counter(
            "insert_fails", "inserts refused because the table was full")
        self._merges = stats.counter("merges", "entries coalesced")
        self._redirects = stats.counter(
            "redirects", "insert segments redirected to an older source")
        self._dest_evictions = stats.counter(
            "dest_evictions", "existing entries trimmed by a new destination")
        self._removed_bytes = stats.counter(
            "removed_bytes", "tracked bytes resolved or dropped")
        # Peak occupancy is a high-water mark over *cycle-end* states.
        # Two same-cycle operations (an insert racing a trim) end the
        # cycle at the same length whichever ran first, but the transient
        # mid-cycle maximum depends on their order — so the peak commits
        # the previous cycle's final length when the first mutation of a
        # new cycle arrives, and the read-time formula folds in the
        # still-open cycle.  Without a clock it keeps the plain
        # per-mutation high-water mark.
        self._peak_committed = 0
        self._peak_cycle: Optional[int] = None
        self._cycle_end_len = 0
        stats.formula("peak_occupancy", "max entries held at any cycle end",
                      lambda: float(max(self._peak_committed,
                                        len(self._entries))))
        self._copies_resolved = stats.counter(
            "copies_resolved", "registered copies fully resolved/untracked")
        self._copy_lifetime = stats.distribution(
            "copy_lifetime", "cycles from registration to full resolution")
        # Copy-lifecycle bookkeeping: one logical copy per successful
        # insert().  Live entry counts per copy id; a copy resolves when
        # its count reaches zero, settled at the end of the public
        # operation.  A trim keeps its remnants in the trimmed entry's
        # slot, so a copy's count never passes through zero on the way.
        self._copy_seq = 0
        self._copy_live: Dict[int, int] = {}
        self._copy_registered: Dict[int, int] = {}
        self._resolved_pending: List[Tuple[int, str]] = []

    # ------------------------------------------------------------- basics
    def __len__(self) -> int:
        return len(self._entries)

    @property
    def occupancy(self) -> float:
        """Fill level as a fraction of capacity."""
        return len(self._entries) / self.capacity

    @property
    def entries(self) -> Tuple[CttEntry, ...]:
        """Snapshot of current entries (sorted by destination)."""
        return tuple(self._entries)

    def tracked_bytes(self) -> int:
        """Total destination bytes currently tracked."""
        return sum(e.size for e in self._entries)

    # ------------------------------------------------------ page refcounts
    def _src_pages_of(self, entry: CttEntry) -> Iterable[int]:
        first = entry.src // PAGE_SIZE
        last = (entry.src_end - 1) // PAGE_SIZE
        return range(first, last + 1)

    def _index_src(self, entry: CttEntry) -> None:
        for page in self._src_pages_of(entry):
            self._src_pages[page] = self._src_pages.get(page, 0) + 1

    def _unindex_src(self, entry: CttEntry) -> None:
        for page in self._src_pages_of(entry):
            count = self._src_pages[page] - 1
            if count:
                self._src_pages[page] = count
            else:
                del self._src_pages[page]

    # --------------------------------------------------------- raw add/rm
    def _add(self, entry: CttEntry) -> None:
        index = bisect_right(self._starts, entry.dst)
        self._entries.insert(index, entry)
        self._starts.insert(index, entry.dst)
        self._index_src(entry)
        self._note_occupancy()
        if entry.copy_id is not None:
            self._copy_live[entry.copy_id] = \
                self._copy_live.get(entry.copy_id, 0) + 1

    def _remove(self, entry: CttEntry, reason: str = "resolved") -> None:
        index = self._entries.index(entry)
        del self._entries[index]
        del self._starts[index]
        self._unindex_src(entry)
        self._note_occupancy()
        cid = entry.copy_id
        if cid is not None and cid in self._copy_live:
            count = self._copy_live[cid] - 1
            self._copy_live[cid] = count
            if count <= 0:
                self._resolved_pending.append((cid, reason))

    def _replace(self, entry: CttEntry, remnant: CttEntry) -> None:
        """Put ``remnant``, the first piece of ``entry`` a trim keeps, in
        ``entry``'s slot: the same table state as :meth:`_remove` then
        :meth:`_add`, without shifting the lists.

        ``remnant`` is a new entry with ``entry``'s copy id, so the
        copy's live count does not change; its destination starts
        within ``entry``'s, before any later remnant, so the order by
        destination holds.
        """
        index = bisect_left(self._starts, entry.dst)
        self._entries[index] = remnant
        self._starts[index] = remnant.dst
        # Unindex only the source pages the remnant no longer covers
        # (usually none).
        keep_first = remnant.src // PAGE_SIZE
        keep_last = (remnant.src + remnant.size - 1) // PAGE_SIZE
        src_pages = self._src_pages
        for page in self._src_pages_of(entry):
            if keep_first <= page <= keep_last:
                continue
            count = src_pages[page] - 1
            if count:
                src_pages[page] = count
            else:
                del src_pages[page]
        self._note_occupancy()

    def _note_occupancy(self) -> None:
        """Advance the cycle-end occupancy high-water mark.

        Called after every raw add/remove: the first mutation of a new
        cycle commits the previous cycle's final length as a peak
        candidate, then the running end-of-cycle length is refreshed.
        """
        if self._clock is None:
            # Clockless (unit tests drive the table directly): there is
            # no cycle structure, so keep a per-mutation high-water mark.
            if len(self._entries) > self._peak_committed:
                self._peak_committed = len(self._entries)
            return
        now = self._clock()
        if self._peak_cycle is not None and now != self._peak_cycle \
                and self._cycle_end_len > self._peak_committed:
            self._peak_committed = self._cycle_end_len
        self._peak_cycle = now
        self._cycle_end_len = len(self._entries)

    def _flush_resolved(self) -> None:
        """Settle copies whose last entry was removed this operation.

        Deferred to the end of each public mutation, so an operation's
        copy ends are recorded after its other effects: an insert opens
        the new copy's span before the copies it overwrote close.
        """
        if not self._resolved_pending:
            return
        pending, self._resolved_pending = self._resolved_pending, []
        for cid, reason in pending:
            if self._copy_live.get(cid) != 0:
                continue  # already settled
            del self._copy_live[cid]
            registered = self._copy_registered.pop(cid, 0)
            now = self._clock() if self._clock is not None else registered
            self._copies_resolved.inc()
            self._copy_lifetime.record(now - registered)
            trace = self._trace
            if trace is not None:
                trace.span_end("copy", f"copy:{cid}", {"reason": reason})

    # ------------------------------------------------------------- lookups
    def _dest_overlaps(self, addr: int, size: int) -> List[CttEntry]:
        """Entries whose destination range intersects [addr, addr+size)."""
        if not self._entries or size <= 0:
            return []
        idx = bisect_right(self._starts, addr) - 1
        out: List[CttEntry] = []
        if idx >= 0 and self._entries[idx].dst_end > addr:
            out.append(self._entries[idx])
        idx += 1
        end = addr + size
        while idx < len(self._entries) and self._entries[idx].dst < end:
            out.append(self._entries[idx])
            idx += 1
        return out

    def lookup_dest_line(self, line_addr: int) -> Optional[CttEntry]:
        """Entry tracking the destination cacheline at ``line_addr``.

        The first hit :meth:`_dest_overlaps` would return for the line,
        found without building the list (every read and bounce
        writeback of a tracked line asks).
        """
        line_addr = align_down(line_addr, CACHELINE_SIZE)
        entries = self._entries
        idx = bisect_right(self._starts, line_addr)
        if idx:
            entry = entries[idx - 1]
            if entry.dst + entry.size > line_addr:
                return entry
        if idx < len(entries) and \
                entries[idx].dst < line_addr + CACHELINE_SIZE:
            return entries[idx]
        return None

    def source_lines_for_dest(self, line_addr: int) -> Optional[List[int]]:
        """Source cacheline(s) needed to materialize destination line.

        Returns one line address when source and destination are mutually
        cacheline-aligned, two when misaligned (the paper's double-bounce
        case), or ``None`` when the line is untracked.
        """
        entry = self.lookup_dest_line(line_addr)
        if entry is None:
            return None
        return window_lines(entry.src_for_dst(line_addr))

    def source_overlaps(self, addr: int, size: int) -> List[CttEntry]:
        """Entries whose *source* range intersects [addr, addr+size)."""
        if size <= 0 or not self._entries:
            return []
        src_pages = self._src_pages
        last_page = (addr + size - 1) // PAGE_SIZE
        for page in range(addr // PAGE_SIZE, last_page + 1):
            if page in src_pages:
                break
        else:
            return []
        end = addr + size
        return [e for e in self._entries if e.src < end and e.src_end > addr]

    def dest_lines_for_source(self, addr: int, size: int) -> List[int]:
        """Destination cachelines drawing any byte from [addr, addr+size).

        These are the lines that must be materialized before a write to
        that source region may land in memory (§III-B2).
        """
        lines: set = set()
        for entry in self.source_overlaps(addr, size):
            lo = max(entry.src, addr)
            hi = min(entry.src_end, addr + size)
            dst_lo = entry.dst + (lo - entry.src)
            dst_hi = entry.dst + (hi - entry.src)
            line = align_down(dst_lo, CACHELINE_SIZE)
            while line < dst_hi:
                lines.add(line)
                line += CACHELINE_SIZE
        return sorted(lines)

    # -------------------------------------------------------------- insert
    def insert(self, dst: int, src: int, size: int) -> "InsertResult":
        """Register a prospective copy.

        Implements destination-overlap eviction, source redirection, and
        contiguous-entry merging.  The caller must honour the ISA contract
        (cacheline-aligned ``dst``, cacheline-multiple ``size``).

        Returns an :class:`InsertResult`; when ``ok`` is False the table
        was full and the MC must stall the requestor until the async free
        engine makes room.  ``eager_lines`` lists destination lines whose
        bytes would come from more than one contiguous source region
        (possible only when a misaligned source overlaps an older tracked
        destination) — one entry cannot represent them, so the MC resolves
        them immediately.
        """
        if dst % CACHELINE_SIZE or size % CACHELINE_SIZE:
            raise AlignmentError(
                f"MCLAZY requires cacheline-aligned dst/size, got "
                f"dst={dst:#x} size={size}")
        if size <= 0:
            return InsertResult(ok=True)
        if size > self.max_entry_size:
            raise AlignmentError(
                f"single CTT entry limited to {self.max_entry_size} bytes")

        # 1. New destination overwrites: trim overlapped existing entries.
        #    (Idempotent, so safe to redo if a full table forces a retry.)
        evicted = self._trim_dest_range(dst, size, reason="overwritten")
        if evicted:
            self._dest_evictions.inc(evicted)

        # 2. Source redirection: split the new copy where its source is a
        #    tracked destination, pointing those segments at the original
        #    source instead (avoids copy chains).
        entries, eager, redirected = self._redirect_segments(dst, src, size)

        if len(self._entries) + len(entries) > self.capacity:
            # A merge may still make it fit, but hardware checks capacity
            # before the rewrite; be conservative, as the paper stalls.
            self._insert_fails.inc()
            self._flush_resolved()
            return InsertResult(ok=False)
        # Counted only for accepted inserts: a refused one retries.
        self._redirects.inc(redirected)

        # One logical copy per accepted MCLAZY: its lifecycle span opens
        # here and closes when the last entry carrying its id is removed.
        cid = self._copy_seq
        self._copy_seq += 1
        self._copy_live[cid] = 0
        self._copy_registered[cid] = \
            self._clock() if self._clock is not None else 0
        trace = self._trace
        if trace is not None:
            trace.span_begin("copy", "ctt", "copy", f"copy:{cid}",
                            {"dst": hex(dst), "src": hex(src), "size": size,
                             "segments": len(entries),
                             "eager_lines": len(eager)})
        for seg_dst, seg_src, seg_size in entries:
            self._add(CttEntry(seg_dst, seg_src, seg_size, copy_id=cid))
        self._inserts.inc()
        self._merge_around(dst, size)
        if not entries:
            # Every line self-mapped or resolved eagerly: the copy is
            # registered and immediately complete, nothing left tracked.
            self._resolved_pending.append((cid, "eager"))
        self._flush_resolved()
        return InsertResult(ok=True, eager_lines=eager)

    def _redirect_segments(
            self, dst: int, src: int, size: int
    ) -> Tuple[List[Tuple[int, int, int]],
               List[Tuple[int, List[Tuple[int, int, int]]]], int]:
        """Split [src, src+size) against tracked destinations.

        Returns ``(entries, eager_lines, redirected)``.  ``entries`` are
        (dst, src, size) triples with cacheline-aligned destinations
        whose source is contiguous plain memory.  ``eager_lines`` are
        destination lines whose backing bytes span two source regions;
        each is reported as ``(dst_line, [(src_byte_addr, line_offset,
        length), ...])`` for immediate resolution by the controller.
        ``redirected`` counts the segments pointed at an older source.
        """
        # Byte-granular segments covering the whole copy, in dst order.
        overlaps = sorted(self._dest_overlaps(src, size), key=lambda e: e.dst)
        segments: List[Tuple[int, int, int]] = []  # (dst_byte, src_byte, len)
        cursor = src
        end = src + size
        redirected = 0

        def emit(lo: int, hi: int, redirect: Optional[CttEntry]) -> None:
            nonlocal redirected
            if hi <= lo:
                return
            seg_dst = dst + (lo - src)
            if redirect is not None:
                seg_src = redirect.src_for_dst(lo)
                redirected += 1
            else:
                seg_src = lo
            segments.append((seg_dst, seg_src, hi - lo))

        for entry in overlaps:
            lo = max(entry.dst, cursor)
            hi = min(entry.dst_end, end)
            if lo > cursor:
                emit(cursor, lo, None)
            emit(lo, hi, entry)
            cursor = hi
        if cursor < end:
            emit(cursor, end, None)

        # Walk destination cachelines, grouping lines wholly inside one
        # segment into entry runs and reporting boundary-straddling lines
        # for eager resolution.
        entries: List[Tuple[int, int, int]] = []
        eager: List[Tuple[int, List[Tuple[int, int, int]]]] = []
        run: Optional[List[int]] = None  # [dst, src, size]
        seg_idx = 0
        line = dst
        while line < dst + size:
            line_end = line + CACHELINE_SIZE
            while segments[seg_idx][0] + segments[seg_idx][2] <= line:
                seg_idx += 1
            seg_dst, seg_src, seg_len = segments[seg_idx]
            if seg_dst + seg_len >= line_end:
                # Whole line inside one segment.
                line_src = seg_src + (line - seg_dst)
                if line_src == line:
                    # Degenerate self-map (redirection resolved a copy
                    # back onto itself): memory already holds the right
                    # bytes, so nothing needs tracking.
                    if run is not None:
                        entries.append((run[0], run[1], run[2]))
                        run = None
                elif run is not None and run[0] + run[2] == line \
                        and run[1] + run[2] == line_src:
                    run[2] += CACHELINE_SIZE
                else:
                    if run is not None:
                        entries.append((run[0], run[1], run[2]))
                    run = [line, line_src, CACHELINE_SIZE]
            else:
                # Line straddles segment boundaries: resolve eagerly.
                pieces: List[Tuple[int, int, int]] = []
                pos = line
                idx = seg_idx
                while pos < line_end:
                    s_dst, s_src, s_len = segments[idx]
                    take = min(s_dst + s_len, line_end) - pos
                    pieces.append((s_src + (pos - s_dst), pos - line, take))
                    pos += take
                    if pos < line_end:
                        idx += 1
                eager.append((line, pieces))
                if run is not None:
                    entries.append((run[0], run[1], run[2]))
                    run = None
            line = line_end
        if run is not None:
            entries.append((run[0], run[1], run[2]))
        return entries, eager, redirected

    def _merge_around(self, dst: int, size: int) -> None:
        """Coalesce entries adjacent to [dst, dst+size) when contiguous."""
        hits = self._dest_overlaps(dst - CACHELINE_SIZE,
                                   size + 2 * CACHELINE_SIZE)
        if len(hits) < 2:
            return
        hits.sort(key=lambda e: e.dst)
        merged = [hits[0]]
        for entry in hits[1:]:
            prev = merged[-1]
            contiguous = (prev.dst_end == entry.dst
                          and prev.src_end == entry.src)
            if contiguous and prev.size + entry.size <= self.max_entry_size \
                    and prev.active and entry.active:
                self._remove(entry, reason="merged")
                self._unindex_src(prev)
                prev.size += entry.size
                self._index_src(prev)
                self._merges.inc()
            else:
                merged.append(entry)

    # ------------------------------------------------------------- removal
    def _trim_dest_range(self, addr: int, size: int,
                         reason: str = "resolved") -> int:
        """Stop tracking destination bytes in [addr, addr+size).

        Overlapped entries are removed, resized, or split into two
        remnants (which inherit the original entry's copy id).  Returns
        the number of entries affected.

        ``removed_bytes`` counts only the overlap — the bytes that
        actually leave tracking, never the kept remnants.  That sum
        is a property of the untracked byte *set*, so it is identical no
        matter how a range is trimmed (whole, line by line, in any
        order); counting whole entry sizes instead would let equal-cycle
        trim order leak into the stat.
        """
        affected = 0
        end = addr + size
        for entry in self._dest_overlaps(addr, size):
            affected += 1
            dst, src, cid = entry.dst, entry.src, entry.copy_id
            dst_end = dst + entry.size
            self._removed_bytes.value += min(dst_end, end) - max(dst, addr)
            # Left remnant [dst, addr) and right remnant [end, dst_end).
            left = CttEntry(dst, src, addr - dst, cid) if dst < addr else None
            right = (CttEntry(end, src + (end - dst), dst_end - end, cid)
                     if dst_end > end else None)
            if left is None and right is None:
                self._remove(entry, reason=reason)
                continue
            # The first remnant takes the entry's slot (a bounce
            # writeback usually trims one line off the front of its
            # entry); a split's right remnant is added after it.
            self._replace(entry, left or right)
            if left is not None and right is not None:
                self._add(right)
        return affected

    def remove_dest_range(self, addr: int, size: int) -> int:
        """Public trim: destination written / resolved / freed."""
        addr = align_down(addr, CACHELINE_SIZE)
        if size % CACHELINE_SIZE:
            size = (size // CACHELINE_SIZE + 1) * CACHELINE_SIZE
        affected = self._trim_dest_range(addr, size)
        self._flush_resolved()
        return affected

    def free_hint(self, addr: int, size: int) -> int:
        """MCFREE: drop tracking for destinations inside the freed buffer."""
        affected = self._trim_dest_range(addr, size, reason="freed")
        self._flush_resolved()
        return affected

    def pop_smallest(self) -> Optional[CttEntry]:
        """Claim the smallest active entry for asynchronous resolution.

        Entries whose destination is itself a tracked source are passed
        over: copying them would overwrite bytes another copy still
        reads.  The entry is marked inactive (claimed) but stays in the
        table so that reads keep bouncing until the copy lands; the free
        engine calls :meth:`remove_dest_range` when done.
        """
        best: Optional[CttEntry] = None
        for entry in self._entries:
            if entry.active and (best is None or entry.size < best.size) \
                    and not self.source_overlaps(entry.dst, entry.size):
                best = entry
        if best is not None:
            best.active = False
        return best

    def verify_invariants(self) -> None:
        """Raise if destination ranges overlap or ordering broke (tests)."""
        prev_end = -1
        prev_dst = -1
        for entry in self._entries:
            if entry.dst < prev_dst:
                raise SimulationError("CTT not sorted by destination")
            if entry.dst < prev_end:
                raise SimulationError(
                    f"overlapping destinations at {entry.dst:#x}")
            if entry.size <= 0 or entry.size % CACHELINE_SIZE:
                raise SimulationError(f"bad entry size {entry.size}")
            if entry.dst % CACHELINE_SIZE:
                raise SimulationError("unaligned destination")
            prev_dst = entry.dst
            prev_end = entry.dst_end
