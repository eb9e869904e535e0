"""Set-associative write-back caches carrying functional data.

A :class:`Cache` is a plain state container (tags + data + LRU); the
:class:`~repro.cache.hierarchy.CacheHierarchy` drives lookups, fills,
evictions and timing.  Lines carry real bytes: dirty data lives only in
the cache until written back, which is what makes the (MC)² BPQ semantics
(lazy copies read *pre-write* memory) testable end to end.

Every cache also records which lines it holds in a *presence directory*
(line address -> bitmask of the caches holding it), kept exact by
:meth:`Cache.fill`, :meth:`Cache.invalidate` and :meth:`Cache.clear`.  A
hierarchy hands one shared directory and a distinct bit to each of its
caches, so a whole-hierarchy probe for a line is one dict lookup; a
standalone cache keeps a private directory.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.common.errors import ConfigError
from repro.common.units import CACHELINE_SIZE
from repro.sim.stats import StatGroup

# Line-address arithmetic is inlined in the lookup paths below (they run
# once per simulated cache access, the hottest non-engine code in the
# repo): CACHELINE_SIZE is a power of two, so aligning is a mask and the
# set index is a shift.
_LINE_SHIFT = CACHELINE_SIZE.bit_length() - 1
_LINE_MASK = ~(CACHELINE_SIZE - 1)
assert CACHELINE_SIZE == 1 << _LINE_SHIFT, "cacheline size must be 2^n"


class CacheLine:
    """One resident cacheline: tag state plus its 64 data bytes."""

    __slots__ = ("addr", "dirty", "data", "last_used")

    def __init__(self, addr: int, data: bytes, now: int):
        self.addr = addr
        self.dirty = False
        self.data = bytearray(data)
        self.last_used = now


class Cache:
    """A set-associative cache with a pluggable replacement policy."""

    def __init__(self, name: str, size: int, assoc: int,
                 stats: Optional[StatGroup] = None,
                 policy: Optional["ReplacementPolicy"] = None,
                 directory: Optional[Dict[int, int]] = None,
                 bit: int = 1):
        from repro.cache.replacement import LruPolicy
        if size % (assoc * CACHELINE_SIZE):
            raise ConfigError(f"{name}: size {size} not divisible by "
                              f"assoc*linesize")
        self.name = name
        self.size = size
        self.assoc = assoc
        self.policy = policy or LruPolicy()
        self.num_sets = size // (assoc * CACHELINE_SIZE)
        self._sets: List[Dict[int, CacheLine]] = [
            {} for _ in range(self.num_sets)]
        #: Presence directory (line address -> holders' bits), shared
        #: with the other caches of a hierarchy; ``bit`` is this cache's.
        self.directory: Dict[int, int] = (
            directory if directory is not None else {})
        self.bit = bit
        stats = stats or StatGroup(name)
        self.stats = stats
        self.hits = stats.counter("hits", "lookups that hit")
        self.misses = stats.counter("misses", "lookups that missed")
        self.evictions = stats.counter("evictions", "lines evicted")
        self.dirty_evictions = stats.counter(
            "dirty_evictions", "evictions requiring writeback")
        self.invalidations = stats.counter("invalidations", "lines invalidated")
        stats.formula(
            "hit_rate", "hits / (hits + misses)",
            lambda: (self.hits.value / (self.hits.value + self.misses.value)
                     if (self.hits.value + self.misses.value) else 0.0))

    @property
    def policy(self) -> "ReplacementPolicy":
        return self._policy

    @policy.setter
    def policy(self, policy: "ReplacementPolicy") -> None:
        # Cache the per-hit and per-fill callbacks (or None when the
        # policy opted out via ReplacementPolicy.tracks_touch) so the
        # lookup and fill fast paths skip a no-op Python call on the
        # default LRU configuration.  A setter, not an __init__
        # assignment, because tests swap the policy on a live cache.
        self._policy = policy
        tracks = getattr(policy, "tracks_touch", True)
        self._touch = policy.on_touch if tracks else None
        self._on_fill = policy.on_fill if tracks else None

    # ------------------------------------------------------------- lookup
    def lookup(self, addr: int, now: int, touch: bool = True
               ) -> Optional[CacheLine]:
        """Find the line containing ``addr``; updates LRU when ``touch``."""
        line_addr = addr & _LINE_MASK
        line = self._sets[(line_addr >> _LINE_SHIFT) % self.num_sets].get(line_addr)
        if line is not None and touch:
            line.last_used = now
            if self._touch is not None:
                self._touch(line)
        return line

    def probe(self, addr: int) -> bool:
        """Tag check without LRU update or stats."""
        line_addr = addr & _LINE_MASK
        return line_addr in self._sets[(line_addr >> _LINE_SHIFT) % self.num_sets]

    # --------------------------------------------------------------- fill
    def fill(self, addr: int, data: bytes, now: int,
             dirty: bool = False) -> Optional[CacheLine]:
        """Insert a line, evicting the LRU victim if the set is full.

        Returns the evicted :class:`CacheLine` when one was displaced
        (caller writes it back if dirty), else ``None``.
        """
        line_addr = addr & _LINE_MASK
        cset = self._sets[(line_addr >> _LINE_SHIFT) % self.num_sets]
        existing = cset.get(line_addr)
        if existing is not None:
            # The resident copy is at least as new as any incoming fill
            # (fills carry memory data; dirty bytes live here), so never
            # clobber it.  Writebacks into L2 may still set the dirty bit.
            existing.dirty = existing.dirty or dirty
            existing.last_used = now
            if dirty:
                existing.data = bytearray(data)
            return None
        victim: Optional[CacheLine] = None
        directory = self.directory
        if len(cset) >= self.assoc:
            victim_addr = self._policy.victim(cset, now)
            victim = cset.pop(victim_addr)
            # _forget, inlined: fills are the hot path.
            held = directory.pop(victim_addr) & ~self.bit
            if held:
                directory[victim_addr] = held
            self.evictions.value += 1
            if victim.dirty:
                self.dirty_evictions.value += 1
        line = CacheLine(line_addr, data, now)
        line.dirty = dirty
        cset[line_addr] = line
        directory[line_addr] = directory.get(line_addr, 0) | self.bit
        if self._on_fill is not None:
            self._on_fill(line)
        return victim

    # ----------------------------------------------------------- maintain
    def invalidate(self, addr: int) -> Optional[CacheLine]:
        """Drop the line containing ``addr`` (returns it if present)."""
        line_addr = addr & _LINE_MASK
        line = self._sets[(line_addr >> _LINE_SHIFT) % self.num_sets].pop(line_addr, None)
        if line is not None:
            self._forget(line_addr)
            self.invalidations.inc()
        return line

    def _forget(self, line_addr: int) -> None:
        """Drop this cache's bit from ``line_addr``'s directory entry."""
        held = self.directory.pop(line_addr) & ~self.bit
        if held:
            self.directory[line_addr] = held

    def clean(self, addr: int) -> Optional[bytes]:
        """CLWB semantics: clear the dirty bit, return data if it was dirty."""
        line_addr = addr & _LINE_MASK
        line = self._sets[(line_addr >> _LINE_SHIFT) % self.num_sets].get(line_addr)
        if line is not None and line.dirty:
            line.dirty = False
            return bytes(line.data)
        return None

    def dirty_lines(self) -> List[CacheLine]:
        """All dirty lines (used to flush at end of a region of interest)."""
        return [line for cset in self._sets for line in cset.values()
                if line.dirty]

    def clear(self) -> None:
        """Drop every line without writeback (test helper)."""
        for cset in self._sets:
            for line_addr in cset:
                self._forget(line_addr)
            cset.clear()

    def write_bytes(self, addr: int, data: bytes, now: int) -> bool:
        """Write ``data`` into a resident line; True on success."""
        line_addr = addr & _LINE_MASK
        line = self._sets[(line_addr >> _LINE_SHIFT) % self.num_sets].get(line_addr)
        if line is None:
            return False
        line.last_used = now
        if self._touch is not None:
            self._touch(line)
        offset = addr - line.addr
        if offset + len(data) > CACHELINE_SIZE:
            raise ConfigError("store crosses a cacheline boundary")
        line.data[offset:offset + len(data)] = data
        line.dirty = True
        return True

    def read_bytes(self, addr: int, size: int, now: int) -> Optional[bytes]:
        """Read ``size`` bytes from a resident line; None on miss."""
        line_addr = addr & _LINE_MASK
        line = self._sets[(line_addr >> _LINE_SHIFT) % self.num_sets].get(line_addr)
        if line is None:
            return None
        line.last_used = now
        if self._touch is not None:
            self._touch(line)
        offset = addr - line.addr
        if offset + size > CACHELINE_SIZE:
            raise ConfigError("load crosses a cacheline boundary")
        return bytes(line.data[offset:offset + size])
