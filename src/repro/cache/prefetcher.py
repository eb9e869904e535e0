"""Stride prefetcher (Table I: both cache levels have one).

Classic reference-prediction-table design: per requestor, track the last
address and the last observed stride; when the same stride repeats enough
times (confidence threshold), prefetch ``degree`` lines ahead.  For the
(MC)² evaluation the prefetcher matters a lot: sequential destination
reads (Fig. 12) are prefetched, the prefetch *bounces* at the MC, and the
bounce latency is hidden — the paper's "No prefetch" ablation shows (MC)²
up to 21% *slower* than memcpy without it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.common import params
from repro.common.units import CACHELINE_SIZE, align_down
from repro.sim.stats import StatGroup


class _StreamEntry:
    __slots__ = ("last_addr", "stride", "confidence")

    def __init__(self, addr: int):
        self.last_addr = addr
        self.stride = 0
        self.confidence = 0


class StridePrefetcher:
    """Reference prediction table keyed by requestor id."""

    def __init__(
        self,
        stats: Optional[StatGroup] = None,
        degree: int = params.PREFETCH_DEGREE,
        table_entries: int = params.PREFETCH_TABLE_ENTRIES,
        confidence_threshold: int = params.PREFETCH_CONFIDENCE_THRESHOLD,
        enabled: bool = True,
    ):
        self.degree = degree
        self.table_entries = table_entries
        self.confidence_threshold = confidence_threshold
        self.enabled = enabled
        self._table: Dict[int, _StreamEntry] = {}
        stats = stats or StatGroup("prefetcher")
        self.stats = stats
        self._issued = stats.counter("issued", "prefetches issued")
        self._trained = stats.counter("trained", "stride confirmations")

    def observe(self, requestor: int, addr: int) -> List[int]:
        """Train on a demand access; returns line addresses to prefetch.

        Streams are tracked per (requestor, 4KB page), so interleaved
        access streams — e.g. memcpy's alternating source and destination
        — train independently, as hardware stream prefetchers do.
        """
        if not self.enabled:
            return []
        line = align_down(addr, CACHELINE_SIZE)
        key = (requestor, addr >> 12)
        entry = self._table.get(key)
        if entry is None:
            if len(self._table) >= self.table_entries:
                self._table.pop(next(iter(self._table)))
            self._table[key] = _StreamEntry(line)
            return []
        stride = line - entry.last_addr
        if stride == 0:
            return []
        if stride == entry.stride:
            entry.confidence = min(entry.confidence + 1, 8)
            self._trained.value += 1
        else:
            entry.stride = stride
            entry.confidence = 1
        entry.last_addr = line
        if entry.confidence < self.confidence_threshold:
            return []
        # The next ``degree`` lines along the stride, none below 0.
        targets = [t for t in range(line + stride,
                                    line + stride * (self.degree + 1), stride)
                   if t >= 0]
        self._issued.value += len(targets)
        return targets
