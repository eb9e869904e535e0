"""A first-fit free-list allocator over simulated physical memory.

Workloads that allocate and free buffers dynamically (Redis-style IO
pipelines, MVCC version arenas) use this instead of the System's bump
allocator.  Freeing a buffer can issue the paper's ``MCFREE`` hint
(§III-C: "this instruction can be called within functions like munmap
where the buffer is guaranteed to no longer be used"), which drops any
prospective copies targeting the freed region and saves their lazy
resolution entirely.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from repro.common.errors import SimulationError
from repro.common.units import CACHELINE_SIZE, align_up
from repro.isa import ops
from repro.isa.ops import Op


class FreeListAllocator:
    """First-fit allocator with coalescing frees."""

    def __init__(self, system, capacity: int, align: int = CACHELINE_SIZE):
        self.system = system
        self.align = align
        base = system.alloc(capacity, align=max(align, 4096))
        self.base = base
        self.capacity = capacity
        # Sorted, disjoint (addr, size) free ranges.
        self._free: List[Tuple[int, int]] = [(base, capacity)]
        self._live: dict = {}
        self.allocations = 0
        self.frees = 0
        self.failed_allocations = 0

    # ------------------------------------------------------------ queries
    @property
    def free_bytes(self) -> int:
        """Total unallocated bytes (may be fragmented)."""
        return sum(size for _, size in self._free)

    def owns(self, addr: int) -> bool:
        """True when ``addr`` is inside a live allocation."""
        for base, size in self._live.items():
            if base <= addr < base + size:
                return True
        return False

    # ------------------------------------------------------------- malloc
    def malloc(self, size: int) -> int:
        """Allocate ``size`` bytes; raises when no fragment fits."""
        if size <= 0:
            raise SimulationError("allocation size must be positive")
        size = align_up(size, self.align)
        for i, (start, length) in enumerate(self._free):
            if length >= size:
                self._free[i] = (start + size, length - size)
                if self._free[i][1] == 0:
                    del self._free[i]
                self._live[start] = size
                self.allocations += 1
                return start
        self.failed_allocations += 1
        raise SimulationError(
            f"allocator out of memory: {size}B requested, "
            f"{self.free_bytes}B free (fragmented)")

    # --------------------------------------------------------------- free
    def free(self, addr: int) -> int:
        """Release the allocation at ``addr``; returns its size."""
        size = self._live.pop(addr, None)
        if size is None:
            raise SimulationError(f"free of unallocated address {addr:#x}")
        self.frees += 1
        self._insert_free(addr, size)
        return size

    def free_ops(self, addr: int, use_mcfree: bool = True) -> Iterator[Op]:
        """Free plus the MCFREE hint for (MC)² systems.

        Yields the op stream a ``munmap``-style call would execute; on a
        baseline machine the hint degrades to a cheap no-op at the MC.
        """
        size = self.free(addr)
        if use_mcfree and self.system.ctt is not None:
            yield ops.mcfree(addr, size)
        yield ops.compute(30)  # allocator bookkeeping

    def _insert_free(self, addr: int, size: int) -> None:
        """Insert and coalesce a free range."""
        new: List[Tuple[int, int]] = []
        placed = False
        for start, length in self._free:
            if not placed and addr < start:
                new.append((addr, size))
                placed = True
            new.append((start, length))
        if not placed:
            new.append((addr, size))
        # Coalesce adjacent ranges.
        merged: List[Tuple[int, int]] = []
        for start, length in new:
            if merged and merged[-1][0] + merged[-1][1] == start:
                merged[-1] = (merged[-1][0], merged[-1][1] + length)
            else:
                merged.append((start, length))
        self._free = merged

    def check_invariants(self) -> None:
        """Free ranges are sorted, disjoint, inside the arena (tests)."""
        prev_end = self.base - 1
        total = 0
        for start, length in self._free:
            assert length > 0
            assert start > prev_end
            prev_end = start + length - 1
            total += length
        assert prev_end < self.base + self.capacity
        live = sum(self._live.values())
        assert live + total == self.capacity
