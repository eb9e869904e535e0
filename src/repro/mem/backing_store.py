"""Functional (data-carrying) physical memory.

The simulator co-simulates *timing* and *function*: every physical address
has real byte contents, so lazy copies can be checked for bit-exact
equivalence with an eager ``memcpy`` oracle.  Storage is a sparse dict of
4 KB (``PAGE_SIZE``) ``bytearray`` pages, keyed by page number, held
through ``memoryview``s (slicing one copies nothing) and allocated on the
first write into them; untouched memory reads as zeros.  A page costs a
few objects and one dict slot per 4 KB, so the store holds little more
host memory than the bytes written, and ``read`` / ``write`` move a whole
page span per step.  Poison stays per 64 B cacheline, the granularity of
the ECC model.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.common.errors import AddressError
from repro.common.units import CACHELINE_SIZE, PAGE_SIZE, align_down, align_up

_PAGE_SHIFT = PAGE_SIZE.bit_length() - 1
_PAGE_MASK = PAGE_SIZE - 1
_LINE_MASK = ~(CACHELINE_SIZE - 1)
_ZERO_LINE = bytes(CACHELINE_SIZE)
_ZERO_PAGE = memoryview(bytes(PAGE_SIZE))


class BackingStore:
    """Sparse byte-accurate physical memory of a fixed capacity.

    Besides data, every line carries a *poison* bit modelling the platform
    response to a detected-uncorrectable ECC error (SEC-DED double-bit):
    the data is known-bad but which bits flipped is not.  Poison is set by
    the fault injector (:mod:`repro.faults`), propagated by the (MC)² copy
    paths, and cleared when a full line of fresh data overwrites it.
    """

    def __init__(self, capacity: int):
        if capacity <= 0 or capacity % CACHELINE_SIZE:
            raise AddressError(f"capacity must be a positive multiple of "
                               f"{CACHELINE_SIZE}, got {capacity}")
        self.capacity = capacity
        # Page number -> a view of its PAGE_SIZE bytes.
        self._pages: Dict[int, memoryview] = {}
        self._poisoned: Set[int] = set()

    # ------------------------------------------------------------ checking
    def _check_range(self, addr: int, size: int) -> None:
        if addr < 0 or size < 0 or addr + size > self.capacity:
            raise AddressError(
                f"physical access [{addr:#x}, {addr + size:#x}) outside "
                f"capacity {self.capacity:#x}"
            )

    # ------------------------------------------------------------- lines
    # The line accessors run once per memory access, so they test the
    # range inline and call _check_range only to raise.
    def read_line(self, addr: int) -> bytes:
        """Read the 64B cacheline containing ``addr``."""
        base = addr & _LINE_MASK
        if base < 0 or base + CACHELINE_SIZE > self.capacity:
            self._check_range(base, CACHELINE_SIZE)
        page = self._pages.get(base >> _PAGE_SHIFT)
        if page is None:
            return _ZERO_LINE
        off = base & _PAGE_MASK
        return page[off:off + CACHELINE_SIZE].tobytes()

    def write_line(self, addr: int, data: bytes) -> None:
        """Overwrite the 64B cacheline containing ``addr``.

        A full-line write of fresh data replaces poisoned contents, so the
        line's poison bit clears; callers moving *derived* data (lazy-copy
        materialization, poisoned writebacks) re-poison explicitly.
        """
        base = addr & _LINE_MASK
        if base < 0 or base + CACHELINE_SIZE > self.capacity:
            self._check_range(base, CACHELINE_SIZE)
        if len(data) != CACHELINE_SIZE:
            raise AddressError(f"write_line needs {CACHELINE_SIZE}B, "
                               f"got {len(data)}")
        page = self._pages.get(base >> _PAGE_SHIFT)
        if page is None:
            page = memoryview(bytearray(PAGE_SIZE))
            self._pages[base >> _PAGE_SHIFT] = page
        off = base & _PAGE_MASK
        page[off:off + CACHELINE_SIZE] = data
        self._poisoned.discard(base)

    # ------------------------------------------------------------- bytes
    def read(self, addr: int, size: int) -> bytes:
        """Read ``size`` bytes starting at ``addr`` (may span pages)."""
        self._check_range(addr, size)
        off = addr & _PAGE_MASK
        if off + size <= PAGE_SIZE:
            page = self._pages.get(addr >> _PAGE_SHIFT)
            if page is None:
                return bytes(size)
            return page[off:off + size].tobytes()
        # Join views of each page's span: the result is the only copy.
        spans: List[memoryview] = []
        pos = 0
        while pos < size:
            cur = addr + pos
            off = cur & _PAGE_MASK
            take = min(PAGE_SIZE - off, size - pos)
            page = self._pages.get(cur >> _PAGE_SHIFT, _ZERO_PAGE)
            spans.append(page[off:off + take])
            pos += take
        return b"".join(spans)

    def write(self, addr: int, data: bytes) -> None:
        """Write ``data`` starting at ``addr`` (may span pages).

        Every line the write covers whole loses its poison bit, as with
        :meth:`write_line`.
        """
        size = len(data)
        self._check_range(addr, size)
        view = memoryview(data)
        pos = 0
        while pos < size:
            cur = addr + pos
            off = cur & _PAGE_MASK
            take = min(PAGE_SIZE - off, size - pos)
            page = self._pages.get(cur >> _PAGE_SHIFT)
            if page is None:
                page = memoryview(bytearray(PAGE_SIZE))
                self._pages[cur >> _PAGE_SHIFT] = page
            page[off:off + take] = view[pos:pos + take]
            pos += take
        if self._poisoned:
            line = align_up(addr, CACHELINE_SIZE)
            end = align_down(addr + size, CACHELINE_SIZE)
            while line < end:
                self._poisoned.discard(line)
                line += CACHELINE_SIZE

    def copy(self, dst: int, src: int, size: int) -> None:
        """Eagerly move ``size`` bytes from ``src`` to ``dst`` (oracle op)."""
        self.write(dst, self.read(src, size))
        # Poison travels with the data it taints; an empty copy moves none.
        if self._poisoned and size:
            line = align_down(dst, CACHELINE_SIZE)
            end = dst + size
            while line < end:
                lo = max(line, dst)
                hi = min(line + CACHELINE_SIZE, end)
                if self.range_poisoned(src + (lo - dst), hi - lo):
                    self._poisoned.add(line)
                line += CACHELINE_SIZE

    def fill(self, addr: int, size: int, value: int) -> None:
        """Set ``size`` bytes at ``addr`` to ``value``."""
        self.write(addr, bytes([value & 0xFF]) * size)

    # ------------------------------------------------------------- poison
    def poison(self, addr: int, size: int = CACHELINE_SIZE) -> None:
        """Mark every line touching [addr, addr+size) poisoned."""
        self._check_range(addr, max(size, 1))
        line = align_down(addr, CACHELINE_SIZE)
        end = addr + max(size, 1)
        while line < end:
            self._poisoned.add(line)
            line += CACHELINE_SIZE

    def clear_poison(self, addr: int, size: int = CACHELINE_SIZE) -> None:
        """Explicitly clear poison for lines touching [addr, addr+size)."""
        line = align_down(addr, CACHELINE_SIZE)
        end = addr + max(size, 1)
        while line < end:
            self._poisoned.discard(line)
            line += CACHELINE_SIZE

    def line_poisoned(self, addr: int) -> bool:
        """True when the line containing ``addr`` is poisoned."""
        return (addr & _LINE_MASK) in self._poisoned

    def range_poisoned(self, addr: int, size: int) -> bool:
        """True when any line touching [addr, addr+size) is poisoned."""
        if not self._poisoned:
            return False
        line = align_down(addr, CACHELINE_SIZE)
        end = addr + max(size, 1)
        while line < end:
            if line in self._poisoned:
                return True
            line += CACHELINE_SIZE
        return False

    @property
    def poisoned_lines(self) -> Set[int]:
        """Snapshot of poisoned line addresses."""
        return set(self._poisoned)
