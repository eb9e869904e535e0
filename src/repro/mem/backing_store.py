"""Functional (data-carrying) physical memory.

The simulator co-simulates *timing* and *function*: every physical address
has real byte contents, so lazy copies can be checked for bit-exact
equivalence with an eager ``memcpy`` oracle.  Storage is a sparse dict of
cacheline-sized ``bytearray`` blocks; untouched memory reads as zeros.
"""

from __future__ import annotations

from typing import Dict, Set

from repro.common.errors import AddressError
from repro.common.units import CACHELINE_SIZE, align_down


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
        self._lines: Dict[int, bytearray] = {}
        self._poisoned: Set[int] = set()

    # ------------------------------------------------------------ checking
    def _check_range(self, addr: int, size: int) -> None:
        if addr < 0 or size < 0 or addr + size > self.capacity:
            raise AddressError(
                f"physical access [{addr:#x}, {addr + size:#x}) outside "
                f"capacity {self.capacity:#x}"
            )

    # ------------------------------------------------------------- lines
    def _line(self, line_addr: int) -> bytearray:
        line = self._lines.get(line_addr)
        if line is None:
            line = bytearray(CACHELINE_SIZE)
            self._lines[line_addr] = line
        return line

    def read_line(self, addr: int) -> bytes:
        """Read the 64B cacheline containing ``addr``."""
        base = align_down(addr, CACHELINE_SIZE)
        self._check_range(base, CACHELINE_SIZE)
        line = self._lines.get(base)
        return bytes(line) if line is not None else bytes(CACHELINE_SIZE)

    def write_line(self, addr: int, data: bytes) -> None:
        """Overwrite the 64B cacheline containing ``addr``.

        A full-line write of fresh data replaces poisoned contents, so the
        line's poison bit clears; callers moving *derived* data (lazy-copy
        materialization, poisoned writebacks) re-poison explicitly.
        """
        base = align_down(addr, CACHELINE_SIZE)
        self._check_range(base, CACHELINE_SIZE)
        if len(data) != CACHELINE_SIZE:
            raise AddressError(f"write_line needs {CACHELINE_SIZE}B, "
                               f"got {len(data)}")
        self._lines[base] = bytearray(data)
        self._poisoned.discard(base)

    # ------------------------------------------------------------- bytes
    def read(self, addr: int, size: int) -> bytes:
        """Read ``size`` bytes starting at ``addr`` (may span lines)."""
        self._check_range(addr, size)
        out = bytearray(size)
        pos = 0
        while pos < size:
            cur = addr + pos
            base = align_down(cur, CACHELINE_SIZE)
            off = cur - base
            take = min(CACHELINE_SIZE - off, size - pos)
            line = self._lines.get(base)
            if line is not None:
                out[pos:pos + take] = line[off:off + take]
            pos += take
        return bytes(out)

    def write(self, addr: int, data: bytes) -> None:
        """Write ``data`` starting at ``addr`` (may span lines)."""
        size = len(data)
        self._check_range(addr, size)
        pos = 0
        while pos < size:
            cur = addr + pos
            base = align_down(cur, CACHELINE_SIZE)
            off = cur - base
            take = min(CACHELINE_SIZE - off, size - pos)
            self._line(base)[off:off + take] = data[pos:pos + take]
            if take == CACHELINE_SIZE:
                self._poisoned.discard(base)
            pos += take

    def copy(self, dst: int, src: int, size: int) -> None:
        """Eagerly move ``size`` bytes from ``src`` to ``dst`` (oracle op)."""
        self.write(dst, self.read(src, size))
        # Poison travels with the data it taints.
        if self._poisoned:
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
        return align_down(addr, CACHELINE_SIZE) in self._poisoned

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

    @property
    def resident_lines(self) -> int:
        """Number of cachelines that have ever been written."""
        return len(self._lines)
