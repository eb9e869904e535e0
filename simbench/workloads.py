"""The benchmark's three workloads, built only from the simulator's public API.

Each workload turns a seed into inputs once (:meth:`Workload.__init__`,
untimed), then for every repetition builds a fresh machine
(:meth:`Workload.setup`, the timed set-up), hands back the program the
timed section runs, and checks the machine's final memory
(:meth:`Repetition.check`).  The seed decides data contents only; sizes,
addresses and access order are fixed, so simulated cycles are the same
for every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List

from repro import System, SystemConfig
from repro.common.units import CACHELINE_SIZE, HUGE_PAGE_SIZE, KB
from repro.isa import ops
from repro.workloads.hugepage import HugePageCowWorkload

#: The Fig. 12/13 access-study machine: caches small enough that the
#: copied buffer streams from memory.
ACCESS_CONFIG = SystemConfig(l1_size=32 * KB, l2_size=512 * KB)

#: How far ``seq-lazy``'s source is misaligned from a page (and line).
MISALIGN = 16

#: Bytes a memory check reads at a time, so checking adds no multi-MB
#: buffers to the peak resident set.
CHECK_CHUNK = 64 * KB


@dataclass
class Repetition:
    """One freshly built machine and the program its timed section runs."""

    system: System
    program: Iterator[ops.Op]
    check: Callable[[], List[str]]

    def run(self) -> int:
        """The timed section: run the program, then drain background work.

        Returns the simulated cycle at which the program finished.
        """
        finish = self.system.run_program(self.program)
        self.system.drain()
        return finish


def _random_page(rnd: random.Random) -> bytearray:
    """A huge page of random bytes, drawn a chunk at a time: a single
    ``randbytes`` call would pass through a page-sized integer, and that
    transient would count in the peak resident set."""
    page = bytearray(HUGE_PAGE_SIZE)
    for off in range(0, HUGE_PAGE_SIZE, CHECK_CHUNK):
        page[off:off + CHECK_CHUNK] = rnd.randbytes(CHECK_CHUNK)
    return page


def _mismatch(what: str, system: System, addr: int, want: bytes
              ) -> List[str]:
    """Compare simulated memory at ``addr`` with ``want``, one
    :data:`CHECK_CHUNK` at a time."""
    view = memoryview(want)
    for off in range(0, len(want), CHECK_CHUNK):
        expect = view[off:off + CHECK_CHUNK]
        got = system.read_memory(addr + off, len(expect))
        if got != expect:
            first = next((i for i, (a, b) in enumerate(zip(got, expect))
                          if a != b), min(len(got), len(expect)))
            return [f"{what}: differs from the expected bytes at offset "
                    f"{off + first}"]
    return []


class Workload:
    """Base: a named input set and how to run it on a fresh machine."""

    name = ""
    #: Why the workload is in the benchmark (one line, see README.md).
    why = ""

    def setup(self) -> Repetition:
        raise NotImplementedError


class SeqLazy(Workload):
    """mclazy-copy a buffer whose source is misaligned by 16 B, then
    stream-read half the destination with one compute op per line (the
    Fig. 12 hot path: core issue pump plus the (MC)² read-side bounce)."""

    name = "seq-lazy"
    why = ("lazy copy then streaming reads of the copy: loads the core "
           "pump and the (MC)2 read-side bounce path")

    def __init__(self, seed: int, size: int = 256 * KB):
        self.size = size
        self.data = random.Random(seed).randbytes(size)

    def setup(self) -> Repetition:
        system = System(ACCESS_CONFIG)
        backend = system.copy_backend()
        src = system.alloc(self.size + 4096, align=4096) + MISALIGN
        dst = system.alloc(self.size + 4096, align=4096)
        system.backing.write(src, self.data)
        read_end = dst + self.size // 2

        def program() -> Iterator[ops.Op]:
            yield from backend.copy_ops(dst, src, self.size)
            pos = dst
            while pos < read_end:
                yield from backend.read_ops(pos, 8)
                yield ops.compute(1)
                pos += CACHELINE_SIZE

        def check() -> List[str]:
            return _mismatch("destination", system, dst, self.data)

        return Repetition(system, program(), check)


class SrcWriteLazy(Workload):
    """mclazy-copy, then overwrite, CLWB and fence every source line (the
    Fig. 21 pattern with the default 8-entry BPQ): the same (MC)² layer
    driven by writes, so BPQ park/materialize and WPQ drains."""

    name = "srcwrite-lazy"
    why = ("lazy copy then overwrite and flush the source: loads BPQ "
           "park/materialize and WPQ drains, the write side of (MC)2")

    def __init__(self, seed: int, size: int = 128 * KB):
        rnd = random.Random(seed)
        self.size = size
        self.data = rnd.randbytes(size)
        self.pattern = rnd.randbytes(size)

    def setup(self) -> Repetition:
        system = System(SystemConfig())
        backend = system.copy_backend()
        src = system.alloc(self.size, align=4096)
        dst = system.alloc(self.size, align=4096)
        system.backing.write(src, self.data)
        pattern = self.pattern

        def program() -> Iterator[ops.Op]:
            yield from backend.copy_ops(dst, src, self.size)
            for off in range(0, self.size, CACHELINE_SIZE):
                yield ops.store(src + off, CACHELINE_SIZE,
                                data=pattern[off:off + CACHELINE_SIZE])
            for off in range(0, self.size, CACHELINE_SIZE):
                yield ops.clwb(src + off)
            yield ops.mfence()

        def check() -> List[str]:
            return (_mismatch("destination", system, dst, self.data)
                    + _mismatch("source", system, src, pattern))

        return Repetition(system, program(), check)


class CowEager(Workload):
    """On the baseline machine (no CTT), fork a 2 MB huge-page region and
    store into it, so the native kernel COW handler copies the whole page
    with one line-granular bulk copy (Fig. 18 native)."""

    name = "cow-eager"
    why = ("fork then store into a 2 MB huge page on the baseline machine: "
           "loads MC, interconnect, DRAM and the kernel COW copy, not (MC)2")

    #: Fixed store offsets (a stride coprime with the line count), so
    #: every seed touches the same lines.
    STRIDE = 4099 * 8

    def __init__(self, seed: int, updates: int = 16):
        rnd = random.Random(seed)
        self.page = _random_page(rnd)
        self.updates = [((i * self.STRIDE) % HUGE_PAGE_SIZE, rnd.randbytes(8))
                        for i in range(updates)]
        #: What the parent must see after its stores.
        self.updated = bytearray(self.page)
        for offset, data in self.updates:
            self.updated[offset:offset + 8] = data

    def setup(self) -> Repetition:
        cow = HugePageCowWorkload("native", region_size=HUGE_PAGE_SIZE,
                                  num_updates=len(self.updates))
        system, vm, space, base = cow.system, cow.os, cow.space, cow.base
        system.backing.write(space.translate(base), self.page)
        outputs: Dict[str, object] = {}

        def program() -> Iterator[ops.Op]:
            child, fork_cost = vm.fork(space)
            outputs["child"] = child
            yield from fork_cost
            for offset, data in self.updates:
                yield from vm.cow_store_ops(space, base + offset, 8,
                                            cow.engine, data=data)
                yield ops.mfence()

        def check() -> List[str]:
            problems = _mismatch("parent page", system,
                                 space.translate(base), self.updated)
            child = outputs.get("child")
            if child is None:
                return problems + ["fork never ran"]
            return problems + _mismatch("child page", system,
                                        child.translate(base), self.page)

        return Repetition(system, program(), check)


WORKLOADS = {cls.name: cls for cls in (SeqLazy, SrcWriteLazy, CowEager)}
