"""Op emitters the software copy backends call.

Workloads build and type against :class:`repro.copyengine.CopyBackend`;
these classes are the op-stream fragments the backends delegate to:

* :class:`CopyEngine` — the base: eager ``memcpy`` with pass-through
  reads and writes (every backend inherits the access routing),
* :class:`KernelEagerEngine` — the kernel's line-granular copy, behind
  ``eager`` with ``kernel=True``,
* :class:`LazyEngine` — (MC)² ``memcpy_lazy`` (optionally through the
  interposer size threshold), behind ``mclazy``.

The interface routes *reads and writes of copied data* as well, because
zIO needs to interpose page faults on first access; the hardware
mechanisms pass accesses straight through.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.common.units import CACHELINE_SIZE, align_rem
from repro.isa import ops
from repro.isa.ops import Op
from repro.sw.memcpy import memcpy_lazy_ops, memcpy_ops


class CopyEngine:
    """Base interface: eager ``memcpy`` with pass-through accesses."""

    name = "memcpy"

    def __init__(self, system):
        self.system = system

    # ------------------------------------------------------------- copies
    def copy_ops(self, dst: int, src: int, size: int) -> Iterator[Op]:
        """Perform (or elide) a memcpy of ``size`` bytes."""
        yield from memcpy_ops(self.system, dst, src, size)

    def free_ops(self, addr: int, size: int) -> Iterator[Op]:
        """Buffer will not be read again (munmap-style hint)."""
        return iter(())

    # ----------------------------------------------------------- accesses
    def read_ops(self, addr: int, size: int = 8, blocking: bool = False,
                 on_retire=None) -> Iterator[Op]:
        """Load from (possibly copied) data."""
        yield ops.load(addr, size, blocking=blocking, on_retire=on_retire)

    def write_ops(self, addr: int, size: int = 8,
                  data: Optional[bytes] = None, on_retire=None,
                  nontemporal: bool = False) -> Iterator[Op]:
        """Store to (possibly copied) data."""
        if nontemporal:
            yield ops.nt_store(addr, size, data=data, on_retire=on_retire)
        else:
            yield ops.store(addr, size, data=data, on_retire=on_retire)


class KernelEagerEngine(CopyEngine):
    """Native-kernel copies: ``rep movsb``-style line-granular moves.

    Kernel paths (``copy_user_huge_page``, pipe buffer copies) do not
    loop SIMD chunks through the out-of-order scheduler; they execute a
    microcoded copy that streams whole cachelines.  Sub-line fringes
    fall back to the chunked path.
    """

    name = "memcpy"

    def copy_ops(self, dst: int, src: int, size: int) -> Iterator[Op]:
        head = min(align_rem(dst, CACHELINE_SIZE), size)
        if head or dst % CACHELINE_SIZE != src % CACHELINE_SIZE:
            # Misaligned relative layouts keep the chunked path.
            yield from memcpy_ops(self.system, dst, src, size)
            return
        bulk = size & ~(CACHELINE_SIZE - 1)
        if bulk:
            yield ops.bulk_copy(dst, src, bulk)
        if size - bulk:
            yield from memcpy_ops(self.system, dst + bulk, src + bulk,
                                  size - bulk)


class LazyEngine(CopyEngine):
    """(MC)²: copies go through ``memcpy_lazy`` (Fig. 8 wrapper).

    ``min_lazy`` models the interposer policy (§V-B redirects copies of
    1KB and larger); set it to 0 to make every copy lazy.  ``page_size``
    is the contiguity granularity the wrapper may assume (4KB for user
    space, 2MB when the kernel copies huge pages).
    """

    name = "mcsquare"

    def __init__(self, system, min_lazy: int = 0,
                 page_size: Optional[int] = None,
                 clwb_sources: bool = True):
        super().__init__(system)
        self.min_lazy = min_lazy
        self.page_size = page_size
        self.clwb_sources = clwb_sources

    def copy_ops(self, dst: int, src: int, size: int) -> Iterator[Op]:
        if size < self.min_lazy:
            yield from memcpy_ops(self.system, dst, src, size)
            return
        yield from memcpy_lazy_ops(self.system, dst, src, size,
                                   clwb_sources=self.clwb_sources,
                                   page_size=self.page_size)

    def free_ops(self, addr: int, size: int) -> Iterator[Op]:
        yield ops.mcfree(addr, size)
