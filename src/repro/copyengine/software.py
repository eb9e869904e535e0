"""Software copy backends: eager loop, (MC)² lazy wrapper, zIO elision.

``eager`` and ``mclazy`` delegate to the op emitters in
:mod:`repro.sw.engine`, so the op streams they emit are identical to
those emitters' — the ``mclazy`` backend is pinned byte-for-byte to the
golden trace by ``tests/integration/test_golden_trace.py``.  ``zio`` is
self-contained.

Kernel-style invocation is a construction parameter, not a separate
class: ``eager`` takes ``kernel=True`` for the kernel's line-granular
``bulk_copy``, and ``mclazy`` takes the contiguity ``page_size`` and
``clwb_sources``.  Each class's :meth:`~CopyBackend.kernel_kwargs` says
which of them a kernel copy path sets.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional

from repro.common import params
from repro.common.units import PAGE_SIZE, align_down
from repro.copyengine.base import CopyBackend
from repro.copyengine.registry import register_backend
from repro.isa import ops
from repro.isa.ops import Op
from repro.sw.engine import KernelEagerEngine, LazyEngine
from repro.sw.memcpy import memcpy_ops


@register_backend
class EagerBackend(CopyBackend):
    """The native software ``memcpy`` loop (the paper's baseline).

    With ``kernel=True`` it models the kernel's copies instead
    (``copy_user_huge_page``, pipe buffers): a microcoded line-granular
    ``bulk_copy`` rather than the SIMD loop.
    """

    name = "eager"

    @classmethod
    def kernel_kwargs(cls, page_size: int) -> dict:
        return {"kernel": True}

    def __init__(self, system, kernel: bool = False):
        super().__init__(system)
        self._kernel = KernelEagerEngine(system) if kernel else None

    def _issue_ops(self, dst: int, src: int, size: int) -> Iterator[Op]:
        self._outcome("copied")
        if self._kernel is not None:
            return self._kernel.copy_ops(dst, src, size)
        return memcpy_ops(self.system, dst, src, size)


@register_backend
class McLazyBackend(CopyBackend):
    """(MC)² lazy MemCopy: delegates to the existing CTT/BPQ machinery.

    Composition keeps the emitted op stream identical to
    :class:`repro.sw.engine.LazyEngine` — no marker ops, no extra
    fences — which is what keeps the golden trace byte-identical.
    """

    name = "mclazy"

    @classmethod
    def config_kwargs(cls, config) -> dict:
        return {"min_lazy": getattr(config, "copy_min_lazy", 0)}

    @classmethod
    def kernel_kwargs(cls, page_size: int) -> dict:
        # copy_user_huge_page issues one MCLAZY per huge page and leaves
        # dirty source lines to the writeback the MCLAZY packet triggers
        # in the caches; base-page kernel copies (pipe buffers) call the
        # memcpy_lazy wrapper as user space does.
        if page_size <= PAGE_SIZE:
            return {}
        return {"page_size": page_size, "clwb_sources": False}

    def __init__(self, system, min_lazy: int = 0,
                 page_size: Optional[int] = None,
                 clwb_sources: bool = True):
        super().__init__(system)
        self._inner = LazyEngine(system, min_lazy=min_lazy,
                                 page_size=page_size,
                                 clwb_sources=clwb_sources)
        self.min_lazy = min_lazy

    def _issue_ops(self, dst: int, src: int, size: int) -> Iterator[Op]:
        if size < self.min_lazy:
            self._outcome("copied")
            self._fallback_bytes.inc(size)
        else:
            self._outcome("deferred")
        return self._inner.copy_ops(dst, src, size)

    def _free_ops(self, addr: int, size: int) -> Iterator[Op]:
        return self._inner.free_ops(addr, size)

    def tracked_bytes(self) -> int:
        ctt = getattr(self.system, "ctt", None)
        return ctt.tracked_bytes() if ctt is not None else 0

    # No _resolve_ops override: deferred copies live in the CTT, and
    # System.read_memory resolves through it (bounce semantics), so
    # final memory contents are already observable.


@register_backend
class ZioBackend(CopyBackend):
    """zIO (Stamler et al., OSDI 2022): page-granularity copy elision.

    zIO elides ``memcpy`` calls of at least a page: it records the copy
    in a skiplist, unmaps the destination pages (charging munmap +
    TLB-shootdown costs), and marks them copy-on-access via
    userfaultfd.  The first access to an elided page takes a fault: zIO
    allocates physical memory and copies that page eagerly.  Sub-page
    copies cannot be elided and fall back to plain ``memcpy`` — which is
    why zIO gains nothing on the Protobuf workload (all copies < 4KB,
    §V-B) and why it loses when copied data is heavily accessed
    (MongoDB, Figs. 12-13).

    Following the paper's methodology (§IV), elision applies to *all*
    memcpy calls, not only IO-path ones.
    """

    name = "zio"

    @classmethod
    def config_kwargs(cls, config) -> dict:
        kwargs = {}
        min_elision = getattr(config, "zio_min_elision", None)
        if min_elision is not None:
            kwargs["min_elision"] = min_elision
        return kwargs

    def __init__(self, system,
                 min_elision: int = params.ZIO_MIN_ELISION_SIZE):
        super().__init__(system)
        self.min_elision = min_elision
        # Elided destination page -> source byte address backing it.
        self._elided: Dict[int, int] = {}
        self._elisions = self.stats.counter("elisions", "copies elided")
        self._faults = self.stats.counter(
            "faults", "copy-on-access faults taken")
        self._fallback_copies = self.stats.counter(
            "fallback_copies", "copies too small or misaligned to elide")

    # ------------------------------------------------------------- copies
    def _issue_ops(self, dst: int, src: int, size: int) -> Iterator[Op]:
        # Only whole destination pages can be remapped; fringes copy
        # eagerly.  An elidable region needs at least one full page.
        first_page = align_down(dst + PAGE_SIZE - 1, PAGE_SIZE)
        last_page_end = align_down(dst + size, PAGE_SIZE)
        if size < self.min_elision or first_page >= last_page_end:
            self._outcome("copied")
            self._fallback_copies.inc()
            self._fallback_bytes.inc(size)
            yield from memcpy_ops(self.system, dst, src, size)
            return

        self._outcome("elided")
        head = first_page - dst
        if head:
            yield from memcpy_ops(self.system, dst, src, head)
        tail = (dst + size) - last_page_end
        if tail:
            yield from memcpy_ops(self.system, last_page_end,
                                  src + (last_page_end - dst), tail)

        pages = (last_page_end - first_page) // PAGE_SIZE
        for i in range(pages):
            page = first_page + i * PAGE_SIZE
            self._elided[page] = src + (page - dst)
        self._elisions.inc()
        # Elision cost: skiplist insert + munmap + TLB shootdown IPIs.
        yield ops.compute(params.ZIO_SKIPLIST_OP_CYCLES
                          + params.ZIO_ELISION_BASE_CYCLES
                          + pages * params.ZIO_UNMAP_PER_PAGE_CYCLES)

    def _free_ops(self, addr: int, size: int) -> Iterator[Op]:
        for page in range(align_down(addr, PAGE_SIZE), addr + size,
                          PAGE_SIZE):
            self._elided.pop(page, None)
        yield ops.compute(params.ZIO_SKIPLIST_OP_CYCLES)

    def _resolve_ops(self, addr: int, size: int) -> Iterator[Op]:
        # The elision map is backend state the memory system cannot see:
        # fault every still-elided page in so final bytes land in DRAM.
        for page in range(align_down(addr, PAGE_SIZE), addr + size,
                          PAGE_SIZE):
            if self.is_elided(page):
                yield from self.read_ops(page, 8)

    def tracked_bytes(self) -> int:
        return len(self._elided) * PAGE_SIZE

    def is_elided(self, addr: int) -> bool:
        """True when the page containing ``addr`` awaits copy-on-access."""
        return align_down(addr, PAGE_SIZE) in self._elided

    # ----------------------------------------------------------- accesses
    # Faults interpose on data accesses, so reads/writes of (possibly
    # elided) data route through the copy-on-access check.
    def _fault_ops(self, addr: int) -> Iterator[Op]:
        """Copy-on-access: userfaultfd round trip plus an eager page copy."""
        page = align_down(addr, PAGE_SIZE)
        src = self._elided.pop(page, None)
        if src is None:
            return
        self._faults.inc()
        yield ops.compute(params.USERFAULTFD_FAULT_CYCLES)
        yield from memcpy_ops(self.system, page, src, PAGE_SIZE)
        yield ops.compute(params.ZIO_SKIPLIST_OP_CYCLES)

    def read_ops(self, addr: int, size: int = 8, blocking: bool = False,
                 on_retire=None) -> Iterator[Op]:
        yield from self._fault_ops(addr)
        yield ops.load(addr, size, blocking=blocking, on_retire=on_retire)

    def write_ops(self, addr: int, size: int = 8,
                  data: Optional[bytes] = None, on_retire=None,
                  nontemporal: bool = False) -> Iterator[Op]:
        yield from self._fault_ops(addr)
        if nontemporal:
            yield ops.nt_store(addr, size, data=data, on_retire=on_retire)
        else:
            yield ops.store(addr, size, data=data, on_retire=on_retire)
