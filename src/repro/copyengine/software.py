"""Software copy backends: eager loop, (MC)² lazy wrapper, zIO elision.

These wrap the existing engines in :mod:`repro.sw.engine` and
:mod:`repro.zio.engine` rather than reimplementing them, so the op
streams they emit are *identical* to the pre-refactor engines — the
``mclazy`` backend is pinned byte-for-byte to the golden trace by
``tests/integration/test_golden_trace.py``.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.common.units import PAGE_SIZE, align_down
from repro.copyengine.base import CopyBackend
from repro.copyengine.registry import register_backend
from repro.isa.ops import Op
from repro.sw.engine import LazyEngine
from repro.sw.memcpy import memcpy_ops
from repro.zio.engine import ZioEngine


@register_backend
class EagerBackend(CopyBackend):
    """The native software ``memcpy`` loop (the paper's baseline)."""

    name = "eager"

    def _issue_ops(self, dst: int, src: int, size: int) -> Iterator[Op]:
        self._outcome("copied")
        yield from memcpy_ops(self.system, dst, src, size)


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
        yield from self._inner.copy_ops(dst, src, size)

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
    """zIO page-granularity copy elision with copy-on-access faults."""

    name = "zio"

    @classmethod
    def config_kwargs(cls, config) -> dict:
        kwargs = {}
        min_elision = getattr(config, "zio_min_elision", None)
        if min_elision is not None:
            kwargs["min_elision"] = min_elision
        return kwargs

    def __init__(self, system, **kwargs):
        super().__init__(system)
        self._inner = ZioEngine(system, **kwargs)

    def _issue_ops(self, dst: int, src: int, size: int) -> Iterator[Op]:
        before = self._inner.elisions
        yield from self._inner.copy_ops(dst, src, size)
        if self._inner.elisions > before:
            self._outcome("elided")
        else:
            self._outcome("copied")
            self._fallback_bytes.inc(size)

    def _free_ops(self, addr: int, size: int) -> Iterator[Op]:
        return self._inner.free_ops(addr, size)

    # Faults interpose on data accesses, so reads/writes of (possibly
    # elided) data must route through the inner engine.
    def read_ops(self, addr: int, size: int = 8, blocking: bool = False,
                 on_retire=None) -> Iterator[Op]:
        return self._inner.read_ops(addr, size, blocking=blocking,
                                    on_retire=on_retire)

    def write_ops(self, addr: int, size: int = 8,
                  data: Optional[bytes] = None, on_retire=None,
                  nontemporal: bool = False) -> Iterator[Op]:
        return self._inner.write_ops(addr, size, data=data,
                                     on_retire=on_retire,
                                     nontemporal=nontemporal)

    def tracked_bytes(self) -> int:
        return self._inner.elided_pages() * PAGE_SIZE

    def _resolve_ops(self, addr: int, size: int) -> Iterator[Op]:
        # The elision map is engine state the memory system cannot see:
        # fault every still-elided page in so final bytes land in DRAM.
        for page in range(align_down(addr, PAGE_SIZE), addr + size,
                          PAGE_SIZE):
            if self._inner.is_elided(page):
                yield from self._inner.read_ops(page, 8)
