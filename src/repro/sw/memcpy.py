"""Software memcpy variants as op-stream fragments.

Each function is a generator of :class:`~repro.isa.ops.Op` objects meant
to be ``yield from``-ed inside a workload program:

* :func:`memcpy_ops` — the eager baseline: a load/store loop at SIMD
  (32B) granularity with per-iteration test/loop overhead (§II-A).
* :func:`memcpy_lazy_ops` — the paper's Figure 8 wrapper: cacheline-align
  the destination with an eager fringe copy, CLWB every source line, then
  issue one MCLAZY per page-bounded run, and fence at the end (§III-D,
  §IV: writebacks are modelled by explicit CLWB calls).

Copy *policies* (the ``copy_interpose.so`` size threshold, kernel-style
invocation) live in the backends of :mod:`repro.copyengine`.

All addresses are physical here; virtual-memory users go through
:mod:`repro.os`, which translates before building ops.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.common import params
from repro.common.units import (CACHELINE_SIZE, PAGE_SIZE, align_rem)
from repro.isa import ops
from repro.isa.ops import Op


def _chunks(addr: int, size: int, max_chunk: int) -> Iterator[tuple]:
    """Split [addr, addr+size) into line-bounded chunks of <= max_chunk."""
    pos = addr
    end = addr + size
    while pos < end:
        line_left = CACHELINE_SIZE - (pos % CACHELINE_SIZE)
        take = min(max_chunk, line_left, end - pos)
        yield pos, take
        pos += take


def memcpy_ops(system, dst: int, src: int, size: int,
               chunk: int = params.MEMCPY_CHUNK) -> Iterator[Op]:
    """Eager memcpy: load + store per chunk, plus loop overhead."""
    offset = 0
    for src_pos, take in _chunks(src, size, chunk):
        dst_pos = dst + offset
        # A chunk may straddle a destination line even when it does not
        # straddle a source line; split the store accordingly.
        yield ops.load(src_pos, take)
        for d_pos, d_take in _chunks(dst_pos, take, take):
            s_pos = src_pos + (d_pos - dst_pos)
            yield ops.store(
                d_pos, d_take,
                data=(lambda s=s_pos, n=d_take: system.read_memory(s, n)))
        yield ops.compute(params.LOOP_OVERHEAD_CYCLES)
        offset += take


def memcpy_lazy_ops(system, dst: int, src: int, size: int,
                    clwb_sources: bool = True,
                    fence: bool = True,
                    wide_writeback: bool = False,
                    page_size: Optional[int] = None) -> Iterator[Op]:
    """The paper's ``memcpy_lazy`` wrapper (Fig. 8 pseudocode).

    Aligns the destination to a cacheline with an eager fringe copy,
    then walks page-bounded runs: runs of at least one cacheline become
    CLWB-per-source-line + one MCLAZY; sub-line tails are copied eagerly.
    Ends with an MFENCE ordering the prospective copies with later
    accesses.

    ``page_size`` is the physical contiguity the caller guarantees (4KB
    user pages by default; 2MB when the kernel's
    ``copy_user_huge_page`` copies a huge page).  A run never crosses a
    page, so ``page_size`` must not exceed ``CTT_MAX_COPY_SIZE``: the
    CTT rejects larger entries.

    ``wide_writeback=True`` enables the paper's §V-A1 extension: the
    per-line CLWB train is replaced by a single range writeback per run,
    removing the overhead component that dominates above 1KB (see the
    ablation benchmark).
    """
    page_size = page_size or PAGE_SIZE
    yield ops.compute(params.MEMCPY_LAZY_CALL_CYCLES)
    while size > 0:
        # Keep the destination cacheline-aligned.  The paper's Fig. 8
        # aligns it once up front, but a sub-cacheline page-tail copy
        # (line 15 there) can break the alignment again, so we re-check
        # every iteration.
        left_fringe = min(align_rem(dst, CACHELINE_SIZE), size)
        if left_fringe:
            yield from memcpy_ops(system, dst, src, left_fringe)
            dst += left_fringe
            src += left_fringe
            size -= left_fringe
            continue
        src_off = align_rem(src, page_size) or page_size
        dst_off = align_rem(dst, page_size) or page_size
        copy_size = min(src_off, dst_off, size)
        if copy_size < CACHELINE_SIZE:
            yield from memcpy_ops(system, dst, src, copy_size)
        else:
            copy_size &= ~(CACHELINE_SIZE - 1)
            if clwb_sources:
                line = src - (src % CACHELINE_SIZE)
                if wide_writeback:
                    yield ops.clwb_range(line, src + copy_size - line)
                else:
                    while line < src + copy_size:
                        yield ops.clwb(line)
                        line += CACHELINE_SIZE
            yield ops.compute(params.MCLAZY_SETUP_CYCLES)
            yield ops.mclazy(dst, src, copy_size)
        dst += copy_size
        src += copy_size
        size -= copy_size
    if fence:
        yield ops.mfence()


def touch_ops(addr: int, size: int,
              stride: int = CACHELINE_SIZE) -> Iterator[Op]:
    """Read every ``stride``-th byte, pulling the region into the caches.

    Used to build the "Touched memcpy" baseline of Figure 10.
    """
    pos = addr
    end = addr + size
    while pos < end:
        yield ops.load(pos, 8)
        pos += stride


def stream_read_ops(addr: int, size: int,
                    stride: int = CACHELINE_SIZE,
                    on_retire=None) -> Iterator[Op]:
    """Sequentially read (accumulate) a buffer, one load per stride."""
    pos = addr
    end = addr + size
    while pos < end:
        yield ops.load(pos, 8, on_retire=on_retire)
        yield ops.compute(1)
        pos += stride
