"""In-DRAM copy backends: RowClone and In-Memory Mirroring.

Both offload bulk copies to the DRAM device itself via the
``INMEM_COPY`` op (:mod:`repro.isa.ops`): the hierarchy flushes dirty
source lines and invalidates cached destination lines (the LazyPIM
coherence boundary), the interconnect scatters the descriptor to every
memory controller, and each controller runs its channel's share as
row-copy jobs on :meth:`repro.dram.device.DramChannel.row_copy` —
RowClone FPM for full same-subarray row pairs, PSM's serial per-line
transfer otherwise, or the mirroring clone (no read phase) for the
``mirror`` backend.

Eligibility: an in-DRAM copy needs every (source, destination) line
pair on the same channel.  With cacheline-interleaved channels that
means the copy offset must be congruent modulo ``channels`` cachelines
(and the buffers laid out line-congruently); anything else falls back
to the eager software loop, which is exactly the *locality* axis of the
crossover figure.  Sub-line fringes at either end always copy eagerly,
mirroring ``memcpy_lazy``'s fringe handling.
"""

from __future__ import annotations

from typing import Iterator

from repro.common import params
from repro.common.units import CACHELINE_SIZE, align_rem
from repro.copyengine.base import CopyBackend
from repro.copyengine.registry import register_backend
from repro.isa import ops
from repro.isa.ops import Op
from repro.sw.memcpy import memcpy_ops


class InMemCopyBackend(CopyBackend):
    """Common machinery for the rowclone / mirror backends."""

    #: DRAM mechanism requested in the INMEM_COPY descriptor.
    mode = "rowclone"

    def __init__(self, system):
        super().__init__(system)
        self._cloned_lines = self.stats.counter(
            "cloned_lines", "cachelines offloaded to in-DRAM copy")
        self._channels = system.address_map.channels

    def eligible(self, dst: int, src: int, size: int) -> bool:
        """True when the bulk of this copy can run in DRAM."""
        if dst % CACHELINE_SIZE != src % CACHELINE_SIZE:
            return False  # line-incongruent layouts can't pair rows
        if ((src - dst) // CACHELINE_SIZE) % self._channels:
            return False  # line pairs would straddle channels
        return size >= CACHELINE_SIZE

    def _issue_ops(self, dst: int, src: int, size: int) -> Iterator[Op]:
        if not self.eligible(dst, src, size):
            self._outcome("fallback")
            self._fallback_bytes.inc(size)
            yield from memcpy_ops(self.system, dst, src, size)
            return
        head = min(align_rem(dst, CACHELINE_SIZE), size)
        if head:
            self._fallback_bytes.inc(head)
            yield from memcpy_ops(self.system, dst, src, head)
            dst += head
            src += head
            size -= head
        bulk = size & ~(CACHELINE_SIZE - 1)
        if bulk:
            self._outcome("cloned")
            self._cloned_lines.inc(bulk // CACHELINE_SIZE)
            # LazyPIM boundary: flush/invalidate bookkeeping on the
            # issuing core (the hierarchy generates the actual
            # writebacks when the descriptor passes through it).
            yield from self.coherence_ops(dst, src, bulk)
            yield ops.compute(params.MCLAZY_SETUP_CYCLES)
            yield ops.inmem_copy(dst, src, bulk, mode=self.mode)
            # The copy runs asynchronously in DRAM; the fence makes the
            # wrapper's completion mean "clone done", matching
            # memcpy_lazy's contract.
            yield ops.mfence()
        rest = size - bulk
        if rest:
            self._fallback_bytes.inc(rest)
            yield from memcpy_ops(self.system, dst + bulk, src + bulk, rest)

    def coherence_ops(self, dst: int, src: int, size: int) -> Iterator[Op]:
        lines = size // CACHELINE_SIZE
        yield ops.compute(params.INMEM_COHERENCE_BASE_CYCLES
                          + lines * params.INMEM_COHERENCE_PER_LINE_CYCLES)


@register_backend
class RowCloneBackend(InMemCopyBackend):
    """RowClone: FPM same-subarray row copies, PSM serial otherwise."""

    name = "rowclone"
    mode = "rowclone"


@register_backend
class MirrorBackend(InMemCopyBackend):
    """In-Memory Mirroring: row cloning without the read phase."""

    name = "mirror"
    mode = "mirror"
