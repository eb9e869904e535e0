"""The pluggable copy-backend contract.

:class:`CopyBackend` is the one copy contract workloads, the OS layer and
the examples build and type against; :mod:`repro.copyengine.registry` is
the only code that maps names to backends.  A backend has a standard
observable surface and a four-hook lifecycle, so every copy mechanism
the crossover study compares — the eager software loop, (MC)² lazy
tracking, zIO page elision, and the in-DRAM RowClone / mirroring models
— plugs into the same workloads, sweeps, and figures:

* **issue** (:meth:`CopyBackend._issue_ops`) — emit the µops that
  perform (or register, or elide) one copy.  This is the only hook a
  backend must implement.
* **track** (:meth:`CopyBackend.tracked_bytes`) — how many bytes of
  copies the backend is currently *deferring* (CTT-tracked bytes for
  ``mclazy``, elided pages for ``zio``, always 0 for mechanisms that
  finish copies before returning).
* **resolve** (:meth:`CopyBackend.resolve_ops`) — force deferred state
  to become ordinary memory so a functional comparison (or a checkpoint)
  sees final bytes.  ``mclazy`` needs nothing here because
  ``System.read_memory`` is CTT-aware; ``zio`` must fault its elided
  pages in because the elision map lives in the backend, invisible to
  the memory system.
* **coherence** (:meth:`CopyBackend.coherence_ops`) — the CPU-boundary
  cost a mechanism pays before offloading (LazyPIM-style flush +
  invalidate bookkeeping for the in-DRAM backends; free for the
  software mechanisms, whose ops are naturally coherent).

Every backend owns a ``StatGroup`` subtree under
``system.stats["copyengine"][<name>]`` and emits copy-lifecycle spans in
the opt-in ``copyengine`` trace category (off by default, so traced
golden runs stay byte-identical).

Backends act only through the ops they emit, which run on the core
that executes them; they never mutate memory-side state directly.  The
base class inherits the pass-through ``read_ops`` / ``write_ops`` of
:class:`repro.sw.engine.CopyEngine`, the op emitter the software
backends delegate to.

How a copy is invoked is a construction parameter, never a separate
class: :meth:`CopyBackend.config_kwargs` maps ``SystemConfig`` fields to
constructor arguments, and :meth:`CopyBackend.kernel_kwargs` gives the
arguments for copies the kernel issues.
"""

from __future__ import annotations

from typing import Iterator

from repro.isa.ops import Op
from repro.sw.engine import CopyEngine
from repro.sw.memcpy import memcpy_ops


class CopyBackend(CopyEngine):
    """Base class for copy backends."""

    name = "backend"

    @classmethod
    def config_kwargs(cls, config) -> dict:
        """Constructor kwargs this backend derives from a SystemConfig.

        The registry's :func:`make_backend` applies these under any
        explicit overrides, so ``SystemConfig`` fields like
        ``copy_min_lazy`` flow to the right backend automatically.
        """
        return {}

    @classmethod
    def kernel_kwargs(cls, page_size: int) -> dict:
        """Constructor kwargs for copies the kernel issues over
        physically contiguous ``page_size`` pages (the COW handler's
        ``copy_user_huge_page``, pipe buffers).

        ``make_backend(..., kernel_page_size=...)`` applies these under
        any explicit overrides; the default is the user-space mechanism.
        """
        return {}

    def __init__(self, system):
        super().__init__(system)
        group = system.stats.group("copyengine").group(self.name)
        self.stats = group
        self._copies = group.counter("copies", "copy requests issued")
        self._bytes = group.counter("bytes_requested",
                                    "bytes the workload asked to copy")
        self._fallback_bytes = group.counter(
            "fallback_bytes", "bytes that took the eager software loop")
        self._frees = group.counter("frees", "free hints received")
        self._resolves = group.counter("resolves",
                                       "explicit resolve requests")
        # Instance-local span sequence (a process-global counter would
        # be fork-unsafe across sweep workers, MC2401).
        self._span_seq = 0
        self._last_outcome = "issued"

    # ------------------------------------------------------------ wrapper
    def copy_ops(self, dst: int, src: int, size: int) -> Iterator[Op]:
        """Count, trace, and delegate one copy to :meth:`_issue_ops`."""
        self._copies.inc()
        self._bytes.inc(size)
        tracer = getattr(self.system, "tracer", None)
        span_id = None
        if tracer is not None and tracer.wants("copyengine"):
            self._span_seq += 1
            span_id = f"ce-{self.name}-{self._span_seq}"
            tracer.span_begin("copyengine", "copyengine",
                              f"copy-{self.name}", span_id,
                              {"dst": hex(dst), "src": hex(src),
                               "size": size})
        self._last_outcome = "issued"
        yield from self._issue_ops(dst, src, size)
        if span_id is not None:
            tracer.span_end("copyengine", span_id,
                            {"outcome": self._last_outcome})

    def free_ops(self, addr: int, size: int) -> Iterator[Op]:
        self._frees.inc()
        return self._free_ops(addr, size)

    def resolve_ops(self, addr: int, size: int) -> Iterator[Op]:
        """Materialize any deferred copy state covering the range."""
        self._resolves.inc()
        return self._resolve_ops(addr, size)

    # -------------------------------------------------------------- hooks
    def _issue_ops(self, dst: int, src: int, size: int) -> Iterator[Op]:
        """Emit the µops performing one copy (override me)."""
        self._outcome("copied")
        return memcpy_ops(self.system, dst, src, size)

    def _free_ops(self, addr: int, size: int) -> Iterator[Op]:
        return iter(())

    def _resolve_ops(self, addr: int, size: int) -> Iterator[Op]:
        return iter(())

    def coherence_ops(self, dst: int, src: int, size: int) -> Iterator[Op]:
        """CPU-boundary coherence cost paid before an offloaded copy."""
        return iter(())

    def tracked_bytes(self) -> int:
        """Bytes of copies this backend is currently deferring."""
        return 0

    # ------------------------------------------------------------ helpers
    def _outcome(self, outcome: str) -> None:
        """Record the lifecycle outcome the current copy's span closes
        with (``copied`` / ``deferred`` / ``elided`` / ``cloned`` /
        ``fallback``)."""
        self._last_outcome = outcome
