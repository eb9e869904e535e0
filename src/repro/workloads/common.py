"""Shared workload utilities: machine + copy-engine construction,
deterministic data, timing markers."""

from __future__ import annotations

import random
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.copyengine import CopyBackend, make_backend, needs_ctt
from repro.isa import ops
from repro.isa.ops import Op
from repro.system.config import SystemConfig
from repro.system.system import System


def rng(seed: int = 1234) -> random.Random:
    """A deterministic PRNG; all workloads take explicit seeds."""
    return random.Random(seed)


def fill_pattern(system, addr: int, size: int, seed: int = 7) -> None:
    """Deterministic pseudo-random content (cheap, no RNG per byte)."""
    pattern = bytes((i * 131 + seed * 17) & 0xFF for i in range(256))
    reps = size // 256 + 1
    system.backing.write(addr, (pattern * reps)[:size])


def timestamp(record: Callable[[int], None]) -> Op:
    """A zero-cost marker op whose retirement timestamps program order.

    Because retirement is in order, the marker retires only after every
    older op has completed — a clean region boundary.
    """
    return Op(ops.OpKind.COMPUTE, cycles=0,
              on_retire=lambda op, t: record(t))


class LatencyRecorder:
    """Collects (label, latency) pairs bracketed by marker ops."""

    def __init__(self):
        self.samples: List[int] = []
        self._start: Optional[int] = None

    def begin(self) -> Op:
        """Marker starting a measured region."""
        def _rec(t: int) -> None:
            self._start = t
        return timestamp(_rec)

    def end(self) -> Op:
        """Marker ending a measured region; records the latency."""
        def _rec(t: int) -> None:
            assert self._start is not None, "end() retired before begin()"
            self.samples.append(t - self._start)
            self._start = None
        return timestamp(_rec)


class RegionTracker:
    """Accumulates cycles spent in named program regions (e.g. memcpy)."""

    def __init__(self):
        self.totals: Dict[str, int] = {}
        self._open: Dict[str, int] = {}

    def begin(self, name: str) -> Op:
        def _rec(t: int) -> None:
            self._open[name] = t
        return timestamp(_rec)

    def end(self, name: str) -> Op:
        def _rec(t: int) -> None:
            start = self._open.pop(name)
            self.totals[name] = self.totals.get(name, 0) + (t - start)
        return timestamp(_rec)

    def cycles(self, name: str) -> int:
        """Total cycles attributed to ``name``."""
        return self.totals.get(name, 0)


class NullCopyEngine(CopyBackend):
    """Elides copies entirely and for free.

    Used only to *measure* copy overhead (Fig. 2): runtime(baseline) vs
    runtime(copies removed).  Data correctness is intentionally not
    preserved — destination reads are redirected to the source so access
    patterns stay realistic — which is why it is not a registered
    backend.
    """

    name = "nocopy"

    def __init__(self, system):
        super().__init__(system)
        self._redirect: Dict[int, int] = {}

    def _issue_ops(self, dst: int, src: int, size: int) -> Iterator[Op]:
        self._outcome("elided")
        self._redirect[dst] = src
        return iter(())

    def read_ops(self, addr: int, size: int = 8, blocking: bool = False,
                 on_retire=None):
        base = self._resolve(addr)
        yield ops.load(base, size, blocking=blocking, on_retire=on_retire)

    def _resolve(self, addr: int) -> int:
        for dst, src in self._redirect.items():
            if dst <= addr < dst + (1 << 24):
                # Coarse redirect: good enough for timing-only use.
                return src + (addr - dst) if addr - dst < (1 << 22) else addr
        return addr


def make_engine(name: str, system, **kwargs) -> CopyBackend:
    """The copy engine ``name`` for ``system``.

    Every registered backend name or alias goes through the
    :mod:`repro.copyengine` registry; ``nocopy`` is the
    measurement-only :class:`NullCopyEngine`.
    """
    if name == NullCopyEngine.name:
        return NullCopyEngine(system)
    return make_backend(name, system, **kwargs)


def build_machine(engine_name: str, config: Optional[SystemConfig] = None,
                  **engine_kwargs) -> Tuple[System, CopyBackend]:
    """A fresh machine and its copy engine ``engine_name``.

    Engines that do not use the CTT run on a vanilla controller
    (``mcsquare_enabled=False``), so the baseline, zio and in-DRAM
    variants see the machine the paper's baselines ran on.
    ``engine_kwargs`` go to :func:`make_engine`.
    """
    config = config or SystemConfig()
    if config.mcsquare_enabled and not needs_ctt(engine_name):
        config = config.with_overrides(mcsquare_enabled=False)
    system = System(config)
    return system, make_engine(engine_name, system, **engine_kwargs)
