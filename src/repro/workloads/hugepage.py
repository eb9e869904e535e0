"""Huge-page copy-on-write fault workload (Fig. 18).

An in-memory database snapshots itself by calling ``fork``: the 64MB
dataset (2MB huge pages) becomes copy-on-write.  The parent then updates
random 8-byte elements; each first touch of a huge page takes a COW
fault whose handler copies 2MB.

* Native kernel: the fault handler performs the full 2MB copy eagerly —
  latency spikes of ~2 orders of magnitude.
* (MC)² kernel: ``copy_user_huge_page`` issues ``MCLAZY`` instead
  (kernel path, 2MB contiguity, no per-line CLWB train because the
  hardware writes back any dirty source lines when the packet traverses
  the caches), so the spike is only the fault bookkeeping.

The fault handler's copy engine is any registered backend built for
kernel copies of huge pages (``kernel_page_size=HUGE_PAGE_SIZE``; see
:meth:`repro.copyengine.CopyBackend.kernel_kwargs`).  Per-update
latencies are measured RDTSC-style with retirement markers.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional

from repro import SystemConfig
from repro.common.units import HUGE_PAGE_SIZE, MB
from repro.isa import ops
from repro.os.vm import OperatingSystem
from repro.workloads.common import LatencyRecorder, build_machine, rng


class HugePageCowWorkload:
    """fork + random 8B updates over a huge-page-backed region."""

    def __init__(self, engine_name: str, region_size: int = 64 * MB,
                 num_updates: int = 100,
                 config: Optional[SystemConfig] = None, seed: int = 17):
        self.system, self.engine = build_machine(
            engine_name, config, kernel_page_size=HUGE_PAGE_SIZE)
        self.config = self.system.config
        self.engine_name = engine_name
        self.os = OperatingSystem(self.system)
        self.region_size = region_size
        self.num_updates = num_updates
        self.seed = seed
        self.latencies = LatencyRecorder()

        self.space = self.os.create_space(page_size=HUGE_PAGE_SIZE)
        self.base = 0x40000000  # virtual base
        self.space.map_region(self.base, region_size)
        # Parent initializes the dataset (prefault), then forks.
        for vpage in range(self.base, self.base + region_size,
                           HUGE_PAGE_SIZE):
            frame = self.space.translate(vpage)
            self.system.backing.fill(frame, HUGE_PAGE_SIZE, 0x33)

    def program(self) -> Iterator[ops.Op]:
        """fork, then the measured random-update loop."""
        child, fork_cost = self.os.fork(self.space)
        yield from fork_cost
        random = rng(self.seed)
        for _ in range(self.num_updates):
            offset = random.randrange(self.region_size // 8) * 8
            yield self.latencies.begin()
            yield from self.os.cow_store_ops(
                self.space, self.base + offset, 8, self.engine,
                data=b"\x77" * 8)
            yield ops.mfence()
            yield self.latencies.end()

    def run(self) -> Dict[str, object]:
        """Execute; returns per-access latencies (cycles) in order."""
        finish = self.system.run_program(self.program())
        self.system.drain()
        samples = list(self.latencies.samples)
        return {
            "engine": self.engine_name,
            "cycles": finish,
            "latencies": samples,
            "max_latency": max(samples),
            "min_latency": min(samples),
            "spike_ratio": max(samples) / max(min(samples), 1),
            "cow_faults": self.os.cow_faults,
        }


def run_hugepage_cow(engine_name: str, region_size: int = 64 * MB,
                     num_updates: int = 100,
                     config: Optional[SystemConfig] = None
                     ) -> Dict[str, object]:
    """One Fig. 18 series."""
    return HugePageCowWorkload(engine_name, region_size=region_size,
                               num_updates=num_updates,
                               config=config).run()
