"""Pipe transfer workload (Fig. 19).

A producer sends buffers of a given size to a consumer through a Linux
pipe; each transfer costs two syscalls and two kernel-buffer copies
(:mod:`repro.os.pipes`).  The modified kernel replaces both copies with
``memcpy_lazy``.  The copy engine is any registered backend built for
kernel copies of base pages (``kernel_page_size=PAGE_SIZE``).  Reported
metric matches the paper: throughput in bytes per kilocycle.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional

from repro import SystemConfig
from repro.common.units import CACHELINE_SIZE, PAGE_SIZE
from repro.isa import ops
from repro.os.pipes import Pipe
from repro.workloads.common import (LatencyRecorder, build_machine,
                                    fill_pattern)


class PipeTransferWorkload:
    """Repeated user→kernel→user transfers of one size."""

    def __init__(self, engine_name: str, transfer_size: int,
                 num_transfers: int = 20,
                 consume_fraction: float = 1.0,
                 config: Optional[SystemConfig] = None):
        self.system, self.engine = build_machine(
            engine_name, config, kernel_page_size=PAGE_SIZE)
        self.config = self.system.config
        self.engine_name = engine_name
        self.pipe = Pipe(self.system, self.engine)
        self.transfer_size = transfer_size
        self.num_transfers = num_transfers
        self.consume_fraction = consume_fraction
        self.src = self.system.alloc(transfer_size, align=4096)
        self.dst = self.system.alloc(transfer_size, align=4096)
        fill_pattern(self.system, self.src, transfer_size)
        self.recorder = LatencyRecorder()

    def program(self) -> Iterator[ops.Op]:
        for _ in range(self.num_transfers):
            yield self.recorder.begin()
            yield from self.pipe.transfer_ops(self.src, self.dst,
                                              self.transfer_size)
            # The consumer processes the received buffer — accesses of
            # copied data (for (MC)², these bounce or hit resolved lines).
            consumed = int(self.transfer_size * self.consume_fraction)
            pos = 0
            while pos < consumed:
                yield from self.engine.read_ops(self.dst + pos, 8)
                pos += CACHELINE_SIZE
            yield self.recorder.end()

    def run(self) -> Dict[str, float]:
        """Execute; returns throughput in bytes per kilocycle."""
        self.system.run_program(self.program())
        self.system.drain()
        total_cycles = sum(self.recorder.samples)
        total_bytes = self.transfer_size * self.num_transfers
        return {
            "engine": self.engine_name,
            "transfer_size": self.transfer_size,
            "cycles": total_cycles,
            "bytes_per_kcycle": total_bytes / (total_cycles / 1000.0),
        }


def run_pipe(engine_name: str, transfer_size: int,
             num_transfers: int = 20,
             config: Optional[SystemConfig] = None) -> Dict[str, float]:
    """One Fig. 19 bar."""
    return PipeTransferWorkload(engine_name, transfer_size,
                                num_transfers=num_transfers,
                                config=config).run()
