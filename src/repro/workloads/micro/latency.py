"""Microbenchmark: copy latency vs size (paper Fig. 10 and Fig. 11).

Measures the latency of a single ``memcpy``-equivalent on prefaulted
(memory-resident) buffers for each mechanism, optionally with the source
pre-touched into the caches ("Touched memcpy").

Also provides the Fig. 11 breakdown: how much of ``memcpy_lazy``'s cost
is the per-line CLWB writeback versus sending the MCLAZY packets.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro import System, SystemConfig
from repro.isa import ops
from repro.sw.memcpy import memcpy_lazy_ops, touch_ops
from repro.workloads.common import (LatencyRecorder, build_machine,
                                    fill_pattern)


def measure_copy_latency(engine_name: str, size: int,
                         touched: bool = False,
                         config: Optional[SystemConfig] = None,
                         misalign: int = 0) -> Dict[str, float]:
    """Latency (cycles) of one ``size``-byte copy under ``engine_name``.

    ``touched=True`` pre-reads the source so it is cache-resident.
    ``misalign`` offsets the source relative to the destination line.
    Returns ``{"cycles": ..., "ns": ...}``.
    """
    system, engine = build_machine(engine_name, config)
    src = system.alloc(size + 4096, align=4096) + misalign
    dst = system.alloc(size + 4096, align=4096)
    fill_pattern(system, src, size)
    recorder = LatencyRecorder()

    def program():
        if touched:
            yield from touch_ops(src, size)
            yield ops.mfence()
        yield recorder.begin()
        yield from engine.copy_ops(dst, src, size)
        yield recorder.end()

    system.run_program(program())
    system.drain()
    cycles = recorder.samples[0]
    return {"cycles": cycles, "ns": cycles / system.config.clock_ghz}


def measure_lazy_breakdown(size: int,
                           config: Optional[SystemConfig] = None
                           ) -> Dict[str, float]:
    """Fig. 11: split ``memcpy_lazy`` cost into writeback vs packet send.

    Three timed runs on identical machines: full wrapper, CLWB-only, and
    MCLAZY-only; the two components are reported as fractions of their
    sum (the paper's stacked-percentage presentation).
    """
    config = config or SystemConfig()

    def timed(clwb_only: bool, mclazy_only: bool) -> int:
        system = System(config)
        src = system.alloc(size, align=4096)
        dst = system.alloc(size, align=4096)
        fill_pattern(system, src, size)
        recorder = LatencyRecorder()

        def program():
            yield recorder.begin()
            if clwb_only:
                for line in range(src, src + size, 64):
                    yield ops.clwb(line)
                yield ops.mfence()
            elif mclazy_only:
                yield from memcpy_lazy_ops(system, dst, src, size,
                                           clwb_sources=False)
            else:
                yield from memcpy_lazy_ops(system, dst, src, size)
            yield recorder.end()

        system.run_program(program())
        return recorder.samples[0]

    writeback = timed(clwb_only=True, mclazy_only=False)
    packet = timed(clwb_only=False, mclazy_only=True)
    total = max(writeback + packet, 1)
    return {
        "total_cycles": timed(False, False),
        "writeback_cycles": writeback,
        "packet_cycles": packet,
        "writeback_frac": writeback / total,
        "packet_frac": packet / total,
    }


def sweep_copy_latency(sizes: List[int],
                       engines: List[str] = ("memcpy", "zio", "mcsquare"),
                       include_touched: bool = True,
                       config: Optional[SystemConfig] = None
                       ) -> List[Dict[str, object]]:
    """Fig. 10 rows: one dict per (size, variant) with latency in ns."""
    from repro.perf.runner import SimPoint, sim_map

    points: List[SimPoint] = []
    labels: List[Dict[str, object]] = []
    for size in sizes:
        for engine in engines:
            points.append(SimPoint(measure_copy_latency, (engine, size),
                                   {"config": config}))
            labels.append({"size": size, "variant": engine})
        if include_touched:
            points.append(SimPoint(measure_copy_latency, ("memcpy", size),
                                   {"touched": True, "config": config}))
            labels.append({"size": size, "variant": "touched_memcpy"})
    results = sim_map(points)
    return [{**label, **result} for label, result in zip(labels, results)]
