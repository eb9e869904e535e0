"""Microbenchmarks: destination-access cost after a copy (Figs. 12-13).

Sequential: copy a 4MB source, then stream-read a fraction of the
destination, accumulating values — the serialization-style pattern where
the stride prefetcher hides (MC)² bounce latency.

Random: pointer-chase through the copied buffer (every load's address
depends on the previous value), which defeats prefetching and puts the
bounce latency on the critical path — the case the bounce-writeback
optimization rescues.

Both report runtime normalized to the native-memcpy run, as the paper
plots them.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional

from repro import SystemConfig
from repro.common.units import CACHELINE_SIZE, MB
from repro.isa import ops
from repro.workloads.common import (LatencyRecorder, build_machine,
                                    fill_pattern, rng)


def run_sequential_access(engine_name: str, fraction: float,
                          buffer_size: int = 4 * MB,
                          misalign: int = 16,
                          config: Optional[SystemConfig] = None,
                          ) -> Dict[str, float]:
    """Copy ``buffer_size`` bytes then stream-read ``fraction`` of them.

    ``misalign`` shifts the source so (MC)² pays double bounces, as the
    paper does on purpose; pass 0 for the "[Aligned]" variant and a
    config with ``prefetch_enabled=False`` for "[No prefetch]".
    """
    system, engine = build_machine(engine_name, config)
    src = system.alloc(buffer_size + 4096, align=4096) + misalign
    dst = system.alloc(buffer_size + 4096, align=4096)
    fill_pattern(system, src, buffer_size)
    recorder = LatencyRecorder()
    read_bytes = int(buffer_size * fraction)

    def program():
        yield recorder.begin()
        yield from engine.copy_ops(dst, src, buffer_size)
        pos = dst
        end = dst + read_bytes
        while pos < end:
            yield from engine.read_ops(pos, 8)
            yield ops.compute(1)     # accumulate into a local
            pos += CACHELINE_SIZE
        yield recorder.end()

    system.run_program(program())
    system.drain()
    cycles = recorder.samples[0]
    return {"cycles": cycles, "fraction": fraction, "variant": engine_name}


def sweep_sequential(fractions=(0.0, 0.25, 0.5, 0.75, 1.0),
                     buffer_size: int = 4 * MB,
                     config: Optional[SystemConfig] = None
                     ) -> List[Dict[str, float]]:
    """Fig. 12 series: normalized runtime for every variant.

    Every (fraction, variant) point is independent, so the sweep fans
    out through :func:`~repro.perf.runner.sim_map` (``REPRO_JOBS``
    workers + result cache); the memcpy run doubles as that fraction's
    normalization base, exactly as in the serial sweep.
    """
    from repro.perf.runner import SimPoint, sim_map

    config = config or SystemConfig()
    variants = (
        ("memcpy", "memcpy", {}),
        ("zio", "zio", {}),
        ("mcsquare", "mcsquare", {}),
        ("mcsquare_aligned", "mcsquare", {"misalign": 0}),
        ("mcsquare_noprefetch", "mcsquare",
         {"config": config.with_overrides(prefetch_enabled=False)}),
    )
    points: List[SimPoint] = []
    for fraction in fractions:
        for _label, name, kwargs in variants:
            run_kwargs = dict(buffer_size=buffer_size, config=config)
            run_kwargs.update(kwargs)
            points.append(SimPoint(run_sequential_access,
                                   (name, fraction), run_kwargs))
    results = sim_map(points)
    rows: List[Dict[str, float]] = []
    index = 0
    for fraction in fractions:
        base = results[index]["cycles"]  # memcpy is first per fraction
        for label, _name, _kwargs in variants:
            cycles = results[index]["cycles"]
            rows.append({"fraction": fraction, "variant": label,
                         "cycles": cycles, "normalized": cycles / base})
            index += 1
    return rows


def _build_chain(system, base: int, count: int, seed: int) -> int:
    """Write a random cyclic pointer chain of 8-byte elements.

    Element ``i`` (at ``base + 8*i``) holds the index of the next
    element; every element appears exactly once in the cycle.  Eight
    elements share each cacheline, so lines are revisited — the access
    pattern that makes the paper's bounce-writeback optimization matter
    (Fig. 13).  Returns the start index.
    """
    order = list(range(count))
    rng(seed).shuffle(order)
    payload = bytearray(count * 8)
    for i in range(count):
        cur, nxt = order[i], order[(i + 1) % count]
        payload[cur * 8:cur * 8 + 8] = struct.pack("<Q", nxt)
    system.backing.write(base, bytes(payload))
    return order[0]


def run_random_access(engine_name: str, fraction: float,
                      buffer_size: int = 4 * MB,
                      misalign: int = 16,
                      config: Optional[SystemConfig] = None,
                      seed: int = 42) -> Dict[str, float]:
    """Copy then pointer-chase ``fraction`` of the elements (Fig. 13).

    Pass ``config.with_overrides(bounce_writeback=False)`` for the
    "[No writeback]" ablation and ``misalign=0`` for "[Aligned]".
    """
    system, engine = build_machine(engine_name, config)
    count = buffer_size // 8
    src = system.alloc(buffer_size + 4096, align=4096) + misalign
    dst = system.alloc(buffer_size + 4096, align=4096)
    start = _build_chain(system, src, count, seed)
    recorder = LatencyRecorder()
    visits = int(count * fraction)

    def program():
        yield recorder.begin()
        yield from engine.copy_ops(dst, src, buffer_size)
        index = start
        for _ in range(visits):
            # Blocking load: the next address depends on this value.
            gen = engine.read_ops(dst + index * 8, 8, blocking=True)
            value = None
            for op in gen:
                value = yield op
            index = struct.unpack("<Q", value)[0]
        yield recorder.end()

    system.run_program(program())
    system.drain()
    cycles = recorder.samples[0]
    return {"cycles": cycles, "fraction": fraction, "variant": engine_name}


def sweep_random(fractions=(0.125, 0.25, 0.5, 1.0),
                 buffer_size: int = 4 * MB,
                 config: Optional[SystemConfig] = None
                 ) -> List[Dict[str, float]]:
    """Fig. 13 series: normalized runtime for every variant.

    Fans out through :func:`~repro.perf.runner.sim_map`; see
    :func:`sweep_sequential`.
    """
    from repro.perf.runner import SimPoint, sim_map

    config = config or SystemConfig()
    variants = (
        ("memcpy", "memcpy", {}),
        ("zio", "zio", {}),
        ("mcsquare", "mcsquare", {}),
        ("mcsquare_aligned", "mcsquare", {"misalign": 0}),
        ("mcsquare_nowriteback", "mcsquare",
         {"config": config.with_overrides(bounce_writeback=False)}),
    )
    points: List[SimPoint] = []
    for fraction in fractions:
        for _label, name, kwargs in variants:
            run_kwargs = dict(buffer_size=buffer_size, config=config)
            run_kwargs.update(kwargs)
            points.append(SimPoint(run_random_access,
                                   (name, fraction), run_kwargs))
    results = sim_map(points)
    rows: List[Dict[str, float]] = []
    index = 0
    for fraction in fractions:
        base = results[index]["cycles"]  # memcpy is first per fraction
        for label, _name, _kwargs in variants:
            cycles = results[index]["cycles"]
            rows.append({"fraction": fraction, "variant": label,
                         "cycles": cycles, "normalized": cycles / base})
            index += 1
    return rows
