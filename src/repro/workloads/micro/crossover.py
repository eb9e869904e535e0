"""Microbenchmark: lazy-MC vs in-DRAM copy crossover (Fig. 23 family).

Compares every registered copy backend (eager / mclazy / zio /
rowclone / mirror) on a single copy plus a partial destination read,
across three axes:

* **size** — PSM row copies cost per line while (MC)² CTT insertion is
  O(1) per page-run, so the winner flips as the copy grows;
* **locality** — where the source and destination land in DRAM:
  ``subarray`` (FPM-eligible: ideal layout, row-aligned buffers),
  ``channel`` (channel-congruent but hash-scattered banks: PSM), and
  ``cross`` (incongruent channels: in-DRAM backends must fall back to
  an eager software copy);
* **pressure** — a second core streaming reads through the same
  channels, squeezing the external bus that eager/PSM copies occupy
  but FPM/mirror row copies do not.

All points are independent simulations and fan out through
:func:`~repro.perf.runner.sim_map` (``REPRO_JOBS`` workers + simcache).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro import SystemConfig
from repro.common import params
from repro.common.errors import ConfigError
from repro.common.units import CACHELINE_SIZE, KB, MB
from repro.copyengine import backend_names
from repro.isa import ops
from repro.sw.memcpy import stream_read_ops
from repro.workloads.common import (LatencyRecorder, build_machine,
                                    fill_pattern)

#: Localities the crossover sweep exercises (see module docstring).
LOCALITIES = ("subarray", "channel", "cross")


def run_backend_crossover(backend: str, size: int,
                          locality: str = "subarray",
                          fraction: float = 0.25,
                          pressure: bool = False,
                          config: Optional[SystemConfig] = None,
                          seed: int = 29) -> Dict[str, object]:
    """One crossover point: copy ``size`` bytes, read ``fraction`` back.

    Returns copy latency and destination-access latency separately (the
    lazy mechanisms shift cost from the former to the latter), plus the
    DRAM access count and a functional ``verified`` bit comparing the
    architecturally visible destination against the source.
    """
    if locality not in LOCALITIES:
        raise ConfigError(f"locality must be one of {LOCALITIES}, "
                          f"got {locality!r}")
    config = config or SystemConfig()
    if locality == "subarray":
        # Row-aligned buffers in an ideal (subarray-aware) layout: full
        # destination rows are FPM candidates for rowclone/mirror.
        config = config.with_overrides(inmem_layout="ideal")
    system, engine = build_machine(backend, config)

    # One "local row" spans channels*ROW_BYTES of the physical address
    # space (lines interleave across channels), so aligning to that
    # keeps whole DRAM rows pairwise aligned between src and dst.
    row_span = config.dram_channels * params.DRAM_ROW_BYTES
    src = system.alloc(size + 2 * row_span, align=row_span)
    dst = system.alloc(size + 2 * row_span, align=row_span)
    if locality == "cross":
        # Skew the source by one line: channels no longer line up, so
        # in-DRAM backends take their software fallback path.
        src += CACHELINE_SIZE
    fill_pattern(system, src, size, seed=seed)

    copy_lat = LatencyRecorder()
    access_lat = LatencyRecorder()
    read_bytes = int(size * fraction)

    def program():
        yield copy_lat.begin()
        yield from engine.copy_ops(dst, src, size)
        yield ops.mfence()
        yield copy_lat.end()
        yield access_lat.begin()
        pos = dst
        end = dst + read_bytes
        while pos < end:
            yield from engine.read_ops(pos, 8)
            yield ops.compute(1)     # accumulate into a local
            pos += CACHELINE_SIZE
        yield access_lat.end()

    programs = {0: program()}
    if pressure:
        # An antagonist core streaming its own buffer: pure bandwidth
        # demand on the same channels, no sharing with the copy.
        noise = system.alloc(max(size, 64 * KB), align=4096)
        programs[1] = stream_read_ops(noise, max(size, 64 * KB))
    total = system.run_programs(programs)
    system.drain()

    # Materialize whatever the backend still tracks lazily (zio's elided
    # pages fault in here) so the functional check sees final bytes.
    system.run_program(engine.resolve_ops(dst, size))
    system.drain()

    expected = system.read_memory(src, size)
    got = system.read_memory(dst, size)
    return {
        "backend": backend,
        "size": size,
        "locality": locality,
        "fraction": fraction,
        "pressure": pressure,
        "copy_cycles": copy_lat.samples[0],
        "access_cycles": access_lat.samples[0],
        "total_cycles": total,
        "dram_accesses": system.total_dram_accesses(),
        "verified": got == expected,
    }


def sweep_backend_crossover(
        backends: Optional[Sequence[str]] = None,
        sizes: Sequence[int] = (4 * KB, 64 * KB, 1 * MB),
        localities: Sequence[str] = LOCALITIES,
        fractions: Sequence[float] = (0.25,),
        pressures: Sequence[bool] = (False,),
        config: Optional[SystemConfig] = None
        ) -> List[Dict[str, object]]:
    """The full crossover grid, one row per point, via ``sim_map``.

    ``backends`` defaults to every registered backend.
    """
    from repro.perf.runner import SimPoint, sim_map

    backends = backends or backend_names()

    points = []
    for locality in localities:
        for fraction in fractions:
            for pressure in pressures:
                for size in sizes:
                    for backend in backends:
                        points.append(SimPoint(
                            run_backend_crossover, (backend, size),
                            {"locality": locality, "fraction": fraction,
                             "pressure": pressure, "config": config}))
    return sim_map(points)


def find_crossovers(rows: Sequence[Dict[str, object]],
                    baseline: str = "mclazy",
                    metric: str = "copy_cycles"
                    ) -> List[Dict[str, object]]:
    """Size-axis crossover points between ``baseline`` and each rival.

    A crossover exists where the winner by ``metric`` flips between two
    adjacent sizes within one (locality, fraction, pressure) series.
    Returns one row per flip with both sizes and both backends' values.
    """
    series: Dict[tuple, Dict[int, Dict[str, float]]] = {}
    for row in rows:
        key = (row["locality"], row["fraction"], row["pressure"])
        per_size = series.setdefault(key, {})
        per_size.setdefault(row["size"], {})[row["backend"]] = row[metric]
    out: List[Dict[str, object]] = []
    for (locality, fraction, pressure), per_size in series.items():
        sizes = sorted(per_size)
        for rival in sorted({b for v in per_size.values() for b in v}):
            if rival == baseline:
                continue
            prev = None
            for size in sizes:
                values = per_size[size]
                if baseline not in values or rival not in values:
                    continue
                lead = values[baseline] <= values[rival]
                if prev is not None and lead != prev[1]:
                    out.append({
                        "locality": locality, "fraction": fraction,
                        "pressure": pressure, "rival": rival,
                        "below_size": prev[0], "above_size": size,
                        "winner_below": baseline if prev[1] else rival,
                        "winner_above": baseline if lead else rival,
                    })
                prev = (size, lead)
    return out
