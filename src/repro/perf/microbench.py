"""Simulator-speed microbenchmarks (host events/sec, not paper data).

Two measurements, both recorded into ``BENCH_sim.json``:

* :func:`engine_events_per_sec` — the bare event loop draining a
  self-rearming schedule, isolating engine overhead from workload
  callbacks;
* :func:`fig12_point` — one representative exhibit point (sequential
  destination access under (MC)², the hottest benchmark family), whose
  events/sec reflects the end-to-end hot path: engine + cache hierarchy
  + controllers;
* :func:`fig13_point` — the random-access counterpart (a pointer chase
  through the copied buffer), covering the cache-miss-heavy locality
  regime the sequential point never exercises.

:func:`calibrate_ops_per_sec` runs a fixed pure-Python loop so CI can
compare events/sec *ratios* across machines of different speeds: the
gate checks ``events_per_sec / calibration`` against a checked-in
baseline instead of absolute numbers.

:func:`seq_access_stats_point` is the determinism probe: the same
fig12-style simulation returning the full flattened
:class:`~repro.sim.stats.StatGroup`, used by the parallel-determinism
tests to prove worker processes reproduce every counter bit for bit.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.common.units import KB
from repro.perf.hostclock import host_seconds
from repro.sim.engine import Simulator
from repro.system.config import SystemConfig


def engine_events_per_sec(num_events: int = 200_000,
                          trains: int = 4) -> Dict[str, float]:
    """Drain ``num_events`` trivial self-rearming events; report speed."""
    sim = Simulator()
    budget = [num_events]

    def make_callback(period: int):
        def callback() -> None:
            budget[0] -= 1
            if budget[0] > 0:
                sim.schedule(period, callback)
        return callback

    for train in range(trains):
        sim.schedule(train + 1, make_callback(train + 1))
    start = host_seconds()
    sim.run()
    seconds = host_seconds() - start
    fired = sim.events_fired
    return {
        "events": fired,
        "seconds": seconds,
        "events_per_sec": fired / seconds if seconds > 0 else 0.0,
    }


def fig12_point(buffer_size: int = 256 * KB,
                fraction: float = 0.5) -> Dict[str, float]:
    """Time one fig12-style point; events/sec of the full system."""
    result = seq_access_stats_point(buffer_size=buffer_size,
                                    fraction=fraction, with_stats=False,
                                    timed=True)
    return {
        "events": result["events"],
        "cycles": result["cycles"],
        "seconds": result["seconds"],
        "events_per_sec": (result["events"] / result["seconds"]
                           if result["seconds"] > 0 else 0.0),
    }


def fig13_point(buffer_size: int = 256 * KB,
                fraction: float = 0.25) -> Dict[str, float]:
    """Time one fig13-style point; events/sec of the pointer chase."""
    result = rand_access_stats_point(buffer_size=buffer_size,
                                     fraction=fraction, with_stats=False,
                                     timed=True)
    return {
        "events": result["events"],
        "cycles": result["cycles"],
        "seconds": result["seconds"],
        "events_per_sec": (result["events"] / result["seconds"]
                           if result["seconds"] > 0 else 0.0),
    }


def seq_access_stats_point(buffer_size: int = 64 * KB,
                           fraction: float = 0.5,
                           engine_name: str = "mcsquare",
                           with_stats: bool = True,
                           timed: bool = False,
                           profiled: bool = False) -> Dict[str, Any]:
    """Run the fig12 access pattern, returning counters (and stats).

    A copy of the :func:`~repro.workloads.micro.access
    .run_sequential_access` program that additionally exposes
    ``events`` fired and (optionally) every flattened stat — the
    quantities the workload helpers deliberately keep out of their row
    dicts.  Module-level and picklable, so it can ride through
    :func:`~repro.perf.runner.sim_map`.
    """
    from repro.analysis.figures import ACCESS_CONFIG
    from repro.common.units import CACHELINE_SIZE
    from repro.isa import ops
    from repro.workloads.common import (LatencyRecorder, build_machine,
                                        fill_pattern)

    system, engine = build_machine(engine_name, ACCESS_CONFIG)
    if profiled:
        from repro.perf.profile import profile_simulator
        profile_simulator(system.sim)
    src = system.alloc(buffer_size + 4096, align=4096) + 16
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
            yield ops.compute(1)
            pos += CACHELINE_SIZE
        yield recorder.end()

    start = host_seconds() if timed else 0.0
    system.run_program(program())
    system.drain()
    seconds = (host_seconds() - start) if timed else 0.0
    result: Dict[str, Any] = {
        "cycles": recorder.samples[0],
        "events": system.sim.events_fired,
        "seconds": seconds,
    }
    if with_stats:
        result["stats"] = system.stats.flatten()
    if profiled:
        result["label_costs"] = system.sim.label_costs()
    return result


def rand_access_stats_point(buffer_size: int = 64 * KB,
                            fraction: float = 0.25,
                            engine_name: str = "mcsquare",
                            with_stats: bool = True,
                            timed: bool = False,
                            seed: int = 42) -> Dict[str, Any]:
    """Run the fig13 access pattern, returning counters (and stats).

    The random-access sibling of :func:`seq_access_stats_point`: copy
    the buffer, then pointer-chase ``fraction`` of its 8-byte elements
    through blocking loads (each address depends on the previous
    value).  Module-level and picklable for the same reasons.
    """
    import struct

    from repro.analysis.figures import ACCESS_CONFIG
    from repro.workloads.common import LatencyRecorder, build_machine
    from repro.workloads.micro.access import _build_chain

    system, engine = build_machine(engine_name, ACCESS_CONFIG)
    count = buffer_size // 8
    src = system.alloc(buffer_size + 4096, align=4096) + 16
    dst = system.alloc(buffer_size + 4096, align=4096)
    start_index = _build_chain(system, src, count, seed)
    recorder = LatencyRecorder()
    visits = int(count * fraction)

    def program():
        yield recorder.begin()
        yield from engine.copy_ops(dst, src, buffer_size)
        index = start_index
        for _ in range(visits):
            gen = engine.read_ops(dst + index * 8, 8, blocking=True)
            value = None
            for op in gen:
                value = yield op
            index = struct.unpack("<Q", value)[0]
        yield recorder.end()

    start = host_seconds() if timed else 0.0
    system.run_program(program())
    system.drain()
    seconds = (host_seconds() - start) if timed else 0.0
    result: Dict[str, Any] = {
        "cycles": recorder.samples[0],
        "events": system.sim.events_fired,
        "seconds": seconds,
    }
    if with_stats:
        result["stats"] = system.stats.flatten()
    return result


def calibrate_ops_per_sec(iterations: int = 2_000_000) -> float:
    """Host-speed yardstick: a fixed pure-Python accumulate loop."""
    start = host_seconds()
    acc = 0
    for i in range(iterations):
        acc += i & 0xFF
    seconds = host_seconds() - start
    del acc
    return iterations / seconds if seconds > 0 else 0.0


def run_microbench(num_events: int = 200_000,
                   repeats: int = 3,
                   config: Optional[SystemConfig] = None
                   ) -> Dict[str, float]:
    """Best-of-``repeats`` engine and fig12 speeds plus calibration."""
    del config  # reserved for future variants
    engine_best = max((engine_events_per_sec(num_events) for _ in
                       range(repeats)), key=lambda r: r["events_per_sec"])
    fig12_best = max((fig12_point() for _ in range(repeats)),
                     key=lambda r: r["events_per_sec"])
    fig13_best = max((fig13_point() for _ in range(repeats)),
                     key=lambda r: r["events_per_sec"])
    calibration = calibrate_ops_per_sec()
    return {
        "engine_events_per_sec": round(engine_best["events_per_sec"], 1),
        "engine_events": engine_best["events"],
        "fig12_events_per_sec": round(fig12_best["events_per_sec"], 1),
        "fig12_events": fig12_best["events"],
        "fig12_cycles": fig12_best["cycles"],
        "fig13_events_per_sec": round(fig13_best["events_per_sec"], 1),
        "fig13_events": fig13_best["events"],
        "fig13_cycles": fig13_best["cycles"],
        "calibration_ops_per_sec": round(calibration, 1),
        "engine_per_calibration_op": round(
            engine_best["events_per_sec"] / calibration, 4),
        "fig12_per_calibration_op": round(
            fig12_best["events_per_sec"] / calibration, 4),
        "fig13_per_calibration_op": round(
            fig13_best["events_per_sec"] / calibration, 4),
    }
