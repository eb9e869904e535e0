"""Figure/table builders: one function per paper exhibit.

Each ``figureNN`` function runs the relevant workload sweep and returns a
list of row dicts shaped like the paper's plotted series; ``format_rows``
renders them as an aligned text table (the benchmark harness prints
these).  Sizes/iteration counts default to scaled-down values that keep
a full run tractable in pure Python while preserving the trends; the
benchmark harness passes larger parameters when ``REPRO_SCALE=full``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.common.units import KB, MB, pretty_size
from repro.system.config import SystemConfig


def format_rows(rows: Sequence[Dict[str, object]],
                columns: Optional[Sequence[str]] = None) -> str:
    """Render row dicts as an aligned text table."""
    if not rows:
        return "(no rows)"
    columns = list(columns or rows[0].keys())
    widths = {c: max(len(str(c)),
                     *(len(_fmt(r.get(c))) for r in rows)) for c in columns}
    lines = ["  ".join(str(c).ljust(widths[c]) for c in columns)]
    for r in rows:
        lines.append("  ".join(_fmt(r.get(c)).ljust(widths[c])
                               for c in columns))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}" if abs(value) < 1000 else f"{value:.0f}"
    return str(value)


# ---------------------------------------------------------------- Fig. 2
def figure2(num_ops: int = 12) -> List[Dict[str, object]]:
    """Copy overhead (%) in four use cases.

    Methodology: run each workload, attribute cycles to its copy regions
    (baseline vs copies-elided runs where region markers are impractical).
    """
    from repro.perf.runner import SimPoint, sim_map
    from repro.workloads.protobuf import run_protobuf
    from repro.workloads.mongo import run_mongo
    from repro.workloads.mvcc import run_mvcc
    from repro.workloads.hugepage import run_hugepage_cow

    proto, mongo_base, mongo_free, mvcc_base, mvcc_free, cow = sim_map([
        SimPoint(run_protobuf, ("memcpy",), {"num_ops": num_ops}),
        SimPoint(run_mongo, ("memcpy",),
                 {"num_inserts": 3, "field_size": 32 * KB}),
        SimPoint(run_mongo, ("nocopy",),
                 {"num_inserts": 3, "field_size": 32 * KB}),
        SimPoint(run_mvcc, ("memcpy", 0.0625), {"txns_per_thread": 20}),
        SimPoint(run_mvcc, ("nocopy", 0.0625), {"txns_per_thread": 20}),
        SimPoint(run_hugepage_cow, ("native",),
                 {"region_size": 8 * MB, "num_updates": 8}),
    ])
    rows: List[Dict[str, object]] = []
    rows.append({"workload": "Protobuf",
                 "copy_overhead_pct": 100.0 * proto["copy_fraction"]})
    rows.append({"workload": "MongoDB inserts",
                 "copy_overhead_pct": 100.0 * (1 - mongo_free["cycles"]
                                               / mongo_base["cycles"])})
    rows.append({"workload": "Cicada writes",
                 "copy_overhead_pct": 100.0 * (1 - mvcc_free["cycles"]
                                               / mvcc_base["cycles"])})
    # Fault cost is dominated by the 2MB copy; overhead = copy / fault.
    from repro.common import params
    fault = max(s for s in cow["latencies"])
    copy_part = fault - params.PAGE_FAULT_CYCLES
    rows.append({"workload": "Fork + COW fault",
                 "copy_overhead_pct": 100.0 * copy_part / fault})
    return rows


# ---------------------------------------------------------------- Fig. 3
def figure3(num_ops: int = 20) -> List[Dict[str, object]]:
    """Source of Protobuf memcpy overhead: miss and stall fractions."""
    from repro.workloads.protobuf import run_protobuf

    r = run_protobuf("memcpy", num_ops=num_ops)
    total_lookups = max(r["l1_hits"] + r["l1_misses"], 1)
    return [
        {"metric": "Cache miss",
         "pct": 100.0 * r["l1_misses"] / total_lookups},
        {"metric": "Mem miss cycles",
         "pct": 100.0 * r["mem_miss_cycles"] / max(r["cycles"], 1)},
        {"metric": "Mem miss stall cycles",
         "pct": 100.0 * r["stall_cycles"] / max(r["cycles"], 1)},
    ]


# ---------------------------------------------------------------- Fig. 4
def figure4() -> List[Dict[str, object]]:
    """Distribution of Protobuf memcpy sizes (CDF)."""
    from repro.workloads.protobuf import size_distribution

    return [{"size": pretty_size(s), "cumulative_pct": 100.0 * c}
            for s, c in size_distribution()]


# --------------------------------------------------------------- Fig. 10
def figure10(sizes: Optional[Sequence[int]] = None
             ) -> List[Dict[str, object]]:
    """Copy latency: memcpy, zIO, touched memcpy, (MC)²."""
    from repro.workloads.micro.latency import sweep_copy_latency

    sizes = list(sizes or (64, 256, 1 * KB, 4 * KB, 16 * KB, 64 * KB,
                           256 * KB, 1 * MB, 4 * MB))
    rows = sweep_copy_latency(sizes)
    return [{"size": pretty_size(r["size"]), "variant": r["variant"],
             "latency_ns": r["ns"]} for r in rows]


# --------------------------------------------------------------- Fig. 11
def figure11(sizes: Optional[Sequence[int]] = None
             ) -> List[Dict[str, object]]:
    """memcpy_lazy overhead breakdown: writeback vs packet."""
    from repro.perf.runner import SimPoint, sim_map
    from repro.workloads.micro.latency import measure_lazy_breakdown

    sizes = list(sizes or (64, 256, 1 * KB, 4 * KB, 16 * KB, 64 * KB,
                           256 * KB, 1 * MB, 4 * MB))
    results = sim_map([SimPoint(measure_lazy_breakdown, (size,))
                       for size in sizes])
    return [{"size": pretty_size(size),
             "writeback_pct": 100.0 * b["writeback_frac"],
             "packet_pct": 100.0 * b["packet_frac"]}
            for size, b in zip(sizes, results)]


#: Scaled config for the access microbenchmarks: the paper copies 4MB on
#: a 2MB LLC (buffer = 2x LLC); we keep that ratio at 1/4 the size so the
#: sweeps run in minutes instead of hours.
ACCESS_CONFIG = SystemConfig(l1_size=32 * KB, l2_size=512 * KB)
ACCESS_BUFFER = 1 * MB


# --------------------------------------------------------------- Fig. 12
def figure12(buffer_size: int = ACCESS_BUFFER,
             config: Optional[SystemConfig] = None
             ) -> List[Dict[str, object]]:
    """Sequential destination access: normalized runtimes."""
    from repro.workloads.micro.access import sweep_sequential

    return [{"fraction": r["fraction"], "variant": r["variant"],
             "normalized_runtime": r["normalized"]}
            for r in sweep_sequential(buffer_size=buffer_size,
                                      config=config or ACCESS_CONFIG)]


# --------------------------------------------------------------- Fig. 13
def figure13(buffer_size: int = ACCESS_BUFFER,
             config: Optional[SystemConfig] = None
             ) -> List[Dict[str, object]]:
    """Random (pointer-chase) destination access: normalized runtimes."""
    from repro.workloads.micro.access import sweep_random

    return [{"fraction": r["fraction"], "variant": r["variant"],
             "normalized_runtime": r["normalized"]}
            for r in sweep_random(buffer_size=buffer_size,
                                  config=config or ACCESS_CONFIG)]


# --------------------------------------------------------------- Fig. 14
def figure14(num_ops: int = 40) -> List[Dict[str, object]]:
    """Protobuf runtime: baseline vs zIO vs (MC)²."""
    from repro.perf.runner import SimPoint, sim_map
    from repro.workloads.protobuf import run_protobuf

    engines = ("memcpy", "zio", "mcsquare")
    results = sim_map([SimPoint(run_protobuf, (engine,),
                                {"num_ops": num_ops})
                       for engine in engines])
    base = results[0]["cycles"]
    return [{"variant": engine, "runtime_ms": r["ms"],
             "speedup_vs_baseline": base / r["cycles"]}
            for engine, r in zip(engines, results)]


# --------------------------------------------------------------- Fig. 15
def figure15(num_inserts: int = 6,
             field_size: int = 50 * KB) -> List[Dict[str, object]]:
    """MongoDB average insert latency."""
    from repro.perf.runner import SimPoint, sim_map
    from repro.workloads.mongo import run_mongo

    engines = ("memcpy", "zio", "mcsquare")
    results = sim_map([SimPoint(run_mongo, (engine,),
                                {"num_inserts": num_inserts,
                                 "field_size": field_size})
                       for engine in engines])
    base = results[0]["avg_insert_latency_cycles"]
    return [{
        "variant": engine,
        "avg_latency_ms": r["avg_insert_latency_ms"],
        "vs_baseline": r["avg_insert_latency_cycles"] / base,
    } for engine, r in zip(engines, results)]


# ---------------------------------------------------------- Figs. 16/17
def figure16(threads: int = 1, txns: int = 30) -> List[Dict[str, object]]:
    """MVCC read-modify-write throughput vs fraction updated."""
    return _mvcc_sweep("rmw", threads, txns,
                       engines=("memcpy", "mcsquare"))


def figure17(threads: int = 1, txns: int = 30) -> List[Dict[str, object]]:
    """MVCC write-only throughput (incl. non-temporal variant)."""
    from repro.perf.runner import SimPoint, sim_map
    from repro.workloads.mvcc import run_mvcc

    rows = _mvcc_sweep("write", threads, txns,
                       engines=("memcpy", "mcsquare"))
    fractions = (0.0625, 0.125, 0.25, 0.5, 1.0)
    results = sim_map([SimPoint(run_mvcc, ("mcsquare", fraction),
                                {"num_threads": threads,
                                 "update_kind": "write_nt",
                                 "txns_per_thread": txns})
                       for fraction in fractions])
    rows.extend({"fraction": fraction,
                 "variant": "mcsquare_nontemporal",
                 "kops_per_sec": r["kops_per_sec"]}
                for fraction, r in zip(fractions, results))
    return rows


def _mvcc_sweep(kind: str, threads: int, txns: int,
                engines=("memcpy", "mcsquare")) -> List[Dict[str, object]]:
    from repro.perf.runner import SimPoint, sim_map
    from repro.workloads.mvcc import run_mvcc

    grid = [(fraction, engine)
            for fraction in (0.0625, 0.125, 0.25, 0.5, 1.0)
            for engine in engines]
    results = sim_map([SimPoint(run_mvcc, (engine, fraction),
                                {"num_threads": threads,
                                 "update_kind": kind,
                                 "txns_per_thread": txns})
                       for fraction, engine in grid])
    return [{"fraction": fraction, "variant": engine,
             "kops_per_sec": r["kops_per_sec"]}
            for (fraction, engine), r in zip(grid, results)]


# --------------------------------------------------------------- Fig. 18
def figure18(region_size: int = 16 * MB,
             num_updates: int = 60) -> List[Dict[str, object]]:
    """Huge-page COW write latencies, access by access."""
    from repro.perf.runner import SimPoint, sim_map
    from repro.workloads.hugepage import run_hugepage_cow

    results = sim_map([SimPoint(run_hugepage_cow, (engine,),
                                {"region_size": region_size,
                                 "num_updates": num_updates})
                       for engine in ("native", "mcsquare")])
    rows: List[Dict[str, object]] = []
    for r in results:
        for i, lat in enumerate(r["latencies"]):
            rows.append({"access": i, "variant": r["engine"],
                         "cycles": lat})
    return rows


# --------------------------------------------------------------- Fig. 19
def figure19(num_transfers: int = 10) -> List[Dict[str, object]]:
    """Pipe transfer throughput by size."""
    from repro.perf.runner import SimPoint, sim_map
    from repro.workloads.pipe import run_pipe

    grid = [(size, engine)
            for size in (1 * KB, 2 * KB, 4 * KB, 8 * KB, 16 * KB)
            for engine in ("native", "mcsquare")]
    results = sim_map([SimPoint(run_pipe, (engine, size),
                                {"num_transfers": num_transfers})
                       for size, engine in grid])
    return [{"size": pretty_size(size), "variant": r["engine"],
             "bytes_per_kcycle": r["bytes_per_kcycle"]}
            for (size, _engine), r in zip(grid, results)]


# --------------------------------------------------------------- Fig. 20
def figure20(num_ops: int = 30,
             entries_list=(8, 16, 64)) -> List[Dict[str, object]]:
    """Protobuf sweep over CTT entries × copy threshold.

    Scaled: the paper's full workload keeps thousands of prospective
    copies live, so it sweeps 1,024-4,096 entries; our scaled run keeps
    tens live, so the sweep covers 8-64 entries — the same two regimes
    (too-small table + high threshold stalls the CPU; a low threshold
    avoids stalls at the price of unnecessary copying).
    """
    from repro.perf.runner import SimPoint, sim_map
    from repro.workloads.protobuf import run_protobuf

    grid = [(entries, threshold)
            for entries in entries_list
            for threshold in (0.25, 0.5, 0.9)]
    results = sim_map([
        SimPoint(run_protobuf, ("mcsquare",),
                 {"num_ops": num_ops,
                  "config": SystemConfig(ctt_entries=entries,
                                         copy_threshold=threshold)})
        for entries, threshold in grid])
    rows = [{
        "ctt_entries": entries, "threshold": threshold,
        "runtime_ms": r["ms"],
        "ctt_full_stall_cycles": r["ctt_full_stall_cycles"],
    } for (entries, threshold), r in zip(grid, results)]
    stalls = [r["ctt_full_stall_cycles"] for r in rows]
    lo, hi = min(stalls), max(stalls)
    for r in rows:
        r["stalls_normalized"] = (
            0.0 if hi == lo
            else (r["ctt_full_stall_cycles"] - lo) / (hi - lo))
    return rows


# --------------------------------------------------------------- Fig. 21
def figure21() -> List[Dict[str, object]]:
    """Source-overwrite runtime vs BPQ entries."""
    from repro.workloads.micro.srcwrite import sweep_bpq

    return [{"buffer": pretty_size(r["buffer_size"]),
             "bpq_entries": r["bpq_entries"],
             "normalized_runtime": r["normalized"]}
            for r in sweep_bpq()]


# --------------------------------------------------------------- Fig. 22
def figure22(txns: int = 20) -> List[Dict[str, object]]:
    """MVCC speedup vs threads × parallel CTT frees."""
    from repro.perf.runner import SimPoint, sim_map
    from repro.workloads.mvcc import run_mvcc

    # Scaled CTT (32 entries for this workload's tens of live copies,
    # mirroring the paper's thousands against 2,048 entries) so that the
    # table actually fills at high thread counts.
    thread_counts = (1, 2, 4, 8)
    frees_list = (1, 2, 4, 8)
    points = []
    for threads in thread_counts:
        points.append(SimPoint(run_mvcc, ("memcpy", 0.125),
                               {"num_threads": threads,
                                "txns_per_thread": txns}))
        for frees in frees_list:
            config = SystemConfig(ctt_entries=32, parallel_frees=frees)
            points.append(SimPoint(run_mvcc, ("mcsquare", 0.125),
                                   {"num_threads": threads,
                                    "txns_per_thread": txns,
                                    "config": config}))
    results = sim_map(points)
    rows = []
    index = 0
    for threads in thread_counts:
        base = results[index]["kops_per_sec"]
        index += 1
        for frees in frees_list:
            rows.append({"threads": threads, "parallel_frees": frees,
                         "normalized_throughput":
                         results[index]["kops_per_sec"] / base})
            index += 1
    return rows


# --------------------------------------------------------------- Fig. 23
def figure23(sizes: Optional[Sequence[int]] = None,
             localities: Optional[Sequence[str]] = None,
             fractions: Sequence[float] = (0.25,),
             pressures: Sequence[bool] = (False,),
             backends: Optional[Sequence[str]] = None,
             config: Optional[SystemConfig] = None
             ) -> List[Dict[str, object]]:
    """Copy-backend crossover: lazy MC vs in-DRAM vs software copies.

    Extension figure (not in the paper): every registered backend on the
    crossover grid, with per-point copy latency, destination-access
    latency, end-to-end cycles and DRAM traffic.  ``find_crossovers``
    locates where the winner flips along the size axis.
    """
    from repro.workloads.micro.crossover import (LOCALITIES,
                                                 sweep_backend_crossover)

    rows = sweep_backend_crossover(
        backends=backends,
        sizes=sizes or (4 * KB, 16 * KB, 64 * KB, 256 * KB),
        localities=localities or LOCALITIES,
        fractions=fractions,
        pressures=pressures,
        config=config or ACCESS_CONFIG)
    return [{"backend": r["backend"], "size": pretty_size(r["size"]),
             "locality": r["locality"], "fraction": r["fraction"],
             "pressure": r["pressure"],
             "copy_cycles": r["copy_cycles"],
             "access_cycles": r["access_cycles"],
             "total_cycles": r["total_cycles"],
             "dram_accesses": r["dram_accesses"],
             "verified": r["verified"],
             "size_bytes": r["size"]}
            for r in rows]


# --------------------------------------------------------------- Table I
def table1() -> List[Dict[str, object]]:
    """The simulated configuration (constants check)."""
    from repro.common import params

    cfg = SystemConfig()
    return [
        {"parameter": "CPUs", "value": cfg.num_cpus},
        {"parameter": "Clock speed", "value": f"{cfg.clock_ghz} GHz"},
        {"parameter": "Private L1 cache",
         "value": f"{pretty_size(cfg.l1_size)}/CPU, stride prefetcher"},
        {"parameter": "Shared L2 cache",
         "value": f"{pretty_size(cfg.l2_size)}, stride prefetcher"},
        {"parameter": "DRAM size", "value": pretty_size(cfg.dram_size)},
        {"parameter": "DRAM channels", "value": cfg.dram_channels},
        {"parameter": "BPQ size", "value": f"{cfg.bpq_entries} entries"},
        {"parameter": "CTT entries", "value": cfg.ctt_entries},
        {"parameter": "CTT latency",
         "value": f"{params.CTT_LATENCY_NS} ns"},
        {"parameter": "CTT area", "value": f"{params.CTT_AREA_MM2} mm^2"},
        {"parameter": "CTT leakage",
         "value": f"{params.CTT_LEAKAGE_MW} mW"},
    ]
