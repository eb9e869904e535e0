"""One benchmark run: closed-loop repetitions of one workload, one thread.

``run.py`` starts this in a fresh interpreter with a clean environment;
run it directly only for debugging::

    PYTHONPATH=src python3 simbench/bench.py --workload seq-lazy \\
        --seed 1 --seconds 36 --trace 0

Each repetition is one operation: build a fresh machine (timed set-up),
run the workload program and drain (timed section), then check memory
and compare every counter with the run's first repetition.  The first
repetition is an untimed warm-up.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced repetitions and
reports the per-layer metrics.  The last line of standard output is the
result as JSON; the exit code is 1 if any repetition failed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from statistics import median
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from calibration import Timing, calibration_loop, timed
from layers import LAYERS, UNATTRIBUTED, LayerTracer, chrome_trace, \
    measure_costs, packet_waits, percentile
from workloads import WORKLOADS, Workload

#: Fewest timed (or traced) repetitions a run makes, however slow.
MIN_REPETITIONS = 3

#: Heaviest boundaries the traced run prints.
BOUNDARY_ROWS = 30

#: Where the traced run writes its Chrome-trace span sample.
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("host_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
    ("sim_cycles", "cycles"))

#: Every per-layer metric, in report order, with its unit.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("sim.events", "count"), ("sim.cycles_per_event", "cycles"),
    ("sim.us_per_event", "us"), ("sim.self_s", "s"), ("sim.share", "ratio"),
    ("cpu.self_s", "s"), ("cpu.share", "ratio"),
    ("cpu.ops_retired", "count"), ("cpu.stall_cycles", "cycles"),
    ("cpu.mem_miss_cycles", "cycles"), ("cpu.sb_full_stalls", "count"),
    ("cache.self_s", "s"), ("cache.share", "ratio"),
    ("cache.l1_hits", "count"), ("cache.l1_misses", "count"),
    ("cache.l2_hits", "count"), ("cache.l2_misses", "count"),
    ("cache.prefetch_useful_ratio", "ratio"), ("cache.writebacks", "count"),
    ("cache.clwbs", "count"),
    ("xbar.self_s", "s"), ("xbar.share", "ratio"), ("xbar.packets", "count"),
    ("xbar.broadcasts", "count"), ("xbar.transit_p50_cycles", "cycles"),
    ("xbar.transit_p99_cycles", "cycles"), ("xbar.transit_samples", "count"),
    ("memctrl.self_s", "s"), ("memctrl.share", "ratio"),
    ("memctrl.reads", "count"), ("memctrl.writes", "count"),
    ("memctrl.write_drains", "count"), ("memctrl.wpq_rejects", "count"),
    ("memctrl.read_service_p50_cycles", "cycles"),
    ("memctrl.read_service_p99_cycles", "cycles"),
    ("memctrl.read_service_samples", "count"),
    ("memctrl.write_service_p50_cycles", "cycles"),
    ("memctrl.write_service_p99_cycles", "cycles"),
    ("memctrl.write_service_samples", "count"),
    ("mcsquare.self_s", "s"), ("mcsquare.share", "ratio"),
    ("mcsquare.ctt_inserts", "count"), ("mcsquare.bounces", "count"),
    ("mcsquare.double_bounces", "count"),
    ("mcsquare.bounce_writebacks", "count"),
    ("mcsquare.bounce_wb_useful_ratio", "ratio"),
    ("mcsquare.bpq_parked", "count"), ("mcsquare.bpq_full_stalls", "count"),
    ("mcsquare.src_write_copies", "count"),
    ("mcsquare.async_copied_lines", "count"),
    ("dram.self_s", "s"), ("dram.share", "ratio"), ("dram.accesses", "count"),
    ("dram.row_hit_ratio", "ratio"), ("dram.row_conflicts", "count"),
    ("dram.bus_utilization", "ratio"),
    ("mem.self_s", "s"), ("mem.share", "ratio"), ("mem.bytes_read", "B"),
    ("mem.bytes_written", "B"),
    ("copyengine.self_s", "s"), ("copyengine.share", "ratio"),
    ("copyengine.copies", "count"), ("copyengine.bytes_requested", "B"),
    ("copyengine.fallback_bytes", "B"),
    ("os.self_s", "s"), ("os.share", "ratio"), ("os.cow_faults", "count"),
    ("system.build_s", "s"),
    ("trace.overhead", "ratio"), ("trace.cost_scale", "ratio"),
    ("trace.unattributed_share", "ratio"),
)


@dataclass
class Sample:
    """The measurements of one successful repetition."""

    setup: Timing
    run: Timing
    sim_cycles: int
    final_cycle: int
    events: int
    stats: Dict[str, float]


class Session:
    """Runs repetitions of one workload and keeps the failure count.

    A repetition fails if it raises, if its memory check fails, or if
    its simulated cycles, event count or any counter differ from the
    first repetition that completed.
    """

    def __init__(self, workload: Workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.reference: Optional[Sample] = None

    def repetition(self, tracer: Optional[LayerTracer] = None
                   ) -> Optional[Sample]:
        """Run one repetition; returns None if it failed."""
        self.attempted += 1
        try:
            sample, problems = self._run(tracer)
        except Exception as exc:  # any raise fails the operation
            sample, problems = None, [f"raised {type(exc).__name__}: {exc}"]
        if sample is not None and not problems:
            problems = self._compare(sample)
        if problems:
            self.failed += 1
            self.problems.extend(f"repetition {self.attempted}: {problem}"
                                 for problem in problems)
            return None
        return sample

    def _run(self, tracer: Optional[LayerTracer]
             ) -> Tuple[Sample, List[str]]:
        rep, setup = timed(self.workload.setup)

        def section() -> int:
            if tracer is None:
                return rep.run()
            tracer.begin_section(rep.system, self.attempted)
            try:
                return rep.run()
            finally:
                tracer.end_section(rep.system)

        cycles, run = timed(section)
        problems = rep.check()
        sim = rep.system.sim
        return Sample(setup, run, cycles, sim.now, sim.events_fired,
                      rep.system.stats.flatten()), problems

    def _compare(self, sample: Sample) -> List[str]:
        ref = self.reference
        if ref is None:
            self.reference = sample
            return []
        problems = [f"{what} {mine} != first repetition's {theirs}"
                    for what, mine, theirs in (
                        ("sim_cycles", sample.sim_cycles, ref.sim_cycles),
                        ("final cycle", sample.final_cycle, ref.final_cycle),
                        ("events", sample.events, ref.events))
                    if mine != theirs]
        changed = sorted(key for key in set(ref.stats) | set(sample.stats)
                         if ref.stats.get(key) != sample.stats.get(key))
        if changed:
            problems.append(f"{len(changed)} counters differ from the first "
                            f"repetition, e.g. {', '.join(changed[:3])}")
        return problems


def peak_rss_mb() -> float:
    """The process's peak resident set so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _keep_going(start: float, seconds: float, done: int,
                min_reps: int) -> bool:
    return time.perf_counter() - start < seconds or done < min_reps


def timed_run(session: Session, seconds: float, own_mb: float,
              min_reps: int = MIN_REPETITIONS
              ) -> Tuple[Dict[str, float], List[str]]:
    """End-to-end metrics from untraced repetitions.  ``own_mb``, the
    benchmark's own memory (calibration pool, inputs), is left out of
    ``peak_rss_mb``."""
    session.repetition()  # untimed warm-up; becomes the reference
    # Only the timings are kept, so memory stays flat however many
    # repetitions run.
    setups: List[Timing] = []
    runs: List[Timing] = []
    start = time.perf_counter()
    attempts = 0
    while _keep_going(start, seconds, attempts, min_reps):
        attempts += 1
        sample = session.repetition()
        if sample is not None:
            setups.append(sample.setup)
            runs.append(sample.run)
    if not runs or session.reference is None:
        return {}, []
    metrics = {
        "host_s": median([t.calibrated_s for t in runs]),
        "setup_s": median([t.calibrated_s for t in setups]),
        "peak_rss_mb": peak_rss_mb() - own_mb,
        "sim_cycles": session.reference.sim_cycles,
    }
    audit = [f"{len(runs)} timed repetitions after 1 warm-up",
             f"peak_rss_mb: process peak {peak_rss_mb():.2f} MB less the "
             f"benchmark's own calibration pool and inputs {own_mb:.2f} MB",
             _audit_row("host_s", runs), _audit_row("setup_s", setups)]
    return metrics, audit


def _audit_row(name: str, timings: Sequence[Timing]) -> str:
    """Medians of the raw readings behind one calibrated metric."""
    def med(attr: str) -> float:
        return median([getattr(t, attr) for t in timings])
    return (f"{name}: calibrated {med('calibrated_s'):.6f} s | raw wall "
            f"{med('wall_s'):.6f} s, cpu {med('cpu_s'):.6f} s, calibration "
            f"before {med('cal_before_s'):.6f} s, after "
            f"{med('cal_after_s'):.6f} s")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _sum(stats: Dict[str, float], prefix: str, suffix: str) -> float:
    """Sum of the counters named ``prefix*suffix`` (cores, channels)."""
    return sum(value for key, value in stats.items()
               if key.startswith(prefix) and key.endswith(suffix))


def counter_metrics(ref: Sample) -> Dict[str, float]:
    """Per-layer work counts from the flattened stats tree."""
    st = ref.stats
    channels = sum(1 for key in st
                   if key.startswith("mc") and key.endswith(".dram.accesses"))
    wb = _sum(st, "mc", ".bounce_writebacks")
    wb_tried = (wb + _sum(st, "mc", ".bounce_wb_rejected")
                + _sum(st, "mc", ".bounce_dropped"))
    accesses = _sum(st, "mc", ".dram.accesses")
    return {
        "cpu.ops_retired": _sum(st, "core", ".ops_retired"),
        "cpu.stall_cycles": _sum(st, "core", ".stall_cycles"),
        "cpu.mem_miss_cycles": _sum(st, "core", ".mem_miss_cycles"),
        "cpu.sb_full_stalls": _sum(st, "core", ".sb_full_stalls"),
        "cache.l1_hits": _sum(st, "caches.l1_", ".hits"),
        "cache.l1_misses": _sum(st, "caches.l1_", ".misses"),
        "cache.l2_hits": st.get("caches.l2.hits", 0),
        "cache.l2_misses": st.get("caches.l2.misses", 0),
        "cache.prefetch_useful_ratio": _ratio(
            st.get("caches.prefetch_useful", 0),
            st.get("caches.prefetcher.issued", 0)),
        "cache.writebacks": st.get("caches.writebacks", 0),
        "cache.clwbs": st.get("caches.clwbs", 0),
        "xbar.packets": st.get("xbar.packets", 0),
        "xbar.broadcasts": st.get("xbar.broadcasts", 0),
        "memctrl.reads": _sum(st, "mc", ".reads"),
        "memctrl.writes": _sum(st, "mc", ".writes"),
        "memctrl.write_drains": _sum(st, "mc", ".write_drains"),
        "memctrl.wpq_rejects": _sum(st, "mc", ".wpq_rejects"),
        "mcsquare.ctt_inserts": st.get("ctt.inserts", 0),
        "mcsquare.bounces": _sum(st, "mc", ".bounces"),
        "mcsquare.double_bounces": _sum(st, "mc", ".double_bounces"),
        "mcsquare.bounce_writebacks": wb,
        "mcsquare.bounce_wb_useful_ratio": _ratio(wb, wb_tried),
        "mcsquare.bpq_parked": _sum(st, "mc", ".bpq.parked"),
        "mcsquare.bpq_full_stalls": _sum(st, "mc", ".bpq.full_stalls"),
        "mcsquare.src_write_copies": _sum(st, "mc", ".src_write_copies"),
        "mcsquare.async_copied_lines": _sum(st, "mc", ".async_copied_lines"),
        "dram.accesses": accesses,
        "dram.row_hit_ratio": _ratio(_sum(st, "mc", ".dram.row_hits"),
                                     accesses),
        "dram.row_conflicts": _sum(st, "mc", ".dram.row_conflicts"),
        "dram.bus_utilization": _ratio(_sum(st, "mc", ".dram.bus_busy_cycles"),
                                       channels * ref.final_cycle),
        "copyengine.copies": _sum(st, "copyengine.", ".copies"),
        "copyengine.bytes_requested": _sum(st, "copyengine.",
                                           ".bytes_requested"),
        "copyengine.fallback_bytes": _sum(st, "copyengine.",
                                          ".fallback_bytes"),
    }


def wait_metrics(waits: Dict[str, List[int]]) -> Dict[str, float]:
    """p50/p99 and sample counts of the captured simulated waits."""
    out: Dict[str, float] = {}
    for kind, prefix in (("transit", "xbar.transit"),
                         ("read_service", "memctrl.read_service"),
                         ("write_service", "memctrl.write_service")):
        values = waits[kind]
        out[f"{prefix}_p50_cycles"] = percentile(values, 50)
        out[f"{prefix}_p99_cycles"] = percentile(values, 99)
        out[f"{prefix}_samples"] = len(values)
    return out


def traced_run(session: Session, seconds: float,
               min_reps: int = MIN_REPETITIONS
               ) -> Tuple[Dict[str, float], List[str], LayerTracer]:
    """Per-layer metrics: untraced and traced repetitions alternate, so
    the tracing overhead is measured under the same machine phase.  Each
    traced repetition is preceded by a probe of the tracer's per-frame
    bookkeeping cost, which its layers' self times then leave out."""
    session.repetition()  # untimed, untraced warm-up; the reference
    tracer = LayerTracer()
    # Run sections of the untraced and the traced repetitions.
    plain: List[Timing] = []
    traced: List[Timing] = []
    # Per traced repetition and layer: self seconds, and the bookkeeping
    # seconds kept out of them.
    own: List[Dict[str, float]] = []
    kept: List[Dict[str, float]] = []
    builds: List[float] = []
    start = time.perf_counter()
    rounds = 0
    while _keep_going(start, seconds, rounds, min_reps):
        rounds += 1
        sample = session.repetition()
        if sample is not None:
            plain.append(sample.run)
        tracer.set_costs(measure_costs())
        before = tracer.layer_totals()
        built = len(tracer.build_s)
        with tracer:
            sample = session.repetition(tracer)
        if sample is None:
            continue
        traced.append(sample.run)
        scale = sample.run.calibrated_s / sample.run.wall_s
        after = tracer.layer_totals()
        for out, i in ((own, 0), (kept, 1)):
            out.append({layer: (after[layer][i] - before[layer][i]) * scale
                        for layer in after})
        scale = sample.setup.calibrated_s / sample.setup.wall_s
        builds.extend(raw * scale for raw in tracer.build_s[built:])
    if not plain or not traced or session.reference is None:
        return {}, [], tracer
    ref = session.reference
    metrics: Dict[str, float] = {
        "sim.events": ref.events,
        "sim.cycles_per_event": _ratio(ref.final_cycle, ref.events),
    }
    plain_s = median([t.calibrated_s for t in plain])
    metrics["sim.us_per_event"] = _ratio(plain_s * 1e6, ref.events)
    # The probes run tight, cache-warm loops, and a frame costs more in
    # the middle of a simulation.  Scale each repetition's probed costs so
    # the bookkeeping kept out is its measured tracing overhead.
    scales = [_ratio(run.calibrated_s - plain_s, sum(theirs.values()))
              for run, theirs in zip(traced, kept)]
    layer_s = [{layer: mine[layer] - (scale - 1.0) * theirs[layer]
                for layer in mine}
               for mine, theirs, scale in zip(own, kept, scales)]
    attributed = [sum(rep.values()) for rep in layer_s]
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = median([rep[layer] for rep in layer_s])
        metrics[f"{layer}.share"] = median(
            [_ratio(rep[layer], total)
             for rep, total in zip(layer_s, attributed)])
    metrics.update(counter_metrics(ref))
    # Simulated waits are deterministic: the last traced section's
    # packets stand for every repetition.
    metrics.update(wait_metrics(packet_waits(tracer.packets)))
    mem_read, mem_written = tracer.mem_bytes
    metrics["mem.bytes_read"] = mem_read / len(traced)
    metrics["mem.bytes_written"] = mem_written / len(traced)
    faults = tracer.boundaries.get("os:OperatingSystem.begin_cow_fault")
    metrics["os.cow_faults"] = (faults[1] if faults else 0) / len(traced)
    metrics["system.build_s"] = median(builds)
    metrics["trace.overhead"] = (
        median([t.calibrated_s for t in traced]) / plain_s - 1.0)
    metrics["trace.cost_scale"] = median(scales)
    metrics["trace.unattributed_share"] = median(
        [_ratio(rep[UNATTRIBUTED], total)
         for rep, total in zip(layer_s, attributed)])
    audit = [f"{len(plain)} untraced and {len(traced)} traced repetitions "
             f"after 1 warm-up",
             "bookkeeping per frame, last probe (outside/inside ns): "
             + ", ".join(f"{kind} {out * 1e9:.0f}/{ins * 1e9:.0f}"
                         for kind, (out, ins) in tracer.costs.items()),
             "probed cost scale per traced repetition: "
             + ", ".join(f"{scale:.3f}" for scale in scales),
             _audit_row("untraced host_s", plain),
             _audit_row("traced host_s", traced)]
    return metrics, audit, tracer


def boundary_table(tracer: LayerTracer) -> List[str]:
    """The heaviest boundaries by self time, summed over traced reps, in
    raw seconds; ``kept_s`` is the probed bookkeeping kept out of
    ``self_s`` (before the per-repetition cost scale)."""
    total = sum(rec[3] for rec in tracer.boundaries.values()) or 1.0
    rows = sorted(tracer.boundaries.items(), key=lambda item: -item[1][3])
    lines = [f"{'boundary':48s} {'layer':>12s} {'calls':>9s} "
             f"{'incl_s':>9s} {'self_s':>9s} {'kept_s':>9s} {'share':>6s}"]
    for name, (layer, calls, incl, self_s, kept) in rows[:BOUNDARY_ROWS]:
        lines.append(f"{name[:48]:48s} {layer:>12s} {calls:>9d} "
                     f"{incl:>9.4f} {self_s:>9.4f} {kept:>9.4f} "
                     f"{self_s / total:>6.1%}")
    return lines


def write_span_sample(tracer: LayerTracer, path: str, workload: str
                      ) -> List[str]:
    """Validate the span sample and write it to ``path``; returns the
    validator's problems (nothing is written if there are any)."""
    from repro.obs.export import validate_chrome_trace, write_chrome_trace
    trace = chrome_trace(tracer.spans, workload)
    problems = validate_chrome_trace(trace)
    if not problems:
        write_chrome_trace(trace, path)
    return [f"span sample: {problem}" for problem in problems]


def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(args: argparse.Namespace, sizes: Optional[Dict[str, int]] = None,
        min_reps: int = MIN_REPETITIONS, out_dir: str = OUT_DIR
        ) -> Dict[str, object]:
    """Run one benchmark and print its report; returns the result object.

    ``sizes`` overrides the workload's input sizes and ``min_reps`` the
    repetition floor (the smoke tests use tiny values of both).
    """
    startup_mb = peak_rss_mb()
    calibration_loop()  # builds the calibration pool
    workload = WORKLOADS[args.workload](args.seed, **(sizes or {}))
    # Until now the process has only grown, so the peak grew by exactly
    # the benchmark's own memory: the calibration pool and the inputs.
    own_mb = peak_rss_mb() - startup_mb
    session = Session(workload)
    print(f"simbench {args.workload} seed {args.seed} trace {args.trace}: "
          f"{workload.why}")
    if args.trace:
        metrics, audit, tracer = traced_run(session, args.seconds, min_reps)
        units = PER_LAYER
        audit += boundary_table(tracer)
        if tracer.spans:
            path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}"
                                         ".trace.json")
            session.problems.extend(
                write_span_sample(tracer, path, args.workload))
            audit.append(f"span sample: {len(tracer.spans)} spans -> {path}")
    else:
        metrics, audit = timed_run(session, args.seconds, own_mb, min_reps)
        audit.append(f"peak resident set before the first machine "
                     f"(interpreter, imports): {startup_mb:.2f} MB")
        units = END_TO_END
    correct = bool(metrics) and session.failed == 0 and not session.problems
    for line in audit + session.problems:
        print(line)
    report = {name: {"value": metrics[name], "unit": unit}
              for name, unit in units if name in metrics}
    for name, entry in report.items():
        print(f"{name:36s} {entry['value']:>18.6f} {entry['unit']}")
    result = {"correct": correct, "attempted": session.attempted,
              "failed": session.failed, "metrics": report}
    print(json.dumps(result))
    return result


def main(argv: Optional[Sequence[str]] = None) -> int:
    result = run(parse_args(argv))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
