#!/usr/bin/env python3
"""Quickstart: lazy memcpy on the Table I machine.

Builds the paper's simulated system, performs a lazy copy, shows that no
data moved, reads the destination (triggering bounces), and compares the
cost against an eager ``memcpy`` — the essence of Figure 10.

Any registered copy backend can stand in for the lazy side: pass
``--backend rowclone`` (or mirror / zio / eager / mclazy) to time that
mechanism through the same :mod:`repro.copyengine` dispatch the
workloads use.

Run:  python examples/quickstart.py [--backend mclazy]
"""

import argparse

from repro import System, SystemConfig
from repro.common.units import KB
from repro.copyengine import ALIASES, backend_names
from repro.isa import ops
from repro.sw.memcpy import memcpy_lazy_ops
from repro.workloads.common import build_machine

SIZE = 16 * KB


def timed_copy(backend: str) -> int:
    """Cycles to complete one 16KB copy (plus fence) under ``backend``."""
    # Table I machine (with the (MC)² controller only if the backend
    # uses it).
    system, engine = build_machine(backend, SystemConfig())
    src = system.alloc(SIZE, align=16 * KB)
    dst = system.alloc(SIZE, align=16 * KB)
    system.backing.fill(src, SIZE, 0xAB)

    def program():
        yield from engine.copy_ops(dst, src, SIZE)
        yield ops.mfence()

    cycles = system.run_program(program())
    system.drain()
    # Either way, the destination must hold the copied bytes once any
    # deferred state (zio's elided pages) is resolved.
    system.run_program(engine.resolve_ops(dst, SIZE))
    system.drain()
    assert system.read_memory(dst, SIZE) == b"\xAB" * SIZE
    return cycles


def lazy_copy_then_read() -> None:
    """Show the mechanism: tracking, bouncing, resolution."""
    system = System(SystemConfig())
    src = system.alloc(SIZE, align=4096)
    dst = system.alloc(SIZE, align=4096)
    system.backing.fill(src, SIZE, 0x42)

    system.run_program(memcpy_lazy_ops(system, dst, src, SIZE))
    print(f"after memcpy_lazy: CTT tracks {system.ctt.tracked_bytes()} "
          f"bytes in {len(system.ctt)} entr{'y' if len(system.ctt)==1 else 'ies'}; "
          f"destination bytes in DRAM are still stale")

    def reader():
        for off in range(0, SIZE, 64):
            yield ops.load(dst + off, 8)
        yield ops.mfence()

    system.run_program(reader())
    system.drain()
    bounces = sum(int(mc.stats.counters["bounces"].value)
                  for mc in system.controllers)
    print(f"reading the destination bounced {bounces} cachelines to the "
          f"source and resolved them; CTT now holds {len(system.ctt)} "
          f"entries")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--backend", default="mclazy",
        choices=sorted(set(backend_names()) | set(ALIASES)),
        help="copy backend to compare against the eager loop "
             "(default: mclazy)")
    args = parser.parse_args()

    eager = timed_copy("eager")
    other = timed_copy(args.backend)
    print(f"eager memcpy of 16KB:  {eager} cycles ({eager/4:.0f} ns)")
    print(f"{args.backend:8s} copy of 16KB: {other} cycles "
          f"({other/4:.0f} ns)  -> {eager/other:.1f}x faster when the "
          f"copy is not accessed")
    print()
    lazy_copy_then_read()


if __name__ == "__main__":
    main()
