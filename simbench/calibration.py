"""Calibrated host timing: cancel the machine's busy phases out of a timing.

On a shared VM a fixed pure-Python loop can run up to 1.8x slower for
seconds at a time while neighbours are busy.  A timed section is
therefore bracketed by a fixed calibration loop run just before and just
after it, and reported as::

    calibrated = wall * REFERENCE_S / mean(cal_before, cal_after)

A slow phase stretches the section and both calibration loops alike, so
it cancels.  The loop imports nothing from ``repro``: a change to the
simulator can never move the yardstick it is measured against.
"""

from __future__ import annotations

import gc
import heapq
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple, TypeVar

#: :func:`calibration_loop` seconds on the reference machine (a 2-vCPU
#: x86-64 VM running CPython 3.11.7) in its fast phases, measured between
#: benchmark repetitions.  Calibrated seconds are "seconds on that
#: machine when it is not contended"; the value only sets the scale.
REFERENCE_S = 0.025

#: Events one calibration loop fires: about :data:`REFERENCE_S`, short
#: beside every timed section but long enough to average over timer and
#: scheduler jitter.
CALIBRATION_EVENTS = 10_000

#: Objects the calibration events touch.  About 8 MB, well past a core's
#: private caches, so the loop feels a neighbour's pressure on the
#: shared cache the way the simulator's heap does.
POOL_OBJECTS = 100_000

T = TypeVar("T")


class _Line:
    __slots__ = ("tag", "hits")

    def __init__(self, tag: int):
        self.tag = tag
        self.hits = tag & 7


_pool: List[_Line] = []


def _objects() -> List[_Line]:
    if not _pool:
        _pool.extend(_Line(i) for i in range(POOL_OBJECTS))
    return _pool


def calibration_kernel(events: int = CALIBRATION_EVENTS) -> int:
    """A miniature discrete-event loop shaped like the simulator's hot
    path: a timestamp-ordered queue of closures, each of which reads an
    object scattered across a large heap and updates a dict.  A plain
    arithmetic loop tracks the simulator's speed far worse, because the
    simulator's slow phases come largely from shared-cache contention.
    Returns a checksum so the work cannot be skipped."""
    pool = _objects()
    size = len(pool)
    table: Dict[int, int] = {}
    total = [0]

    def make(key: int) -> Callable[[], None]:
        line = pool[(key * 7919) % size]

        def fire() -> None:
            slot = line.tag & 0x3FFF
            table[slot] = table.get(slot, 0) + line.hits
            total[0] += line.tag & 0xFF
        return fire

    queue = [(key, key, make(key)) for key in range(64)]
    seq = len(queue)
    for _ in range(events):
        when, _, fire = heapq.heappop(queue)
        fire()
        seq += 1
        heapq.heappush(queue, (when + seq % 7 + 1, seq, make(seq)))
    return total[0] + len(table)


def calibration_loop() -> float:
    """Wall seconds of one :func:`calibration_kernel` run."""
    _objects()
    start = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - start


def calibrate(wall_s: float, cal_before: float, cal_after: float) -> float:
    """``wall_s`` rescaled to the reference machine's idle speed."""
    return wall_s * REFERENCE_S / ((cal_before + cal_after) / 2.0)


@dataclass(frozen=True)
class Timing:
    """One calibrated section, with the raw readings kept for audit."""

    calibrated_s: float
    wall_s: float
    cpu_s: float
    cal_before_s: float
    cal_after_s: float


def timed(section: Callable[[], T]) -> Tuple[T, Timing]:
    """Run ``section`` between two calibration loops.

    A full collection runs first so one section's garbage is not
    collected inside the next one's timing.
    """
    gc.collect()
    before = calibration_loop()
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    result = section()
    cpu = time.process_time() - cpu0
    wall = time.perf_counter() - wall0
    after = calibration_loop()
    return result, Timing(calibrate(wall, before, after), wall, cpu,
                          before, after)
