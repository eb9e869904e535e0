"""Stat-tree pins for the copy paths that no golden trace runs.

The golden traces cover the (MC)² sequential and random-access paths.
More copy paths carry real traffic in the exhibits: the kernel's
line-granular bulk copy (``eager kernel=True``, the huge-page COW copy
of Fig. 18) and the in-DRAM ``INMEM_COPY`` of the ``rowclone`` and
``mirror`` backends (Fig. 23).  Each 64 KB case runs one copy of that
kind on a fresh machine, after a short prelude that leaves some source
lines dirty and some destination lines cached, so the copy's
flush/invalidate boundary has real holders to visit.

``cow-eager-2m`` runs a whole native huge-page COW fault instead: fork
a 2 MB huge-page region, then store into it, so the kernel's bulk copy
moves all 32,768 lines of the page through a saturated write queue.

The ``mclazy-*`` cases pin the (MC)² controller paths the goldens do
not reach: source writes parked in the BPQ while their dependent lines
materialize, double bounces off a misaligned source (``mclazy-bpq-64k``);
MCLAZY stalls on a full CTT, asynchronous frees and a chained copy
(``mclazy-ctt-full``); and a destination line with two sources, copied
at insert (``mclazy-eager-line``).

``core-ops`` pins the core's rarer issue paths on an ``mclazy`` machine:
every op kind but the in-memory and bulk copies, store-to-load
forwarding into a blocking and a non-blocking load, a load waiting on
a partly overlapping store, a store ordered behind an older
overlapping one, full-line non-temporal stores, a range writeback, an
MCFREE and a store train that fills the store buffer.

The final cycle, the events fired and the whole ``stats.flatten()``
tree must equal the checked-in JSON.

Regenerate deliberately with::

    PYTHONPATH=src python -m tests.integration.test_stat_pins
"""

import json
import random
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, Iterator, Optional

import pytest

from repro import System, small_system
from repro.common.units import CACHELINE_SIZE, HUGE_PAGE_SIZE, KB, PAGE_SIZE
from repro.isa import ops
from repro.isa.ops import Op
from repro.workloads.common import build_machine
from repro.workloads.hugepage import HugePageCowWorkload

GOLDENS = Path(__file__).resolve().parents[1] / "goldens"

SIZE = 64 * KB


def _pin_path(name: str) -> Path:
    return GOLDENS / f"{name}.stats.json"


def _record(system, finish: int) -> Dict[str, object]:
    return {"finish": finish, "now": system.sim.now,
            "events_fired": system.sim.events_fired,
            "stats": system.stats.flatten()}


def _run_copy_64k(backend_name: str, **kwargs) -> Dict[str, object]:
    """One 64 KB copy through ``backend_name`` behind a prelude that
    dirties source lines and caches destination lines."""
    system, backend = build_machine(backend_name, **kwargs)
    src = system.alloc(SIZE, align=4096)
    dst = system.alloc(SIZE, align=4096)
    data = bytes((i * 7 + 3) & 0xFF for i in range(SIZE))
    system.backing.write(src, data)

    def program() -> Iterator[ops.Op]:
        # Dirty every eighth source line and cache every eighth
        # destination line, so the copy flushes and invalidates.
        for off in range(0, SIZE, 8 * CACHELINE_SIZE):
            yield ops.store(src + off, 8, data=data[off:off + 8])
            yield ops.load(dst + off + 4 * CACHELINE_SIZE, 8)
        yield ops.mfence()
        yield from backend.copy_ops(dst, src, SIZE)

    finish = system.run_program(program())
    system.drain()
    assert system.read_memory(dst, SIZE) == data
    return _record(system, finish)


#: Data seed of the huge-page case; data decides bytes, not timing.
COW_SEED = 7
#: Stores into the forked page, at a stride coprime with its line count.
COW_UPDATES = 16
COW_STRIDE = 4099 * 8


def _run_cow_eager_2m() -> Dict[str, object]:
    """fork a 2 MB huge page on the baseline machine, then store into
    it: the first store's native COW fault copies the whole page."""
    rnd = random.Random(COW_SEED)
    page = rnd.randbytes(HUGE_PAGE_SIZE)
    updates = [((i * COW_STRIDE) % HUGE_PAGE_SIZE, rnd.randbytes(8))
               for i in range(COW_UPDATES)]
    cow = HugePageCowWorkload("native", region_size=HUGE_PAGE_SIZE,
                              num_updates=COW_UPDATES)
    system, vm, space, base = cow.system, cow.os, cow.space, cow.base
    system.backing.write(space.translate(base), page)
    children = []

    def program() -> Iterator[ops.Op]:
        child, fork_cost = vm.fork(space)
        children.append(child)
        yield from fork_cost
        for offset, data in updates:
            yield from vm.cow_store_ops(space, base + offset, 8,
                                        cow.engine, data=data)
            yield ops.mfence()

    finish = system.run_program(program())
    system.drain()
    updated = bytearray(page)
    for offset, data in updates:
        updated[offset:offset + 8] = data
    assert system.read_memory(space.translate(base),
                              HUGE_PAGE_SIZE) == updated
    assert system.read_memory(children[0].translate(base),
                              HUGE_PAGE_SIZE) == page
    return _record(system, finish)


def _pattern(size: int, seed: int) -> bytes:
    return bytes((i * 7 + seed) & 0xFF for i in range(size))


def _run_mclazy_bpq_64k() -> Dict[str, object]:
    """A 64 KB lazy copy from a source 16 B past a page, then an 8 B
    store and a CLWB to every fourth source line, then loads of every
    eighth destination line that is still tracked."""
    system, backend = build_machine("mclazy")
    src = system.alloc(SIZE + PAGE_SIZE, align=PAGE_SIZE) + 16
    dst = system.alloc(SIZE, align=PAGE_SIZE)
    data = _pattern(SIZE, 3)
    system.backing.write(src, data)
    stored = bytearray(data)

    def program() -> Iterator[ops.Op]:
        yield from backend.copy_ops(dst, src, SIZE)
        for off in range(0, SIZE, 4 * CACHELINE_SIZE):
            stored[off:off + 8] = b"\xa5" * 8
            yield ops.store(src + off, 8, data=b"\xa5" * 8)
            yield ops.clwb(src + off)
        # Line 2 of every eight: no source write materialized it.
        for off in range(2 * CACHELINE_SIZE, SIZE, 8 * CACHELINE_SIZE):
            yield ops.load(dst + off, 8)
        yield ops.mfence()

    finish = system.run_program(program())
    system.drain()
    assert system.read_memory(dst, SIZE) == data
    assert system.read_memory(src, SIZE) == stored
    return _record(system, finish)


#: Copies and size of the ``mclazy-ctt-full`` case.
FULL_COPIES = 8
FULL_SIZE = 4 * KB


def _run_mclazy_ctt_full() -> Dict[str, object]:
    """Eight 4 KB lazy copies into a 2-entry CTT, one chained copy out
    of the last destination, then a store and a CLWB to the last copy's
    source.  The chained copy stalls until the free engine has resolved
    the last destination, so the insert it finally gets is never
    redirected (``ctt.redirects`` reads 0)."""
    system = System(small_system(ctt_entries=2))
    backend = system.copy_backend("mclazy")
    pairs = []
    for i in range(FULL_COPIES):
        src = system.alloc(FULL_SIZE, align=PAGE_SIZE)
        dst = system.alloc(FULL_SIZE, align=PAGE_SIZE)
        system.backing.write(src, _pattern(FULL_SIZE, i))
        pairs.append((dst, src))
    chained = system.alloc(FULL_SIZE, align=PAGE_SIZE)
    last_dst, last_src = pairs[-1]

    def program() -> Iterator[ops.Op]:
        for dst, src in pairs:
            yield from backend.copy_ops(dst, src, FULL_SIZE)
        yield from backend.copy_ops(chained, last_dst, FULL_SIZE)
        yield ops.store(last_src, 8, data=b"\x5a" * 8)
        yield ops.clwb(last_src)
        yield ops.mfence()

    finish = system.run_program(program())
    system.drain()
    for i, (dst, _src) in enumerate(pairs):
        assert system.read_memory(dst, FULL_SIZE) == _pattern(FULL_SIZE, i)
    assert system.read_memory(chained, FULL_SIZE) == \
        _pattern(FULL_SIZE, FULL_COPIES - 1)
    assert system.read_memory(last_src, 8) == b"\x5a" * 8
    return _record(system, finish)


def _run_mclazy_eager_line() -> Dict[str, object]:
    """A 1 KB lazy copy, then a 1 KB lazy copy whose source starts
    520 B into the first destination: the destination line holding the
    end of the redirected part draws from two sources."""
    system, backend = build_machine("mclazy")
    first_src = system.alloc(KB, align=PAGE_SIZE)
    first_dst = system.alloc(2 * KB, align=PAGE_SIZE)
    second_dst = system.alloc(KB, align=PAGE_SIZE)
    system.backing.write(first_src, _pattern(KB, 11))
    system.backing.write(first_dst, _pattern(2 * KB, 29))

    def program() -> Iterator[ops.Op]:
        yield from backend.copy_ops(first_dst, first_src, KB)
        yield from backend.copy_ops(second_dst, first_dst + 520, KB)
        yield ops.mfence()

    finish = system.run_program(program())
    system.drain()
    image = bytearray(_pattern(2 * KB, 29))
    image[:KB] = _pattern(KB, 11)
    assert system.read_memory(first_dst, 2 * KB) == image
    assert system.read_memory(second_dst, KB) == image[520:520 + KB]
    return _record(system, finish)


#: Lines in the ``core-ops`` store train: more than the store buffer
#: holds, all missing the caches, so issue stalls on a full buffer.
TRAIN_LINES = 64


def _run_core_ops(labels: Optional[Counter] = None) -> Dict[str, object]:
    """A lazy copy, then each of the core's rarer issue paths in turn;
    ``labels``, when given, counts every fired event's label."""
    system, backend = build_machine("mclazy")
    src = system.alloc(PAGE_SIZE, align=PAGE_SIZE)
    dst = system.alloc(PAGE_SIZE, align=PAGE_SIZE)
    freed = system.alloc(PAGE_SIZE, align=PAGE_SIZE)
    scratch = system.alloc(PAGE_SIZE, align=PAGE_SIZE)
    train = system.alloc(TRAIN_LINES * CACHELINE_SIZE, align=PAGE_SIZE)
    data = _pattern(PAGE_SIZE, 5)
    system.backing.write(src, data)
    if labels is not None:
        system.sim.enable_tracing(lambda label, _now: labels.update((label,)))
    loaded = []

    def program() -> Iterator[Op]:
        yield from backend.copy_ops(dst, src, PAGE_SIZE)
        yield from backend.copy_ops(freed, src, PAGE_SIZE)
        # Store-to-load forwarding, into a non-blocking and a blocking
        # load.
        yield ops.store(scratch, 8, data=b"\x11" * 8)
        yield ops.load(scratch, 8)
        loaded.append((yield ops.load(scratch + 2, 4, blocking=True)))
        # A load partly overlapping a pending store waits for it.
        yield ops.store(scratch + 72, 8, data=b"\x22" * 8)
        yield ops.load(scratch + 68, 8)
        # A store overlapping an older one still in its RFO is ordered
        # behind it.
        yield ops.store(scratch + 128, 8, data=b"\x33" * 8)
        yield ops.store(scratch + 132, 8, data=b"\x44" * 8)
        yield ops.compute(3)
        for off in (256, 320):
            yield ops.nt_store(scratch + off, CACHELINE_SIZE,
                               data=bytes([off & 0xFF]) * CACHELINE_SIZE)
        yield ops.clwb_range(scratch, 512)
        yield from backend.free_ops(freed, PAGE_SIZE)
        # Reads of the lazily copied buffer bounce at the MC.
        for off in range(0, PAGE_SIZE, 8 * CACHELINE_SIZE):
            yield ops.load(dst + off, 8)
        for off in range(0, TRAIN_LINES * CACHELINE_SIZE, CACHELINE_SIZE):
            yield ops.store(train + off, 8, data=b"\x55" * 8)
        yield ops.mfence()

    finish = system.run_program(program())
    system.drain()
    assert loaded == [b"\x11" * 4]
    assert system.read_memory(dst, PAGE_SIZE) == data
    assert system.read_memory(scratch, 8) == b"\x11" * 8
    assert system.read_memory(scratch + 72, 8) == b"\x22" * 8
    assert system.read_memory(scratch + 128, 12) == \
        b"\x33" * 4 + b"\x44" * 8
    assert system.read_memory(scratch + 256, 128) == \
        bytes([0]) * CACHELINE_SIZE + bytes([64]) * CACHELINE_SIZE
    assert system.read_memory(train + 64 * (TRAIN_LINES - 1), 8) == \
        b"\x55" * 8
    return _record(system, finish)


#: Pin name -> the run that produces it.
CASES: Dict[str, Callable[[], Dict[str, object]]] = {
    "core-ops": _run_core_ops,
    "cow-eager-2m": _run_cow_eager_2m,
    "eager-kernel-64k": lambda: _run_copy_64k("eager", kernel=True),
    "mclazy-bpq-64k": _run_mclazy_bpq_64k,
    "mclazy-ctt-full": _run_mclazy_ctt_full,
    "mclazy-eager-line": _run_mclazy_eager_line,
    "mirror-64k": lambda: _run_copy_64k("mirror"),
    "rowclone-64k": lambda: _run_copy_64k("rowclone"),
}


def run_case(name: str) -> Dict[str, object]:
    """Run pin ``name`` and return what the pin records."""
    return CASES[name]()


@pytest.mark.parametrize("name", sorted(CASES))
def test_stat_tree_matches_pin(name):
    want = json.loads(_pin_path(name).read_text())
    got = json.loads(json.dumps(run_case(name)))
    assert got["finish"] == want["finish"]
    assert got["now"] == want["now"]
    assert got["events_fired"] == want["events_fired"]
    assert got["stats"] == want["stats"]


#: Labels of the core paths ``core-ops`` exists to pin.
CORE_LABELS = ("stl-forward", "order-wait", "st-st-order",
               "clwb-range-issued", "ntstore-issued", "mcfree-issued",
               "mclazy-issued", "clwb-issued", "store-issued",
               "compute-done", "mfence-done")


def test_core_ops_pin_reaches_the_rare_paths():
    labels: Counter = Counter()
    record = _run_core_ops(labels)
    assert [label for label in CORE_LABELS if not labels[label]] == []
    # Forwarded into both the non-blocking and the blocking load.
    assert labels["stl-forward"] == 2
    stats = record["stats"]
    assert stats["core0.sb_full_stalls"] > 0
    assert stats["core0.loads"] > 0


if __name__ == "__main__":
    for case in sorted(CASES):
        _pin_path(case).write_text(
            json.dumps(run_case(case), indent=1, sort_keys=True) + "\n")
        print(f"wrote {_pin_path(case)}")
