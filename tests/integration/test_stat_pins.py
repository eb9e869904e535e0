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

The final cycle, the events fired and the whole ``stats.flatten()``
tree must equal the checked-in JSON.

Regenerate deliberately with::

    PYTHONPATH=src python -m tests.integration.test_stat_pins
"""

import json
import random
from pathlib import Path
from typing import Callable, Dict, Iterator

import pytest

from repro.common.units import CACHELINE_SIZE, HUGE_PAGE_SIZE, KB
from repro.isa import ops
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


#: Pin name -> the run that produces it.
CASES: Dict[str, Callable[[], Dict[str, object]]] = {
    "cow-eager-2m": _run_cow_eager_2m,
    "eager-kernel-64k": lambda: _run_copy_64k("eager", kernel=True),
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


if __name__ == "__main__":
    for case in sorted(CASES):
        _pin_path(case).write_text(
            json.dumps(run_case(case), indent=1, sort_keys=True) + "\n")
        print(f"wrote {_pin_path(case)}")
