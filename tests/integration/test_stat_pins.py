"""Stat-tree pins for the copy paths that no golden trace runs.

The golden traces cover the (MC)² sequential and random-access paths.
Two more copy paths carry real traffic in the exhibits: the kernel's
line-granular bulk copy (``eager kernel=True``, the huge-page COW copy
of Fig. 18) and the in-DRAM ``INMEM_COPY`` of the ``rowclone`` backend
(Fig. 23).  Each case here runs one 64 KB copy of that kind on a fresh
machine, after a short prelude that leaves some source lines dirty and
some destination lines cached, so the copy's flush/invalidate boundary
has real holders to visit.  The final cycle, the events fired and the
whole ``stats.flatten()`` tree must equal the checked-in JSON.

Regenerate deliberately with::

    PYTHONPATH=src python -m tests.integration.test_stat_pins
"""

import json
from pathlib import Path
from typing import Dict, Iterator

import pytest

from repro.common.units import CACHELINE_SIZE, KB
from repro.isa import ops
from repro.workloads.common import build_machine

GOLDENS = Path(__file__).resolve().parents[1] / "goldens"

SIZE = 64 * KB

#: Pin name -> (backend name, backend keyword arguments).
CASES = {
    "eager-kernel-64k": ("eager", {"kernel": True}),
    "rowclone-64k": ("rowclone", {}),
}


def _pin_path(name: str) -> Path:
    return GOLDENS / f"{name}.stats.json"


def run_case(name: str) -> Dict[str, object]:
    """Run pin ``name`` and return what the pin records."""
    backend_name, kwargs = CASES[name]
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
    return {"finish": finish, "now": system.sim.now,
            "events_fired": system.sim.events_fired,
            "stats": system.stats.flatten()}


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
