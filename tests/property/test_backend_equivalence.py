"""Property test: every copy backend agrees with a byte-array shadow.

Random programs of non-overlapping copies, stores, and loads run once
per registered backend (eager / mclazy / zio / rowclone / mirror), each
on its natural machine (mcsquare on only for mclazy; hash and ideal
DRAM layouts for the in-DRAM models).  A plain bytearray shadow applies
the same operations eagerly; after the program drains and the backend's
deferred state is resolved, the architecturally visible arena must
equal the shadow byte for byte.

This is the functional half of the backend contract: whatever a
mechanism defers (CTT entries, elided pages, in-flight row copies), a
coherent reader afterwards sees plain-memcpy semantics.  The poison
tests below cover the fault half for the in-DRAM path: RowClone moves
bits blindly, so poisoned source lines must poison the copied
destination lines instead of laundering them as clean data.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import small_system
from repro.common.units import CACHELINE_SIZE
from repro.copyengine import backend_names
from repro.isa import ops
from repro.workloads.common import build_machine

CL = CACHELINE_SIZE
REGION = 32 * 1024   # two 16KB "local rows" on the 2-channel test machine


@st.composite
def copy_programs(draw):
    steps = []
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(["copy", "copy", "copy",
                                     "store", "load"]))
        if kind == "copy":
            size = draw(st.integers(1, 60)) * CL
            dst = draw(st.integers(0, (REGION - size) // CL)) * CL
            src = draw(st.integers(0, (REGION - size) // CL)) * CL
            if src < dst + size and dst < src + size:
                continue  # memcpy buffers must not overlap
            # Optionally skew the source: same-offset skew keeps the
            # in-DRAM backends eligible, a lone skew forces fallback.
            mis = draw(st.sampled_from([0, 0, 0, CL, 8]))
            if src + mis + size <= REGION and not (
                    src + mis < dst + size and dst < src + mis + size):
                src += mis
            steps.append(("copy", dst, src, size))
        elif kind == "store":
            addr = draw(st.integers(0, REGION - 8))
            steps.append(("store", addr,
                          draw(st.binary(min_size=8, max_size=8))))
        else:
            steps.append(("load", draw(st.integers(0, REGION - 8))))
    return steps


def _build(backend, layout="hash"):
    return build_machine(backend, small_system(inmem_layout=layout))


def run_case(backend, steps, layout="hash"):
    system, engine = _build(backend, layout)
    base = system.alloc(REGION, align=16 * 1024)
    shadow = bytearray(REGION)
    init = bytes((i * 89 + 7) & 0xFF for i in range(256)) * (REGION // 256)
    system.backing.write(base, init)
    shadow[:] = init

    def program():
        for step in steps:
            if step[0] == "copy":
                _, dst, src, size = step
                shadow[dst:dst + size] = shadow[src:src + size]
                yield from engine.copy_ops(base + dst, base + src, size)
                yield ops.mfence()
            elif step[0] == "store":
                _, addr, data = step
                shadow[addr:addr + 8] = data
                yield from engine.write_ops(base + addr, 8, data=data)
            else:
                _, addr = step
                gen = engine.read_ops(base + addr, 8, blocking=True)
                value = None
                for op in gen:
                    value = yield op
                assert value == bytes(shadow[addr:addr + 8]), \
                    f"load at {addr:#x} saw stale data"
        yield ops.mfence()

    system.run_program(program(), max_cycles=200_000_000)
    system.drain()
    # Materialize deferred state (zio's elided pages) before comparing.
    system.run_program(engine.resolve_ops(base, REGION))
    system.drain()
    visible = system.read_memory(base, REGION)
    for i in range(REGION):
        assert visible[i] == shadow[i], (
            f"{backend}/{layout}: byte {i:#x} diverged: "
            f"visible={visible[i]:#x} shadow={shadow[i]:#x}")


@pytest.mark.parametrize("backend", backend_names())
@settings(max_examples=12, deadline=None)
@given(steps=copy_programs())
def test_backend_matches_shadow(backend, steps):
    run_case(backend, steps)


@pytest.mark.parametrize("backend", ("rowclone", "mirror"))
@settings(max_examples=8, deadline=None)
@given(steps=copy_programs())
# A fallback copy dirties a line in L1 over a stale L2 fill; an in-DRAM
# copy reading it cleans the L1 line, a later copy evicts it, and the
# stale L2 copy used to become the visible value.
@example(steps=[("copy", 11456, 3328, 3008), ("load", 0),
                ("copy", 64, 12352, 64), ("load", 0),
                ("copy", 0, 19264, 1344), ("store", 0, bytes(8)),
                ("copy", 0, 3648, 1280), ("copy", 16320, 0, 2944)])
def test_indram_backend_matches_shadow_ideal_layout(backend, steps):
    """The FPM-everywhere layout changes timing only, never bytes."""
    run_case(backend, steps, layout="ideal")


# --------------------------------------------------------------- poison
def _poison_copy(backend, skew=0, layout="ideal"):
    """Copy one region with a poisoned source line; return the system
    and the copy geometry."""
    system, engine = _build(backend, layout)
    base = system.alloc(64 * 1024, align=16 * 1024)
    src, dst = base, base + 32 * 1024 + skew
    system.backing.fill(src, 16 * 1024, 0x5A)
    system.backing.poison(src + 4 * CL)

    def program():
        yield from engine.copy_ops(dst, src, 16 * 1024)
        yield ops.mfence()

    system.run_program(program(), max_cycles=200_000_000)
    system.drain()
    return system, src, dst


@pytest.mark.parametrize("backend", ("rowclone", "mirror"))
def test_inmem_copy_propagates_poison(backend):
    """A blind in-DRAM row copy carries the source line's poison."""
    system, src, dst = _poison_copy(backend)
    assert system.backing.line_poisoned(dst + 4 * CL)
    # Only the derived line is poisoned; its neighbours stay clean.
    assert not system.backing.line_poisoned(dst + 3 * CL)
    assert not system.backing.line_poisoned(dst + 5 * CL)
    # Data still moved (corrupted bits travel with the poison bit).
    assert system.read_memory(dst, 16 * 1024) == \
        system.read_memory(src, 16 * 1024)
