"""End-to-end property test: (MC)² lazy memcpy == eager memcpy oracle.

Random programs of copies, stores, loads, flushes, and frees run on a
full (MC)² system while a plain byte-array oracle applies the same
operations eagerly.  After the program drains, every byte the oracle can
predict must match the architecturally visible memory — including bytes
still backed by unresolved prospective copies.

This is the substitute for gem5's full-system correctness: if the CTT's
overlap/redirect/merge logic, the BPQ parking, the bounce writebacks, or
the async free engine dropped or reordered a copy, some byte diverges.
"""

from hypothesis import example, given, settings, strategies as st

from repro import System, small_system
from repro.common.units import CACHELINE_SIZE, PAGE_SIZE
from repro.isa import ops
from repro.sw.memcpy import memcpy_lazy_ops, memcpy_ops

CL = CACHELINE_SIZE
REGION = 16 * 1024  # one shared 16KB arena: overlaps are the norm


@st.composite
def program_steps(draw):
    steps = []
    for _ in range(draw(st.integers(1, 14))):
        kind = draw(st.sampled_from(
            ["lazy_copy", "lazy_copy", "eager_copy", "store", "load",
             "clwb_range", "free"]))
        if kind in ("lazy_copy", "eager_copy"):
            # Non-overlapping src/dst inside the arena.
            size = draw(st.integers(1, 40)) * CL
            dst = draw(st.integers(0, (REGION - size) // CL)) * CL
            src = draw(st.integers(0, (REGION - size) // CL)) * CL
            if src < dst + size and dst < src + size:
                continue  # memcpy buffers must not overlap
            # Optionally misalign the source by a sub-line offset.
            mis = draw(st.sampled_from([0, 0, 0, 8, 16, 48]))
            if src + mis + size <= REGION and not (
                    src + mis < dst + size and dst < src + mis + size):
                src += mis
            steps.append((kind, dst, src, size))
        elif kind == "store":
            addr = draw(st.integers(0, REGION - 8))
            steps.append(("store", addr, draw(st.binary(min_size=8,
                                                        max_size=8))))
        elif kind == "load":
            steps.append(("load", draw(st.integers(0, REGION - 8))))
        elif kind == "clwb_range":
            lines = draw(st.integers(1, 8))
            start = draw(st.integers(0, REGION // CL - lines)) * CL
            steps.append(("clwb_range", start, lines))
        else:
            size = draw(st.integers(1, 16)) * CL
            addr = draw(st.integers(0, (REGION - size) // CL)) * CL
            steps.append(("free", addr, size))
    return steps


def run_case(steps, bpq_entries=4, ctt_entries=256, bounce_writeback=True):
    system = System(small_system(bpq_entries=bpq_entries,
                                 ctt_entries=ctt_entries,
                                 bounce_writeback=bounce_writeback))
    base = system.alloc(REGION, align=PAGE_SIZE)
    oracle = bytearray(REGION)
    # Deterministic initial contents.
    init = bytes((i * 89 + 7) & 0xFF for i in range(256)) * (REGION // 256)
    system.backing.write(base, init)
    oracle[:] = init
    freed = set()  # oracle-side: bytes whose contents became undefined

    def program():
        for step in steps:
            if step[0] in ("lazy_copy", "eager_copy"):
                _, dst, src, size = step
                for i in range(size):
                    if src + i in freed:
                        freed.add(dst + i)
                    else:
                        freed.discard(dst + i)
                oracle[dst:dst + size] = oracle[src:src + size]
                if step[0] == "lazy_copy":
                    yield from memcpy_lazy_ops(system, base + dst,
                                               base + src, size)
                else:
                    yield from memcpy_ops(system, base + dst,
                                          base + src, size)
            elif step[0] == "store":
                _, addr, data = step
                oracle[addr:addr + 8] = data
                for i in range(8):
                    freed.discard(addr + i)
                yield ops.store(base + addr, 8, data=data)
            elif step[0] == "load":
                _, addr = step
                value = yield ops.load(base + addr, 8, blocking=True)
                if all(addr + i not in freed for i in range(8)):
                    assert value == bytes(oracle[addr:addr + 8]), \
                        f"load at {addr:#x} saw stale data"
            elif step[0] == "clwb_range":
                _, start, lines = step
                for i in range(lines):
                    yield ops.clwb(base + start + i * CL)
                yield ops.mfence()
            else:
                _, addr, size = step
                # MCFREE leaves the freed buffer undefined (§III-C).
                freed.update(range(addr, addr + size))
                yield ops.mcfree(base + addr, size)
                yield ops.mfence()
        yield ops.mfence()

    system.run_program(program(), max_cycles=200_000_000)
    system.drain()
    system.ctt.verify_invariants()
    visible = system.read_memory(base, REGION)
    for i in range(REGION):
        if i in freed:
            continue
        assert visible[i] == oracle[i], (
            f"byte {i:#x} diverged: visible={visible[i]:#x} "
            f"oracle={oracle[i]:#x}")


@settings(max_examples=40, deadline=None)
@given(program_steps())
# The second copy's source runs through the first copy's destination
# while its destination overwrites the first copy's source.  Split at
# the 4 KB page at 0x3000:
@example([("lazy_copy", 0x100, 0x2FC0, 256),
          ("lazy_copy", 0x2F00, 0x8, 448)])
# No page split: the insert tracks 0x2E80 <- 0x2E88, a line that sources
# from itself, and copies 0x2EC0 eagerly.
@example([("lazy_copy", 0x2F00, 0x2E80, 128),
          ("lazy_copy", 0x2E80, 0x2F08, 128)])
def test_lazy_memcpy_equals_eager_oracle(steps):
    run_case(steps)


@settings(max_examples=15, deadline=None)
@given(program_steps())
def test_oracle_holds_without_bounce_writeback(steps):
    run_case(steps, bounce_writeback=False)


@settings(max_examples=15, deadline=None)
@given(program_steps())
def test_oracle_holds_with_tiny_structures(steps):
    """A tiny CTT + BPQ forces stalls, async frees, and retries."""
    run_case(steps, bpq_entries=1, ctt_entries=16)


# --------------------------------------------------------------- faults
# The same random programs with detected-uncorrectable (2-bit) DRAM
# flips interleaved between steps.  The property weakens from equality
# to *containment*: visible memory may diverge from the oracle only
# inside the fault's taint cone — the flipped line plus every byte a
# copy derived from it.  Divergence anywhere else means the injection
# perturbed machinery it should not have touched.

@st.composite
def faulty_program_steps(draw):
    steps = list(draw(program_steps()))
    for _ in range(draw(st.integers(1, 3))):
        pos = draw(st.integers(0, len(steps)))
        line = draw(st.integers(0, REGION // CL - 1)) * CL
        steps.insert(pos, ("due_flip", line))
    return steps


def run_faulty_case(steps):
    from repro.faults import FaultInjector

    system = System(small_system())
    injector = FaultInjector(system, seed=0)
    base = system.alloc(REGION, align=PAGE_SIZE)
    oracle = bytearray(REGION)
    init = bytes((i * 89 + 7) & 0xFF for i in range(256)) * (REGION // 256)
    system.backing.write(base, init)
    oracle[:] = init
    freed = set()
    tainted = set()   # bytes whose contents may legally diverge
    flips = [0]

    def taint_flip(rel_line):
        tainted.update(range(rel_line, rel_line + CL))
        lo, hi = base + rel_line, base + rel_line + CL
        # Corrupted source bytes also corrupt every still-tracked
        # destination mapped from them (the CTT never chains, so one
        # level of redirection covers the whole cone).
        for entry in system.ctt.entries:
            start = max(lo, entry.src)
            stop = min(hi, entry.src + entry.size)
            for s in range(start, stop):
                d = entry.dst + (s - entry.src) - base
                if 0 <= d < REGION:
                    tainted.add(d)

    def program():
        for step in steps:
            if step[0] == "due_flip":
                _, rel_line = step
                # Settle in-flight MCLAZYs so the CTT mapping is stable
                # when the taint cone is computed.
                yield ops.mfence()
                injector.flip_bits(base + rel_line, bits=2)
                flips[0] += 1
                taint_flip(rel_line)
            elif step[0] in ("lazy_copy", "eager_copy"):
                _, dst, src, size = step
                src_taint = [src + i in tainted for i in range(size)]
                for i in range(size):
                    if src + i in freed:
                        freed.add(dst + i)
                    else:
                        freed.discard(dst + i)
                    if src_taint[i]:
                        tainted.add(dst + i)
                    else:
                        tainted.discard(dst + i)
                oracle[dst:dst + size] = oracle[src:src + size]
                if step[0] == "lazy_copy":
                    yield from memcpy_lazy_ops(system, base + dst,
                                               base + src, size)
                else:
                    yield from memcpy_ops(system, base + dst,
                                          base + src, size)
            elif step[0] == "store":
                _, addr, data = step
                oracle[addr:addr + 8] = data
                for i in range(8):
                    freed.discard(addr + i)
                    tainted.discard(addr + i)
                yield ops.store(base + addr, 8, data=data)
            elif step[0] == "load":
                _, addr = step
                value = yield ops.load(base + addr, 8, blocking=True)
                if all(addr + i not in freed and addr + i not in tainted
                       for i in range(8)):
                    assert value == bytes(oracle[addr:addr + 8]), \
                        f"load at {addr:#x} saw stale data"
            elif step[0] == "clwb_range":
                _, start, lines = step
                for i in range(lines):
                    yield ops.clwb(base + start + i * CL)
                yield ops.mfence()
            else:
                _, addr, size = step
                freed.update(range(addr, addr + size))
                yield ops.mcfree(base + addr, size)
                yield ops.mfence()
        yield ops.mfence()

    system.run_program(program(), max_cycles=200_000_000)
    system.drain()
    system.ctt.verify_invariants()
    detected = (system.stats.children["faults"].children["ecc"]
                .counters["detected"].value)
    assert detected == flips[0]
    visible = system.read_memory(base, REGION)
    for i in range(REGION):
        if i in freed:
            continue
        if visible[i] == oracle[i]:
            continue
        assert i in tainted, (
            f"byte {i:#x} diverged outside the fault's taint cone: "
            f"visible={visible[i]:#x} oracle={oracle[i]:#x}")


@settings(max_examples=15, deadline=None)
@given(faulty_program_steps())
def test_due_faults_stay_contained(steps):
    run_faulty_case(steps)
