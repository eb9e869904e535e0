"""Unit tests for the OS substrate: VM, fork/COW, pipes."""

import pytest

from repro import System, small_system
from repro.common import params
from repro.common.errors import ProtectionFault
from repro.common.units import HUGE_PAGE_SIZE, KB, MB, PAGE_SIZE
from repro.isa import ops
from repro.os.pipes import Pipe
from repro.os.vm import CowFault, OperatingSystem
from repro.copyengine import make_backend
from repro.workloads.common import fill_pattern


def build(dram=256 * MB):
    system = System(small_system(mcsquare_enabled=False, dram_size=dram))
    return system, OperatingSystem(system)


class TestAddressSpace:
    def test_map_and_translate(self):
        system, osys = build()
        space = osys.create_space()
        space.map_region(0x10000, 2 * PAGE_SIZE)
        pa0 = space.translate(0x10000)
        pa1 = space.translate(0x10000 + PAGE_SIZE)
        assert pa0 != pa1
        assert space.translate(0x10010) == pa0 + 0x10

    def test_unmapped_raises(self):
        system, osys = build()
        space = osys.create_space()
        with pytest.raises(ProtectionFault):
            space.translate(0x999000)

    def test_readonly_write_raises(self):
        system, osys = build()
        space = osys.create_space()
        space.map_region(0x10000, PAGE_SIZE, writable=False)
        space.translate(0x10000)  # read ok
        with pytest.raises(ProtectionFault):
            space.translate(0x10000, write=True)

    def test_translate_range_splits_at_pages(self):
        system, osys = build()
        space = osys.create_space()
        space.map_region(0x10000, 2 * PAGE_SIZE)
        pieces = space.translate_range(0x10000 + PAGE_SIZE - 100, 200)
        assert len(pieces) == 2
        assert pieces[0][1] == 100
        assert pieces[1][1] == 100

    def test_unmap_releases(self):
        system, osys = build()
        space = osys.create_space()
        space.map_region(0x10000, PAGE_SIZE)
        space.unmap_region(0x10000, PAGE_SIZE)
        with pytest.raises(ProtectionFault):
            space.translate(0x10000)

    def test_huge_page_space(self):
        system, osys = build()
        space = osys.create_space(page_size=HUGE_PAGE_SIZE)
        space.map_region(0x40000000, 2 * HUGE_PAGE_SIZE)
        assert len(space.ptes) == 2


class TestFork:
    def test_fork_marks_both_cow(self):
        system, osys = build()
        parent = osys.create_space()
        parent.map_region(0x10000, 2 * PAGE_SIZE)
        child, cost_ops = osys.fork(parent)
        list(cost_ops)
        for space in (parent, child):
            with pytest.raises(CowFault):
                space.translate(0x10000, write=True)

    def test_fork_shares_frames_for_reads(self):
        system, osys = build()
        parent = osys.create_space()
        parent.map_region(0x10000, PAGE_SIZE)
        child, _ = osys.fork(parent)
        assert parent.translate(0x10000) == child.translate(0x10000)

    def test_fork_cost_scales_with_ptes(self):
        system, osys = build()
        small = osys.create_space()
        small.map_region(0, PAGE_SIZE)
        big = osys.create_space()
        big.map_region(0, 64 * PAGE_SIZE)
        _, c1 = osys.fork(small)
        _, c2 = osys.fork(big)
        assert next(iter(c2)).cycles > next(iter(c1)).cycles

    def test_cow_fault_resolution(self):
        system, osys = build()
        parent = osys.create_space()
        parent.map_region(0x10000, PAGE_SIZE)
        old_pa = parent.translate(0x10000)
        system.backing.fill(old_pa, PAGE_SIZE, 0x5E)
        child, _ = osys.fork(parent)

        old_frame, new_frame = osys.begin_cow_fault(parent, 0x10000)
        assert new_frame != old_frame
        system.backing.copy(new_frame, old_frame, PAGE_SIZE)
        osys.complete_cow_fault(parent, 0x10000, new_frame)

        # Parent now writable at a private frame; child untouched.
        assert parent.translate(0x10000, write=True) == new_frame
        assert child.translate(0x10000) == old_frame
        assert system.backing.read(new_frame, 8) == b"\x5E" * 8

    def test_sole_owner_skips_copy(self):
        system, osys = build()
        parent = osys.create_space()
        parent.map_region(0x10000, PAGE_SIZE)
        child, _ = osys.fork(parent)
        # Resolve the child's fault first (copy)...
        old, new = osys.begin_cow_fault(child, 0x10000)
        osys.complete_cow_fault(child, 0x10000, new)
        # ...then the parent is sole owner: no copy needed.
        old2, new2 = osys.begin_cow_fault(parent, 0x10000)
        assert old2 == new2

    def test_cow_store_ops_end_to_end(self):
        system, osys = build()
        engine = make_backend("eager", system, kernel=True)
        parent = osys.create_space()
        parent.map_region(0x10000, PAGE_SIZE)
        pa = parent.translate(0x10000)
        system.backing.fill(pa, PAGE_SIZE, 0x21)
        child, _ = osys.fork(parent)

        def prog():
            yield from osys.cow_store_ops(parent, 0x10050, 8, engine,
                                          data=b"COWWRITE")
            yield ops.mfence()

        system.run_program(prog())
        system.drain()
        system.hierarchy.flush_all()
        system.drain()
        new_pa = parent.translate(0x10000)
        child_pa = child.translate(0x10000)
        assert system.backing.read(new_pa + 0x50, 8) == b"COWWRITE"
        assert system.backing.read(new_pa, 8) == b"\x21" * 8
        assert system.backing.read(child_pa + 0x50, 8) == b"\x21" * 8
        assert osys.cow_faults == 1


class TestPipes:
    def _pipe(self):
        system = System(small_system(mcsquare_enabled=False))
        engine = make_backend("eager", system, kernel=True)
        return system, Pipe(system, engine)

    def test_transfer_moves_data(self):
        system, pipe = self._pipe()
        src = system.alloc(8 * KB, align=4096)
        dst = system.alloc(8 * KB, align=4096)
        fill_pattern(system, src, 4 * KB)
        expected = system.read_memory(src, 4 * KB)

        def prog():
            yield from pipe.transfer_ops(src, dst, 4 * KB)
            yield ops.mfence()

        system.run_program(prog())
        system.drain()
        assert system.read_memory(dst, 4 * KB) == expected
        assert pipe.bytes_written == 4 * KB
        assert pipe.bytes_read == 4 * KB

    def test_overflow_rejected(self):
        system, pipe = self._pipe()
        src = system.alloc(params.PIPE_BUFFER_SIZE * 2)
        from repro.common.errors import SimulationError
        with pytest.raises(SimulationError):
            list(pipe.write_ops(src, params.PIPE_BUFFER_SIZE + 1))

    def test_underflow_rejected(self):
        system, pipe = self._pipe()
        dst = system.alloc(4096)
        from repro.common.errors import SimulationError
        with pytest.raises(SimulationError):
            list(pipe.read_ops(dst, 64))

    def test_ring_wraparound(self):
        system, pipe = self._pipe()
        chunk = pipe.buffer_size // 2 + 1024  # force wrap on 2nd write
        src = system.alloc(2 * chunk, align=4096)
        dst = system.alloc(2 * chunk, align=4096)
        fill_pattern(system, src, 2 * chunk)
        expected = system.read_memory(src, 2 * chunk)

        def prog():
            yield from pipe.transfer_ops(src, dst, chunk)
            yield from pipe.transfer_ops(src + chunk, dst + chunk, chunk)
            yield ops.mfence()

        system.run_program(prog())
        system.drain()
        assert system.read_memory(dst, 2 * chunk) == expected

    def test_syscall_cost_charged(self):
        system, pipe = self._pipe()
        src = system.alloc(4096, align=4096)
        dst = system.alloc(4096, align=4096)

        def prog():
            yield from pipe.transfer_ops(src, dst, 64)

        t = system.run_program(prog())
        assert t >= 2 * params.SYSCALL_CYCLES
