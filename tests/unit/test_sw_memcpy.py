"""Unit tests for the software memcpy variants (Fig. 8 wrapper etc.)."""

import pytest

from repro import System, small_system
from repro.common import params
from repro.common.units import CACHELINE_SIZE, PAGE_SIZE
from repro.copyengine import make_backend
from repro.isa.ops import OpKind
from repro.sw.memcpy import memcpy_lazy_ops, memcpy_ops, touch_ops

CL = CACHELINE_SIZE


def build():
    return System(small_system())


def kinds(opstream):
    return [op.kind for op in opstream]


def pattern(n, seed=5):
    return bytes(((i * 37) + seed) & 0xFF for i in range(n))


class TestEagerMemcpy:
    @pytest.mark.parametrize("size", [1, 31, 32, 64, 100, 1024, 4097])
    def test_data_exact(self, size):
        system = build()
        src = system.alloc(size + 64)
        dst = system.alloc(size + 64)
        data = pattern(size)
        system.backing.write(src, data)
        system.run_program(memcpy_ops(system, dst, src, size))
        system.drain()
        assert system.read_memory(dst, size) == data

    def test_misaligned_src_and_dst(self):
        system = build()
        src = system.alloc(4096) + 13
        dst = system.alloc(4096) + 7
        data = pattern(500)
        system.backing.write(src, data)
        system.run_program(memcpy_ops(system, dst, src, 500))
        system.drain()
        assert system.read_memory(dst, 500) == data

    def test_ops_stay_within_lines(self):
        system = build()
        for op in memcpy_ops(system, 1000, 5000, 256):
            if op.kind in (OpKind.LOAD, OpKind.STORE):
                start_line = op.addr // CL
                end_line = (op.addr + op.size - 1) // CL
                assert start_line == end_line


class TestLazyMemcpy:
    @pytest.mark.parametrize("size", [64, 100, 1024, 4096, 8192, 10000])
    def test_data_exact(self, size):
        system = build()
        src = system.alloc(size + PAGE_SIZE, align=PAGE_SIZE)
        dst = system.alloc(size + PAGE_SIZE, align=PAGE_SIZE)
        data = pattern(size)
        system.backing.write(src, data)
        system.run_program(memcpy_lazy_ops(system, dst, src, size))
        system.drain()
        assert system.read_memory(dst, size) == data

    def test_data_exact_misaligned(self):
        system = build()
        src = system.alloc(8192, align=PAGE_SIZE) + 37
        dst = system.alloc(8192, align=PAGE_SIZE) + 11
        data = pattern(5000)
        system.backing.write(src, data)
        system.run_program(memcpy_lazy_ops(system, dst, src, 5000))
        system.drain()
        assert system.read_memory(dst, 5000) == data

    def test_splits_at_page_boundaries(self):
        system = build()
        src = system.alloc(3 * PAGE_SIZE, align=PAGE_SIZE)
        dst = system.alloc(3 * PAGE_SIZE, align=PAGE_SIZE)
        mclazys = [op for op in
                   memcpy_lazy_ops(system, dst, src, 2 * PAGE_SIZE)
                   if op.kind is OpKind.MCLAZY]
        assert len(mclazys) == 2
        for op in mclazys:
            assert op.size <= PAGE_SIZE
            # MCLAZY never crosses a page in either buffer (§III-C).
            assert op.addr // PAGE_SIZE == \
                (op.addr + op.size - 1) // PAGE_SIZE
            assert op.src_addr // PAGE_SIZE == \
                (op.src_addr + op.size - 1) // PAGE_SIZE

    @pytest.mark.parametrize("page_size", [None, PAGE_SIZE, 16 * PAGE_SIZE])
    def test_page_size_sets_the_run_bound(self, page_size):
        system = build()
        unit = page_size or PAGE_SIZE
        src = system.alloc(64 * PAGE_SIZE, align=16 * PAGE_SIZE)
        dst = system.alloc(64 * PAGE_SIZE, align=16 * PAGE_SIZE) + CL
        runs = [op for op in memcpy_lazy_ops(system, dst, src,
                                             32 * PAGE_SIZE,
                                             page_size=page_size)
                if op.kind is OpKind.MCLAZY]
        assert max(op.size for op in runs) == unit - CL
        for op in runs:
            assert op.addr // unit == (op.addr + op.size - 1) // unit
            assert op.src_addr // unit == \
                (op.src_addr + op.size - 1) // unit

    def test_destinations_are_cacheline_aligned(self):
        system = build()
        src = system.alloc(8192, align=PAGE_SIZE) + 3
        dst = system.alloc(8192, align=PAGE_SIZE) + 21
        for op in memcpy_lazy_ops(system, dst, src, 4000):
            if op.kind is OpKind.MCLAZY:
                assert op.addr % CL == 0
                assert op.size % CL == 0

    def test_small_copies_fall_back_to_eager(self):
        system = build()
        src = system.alloc(128)
        dst = system.alloc(128)
        ops_list = list(memcpy_lazy_ops(system, dst, src, 40))
        assert not any(op.kind is OpKind.MCLAZY for op in ops_list)

    def test_clwb_per_source_line(self):
        system = build()
        src = system.alloc(PAGE_SIZE, align=PAGE_SIZE)
        dst = system.alloc(PAGE_SIZE, align=PAGE_SIZE)
        clwbs = [op for op in memcpy_lazy_ops(system, dst, src, 1024)
                 if op.kind is OpKind.CLWB]
        assert len(clwbs) == 1024 // CL

    def test_no_clwb_when_disabled(self):
        system = build()
        src = system.alloc(PAGE_SIZE, align=PAGE_SIZE)
        dst = system.alloc(PAGE_SIZE, align=PAGE_SIZE)
        ops_list = list(memcpy_lazy_ops(system, dst, src, 1024,
                                        clwb_sources=False))
        assert not any(op.kind is OpKind.CLWB for op in ops_list)

    def test_ends_with_mfence(self):
        system = build()
        src = system.alloc(PAGE_SIZE, align=PAGE_SIZE)
        dst = system.alloc(PAGE_SIZE, align=PAGE_SIZE)
        ops_list = list(memcpy_lazy_ops(system, dst, src, 1024))
        assert ops_list[-1].kind is OpKind.MFENCE


def interposed(system):
    """The ``copy_interpose.so`` policy: lazy from 1KB, eager below."""
    return make_backend("mclazy", system,
                        min_lazy=params.INTERPOSER_MIN_LAZY_SIZE)


class TestInterposer:
    def test_small_copy_eager(self):
        system = build()
        src = system.alloc(4096, align=PAGE_SIZE)
        dst = system.alloc(4096, align=PAGE_SIZE)
        ops_list = list(interposed(system).copy_ops(dst, src, 512))
        assert not any(op.kind is OpKind.MCLAZY for op in ops_list)

    def test_large_copy_lazy(self):
        system = build()
        src = system.alloc(4096, align=PAGE_SIZE)
        dst = system.alloc(4096, align=PAGE_SIZE)
        ops_list = list(interposed(system).copy_ops(dst, src, 2048))
        assert any(op.kind is OpKind.MCLAZY for op in ops_list)

    def test_threshold_boundary(self):
        system = build()
        src = system.alloc(4096, align=PAGE_SIZE)
        dst = system.alloc(4096, align=PAGE_SIZE)
        at = list(interposed(system).copy_ops(dst, src, 1024))
        below = list(interposed(system).copy_ops(dst, src, 1023))
        assert any(op.kind is OpKind.MCLAZY for op in at)
        assert not any(op.kind is OpKind.MCLAZY for op in below)


class TestTouchOps:
    def test_touch_pulls_into_cache(self):
        system = build()
        addr = system.alloc(1024)
        system.run_program(touch_ops(addr, 1024))
        for off in range(0, 1024, CL):
            assert system.hierarchy.l1s[0].probe(addr + off) or \
                system.hierarchy.l2.probe(addr + off)
