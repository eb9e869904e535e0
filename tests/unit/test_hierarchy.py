"""Unit tests for the cache hierarchy (timing + functional data)."""

import pytest

from repro import System, small_system
from repro.cache.hierarchy import CacheHierarchy
from repro.common import params
from repro.common.errors import AlignmentError
from repro.isa import ops
from repro.sim.engine import Simulator
from repro.sim.packet import PacketType
from repro.sim.stats import StatGroup

CL = 64


def build(**kw):
    return System(small_system(**kw))


class TestLoadPath:
    def test_first_load_misses_second_hits(self):
        system = build()
        addr = system.alloc(4096)
        times = []

        def prog():
            yield ops.load(addr, 8, blocking=True,
                           on_retire=lambda op, t: times.append(t))
            yield ops.load(addr, 8, blocking=True,
                           on_retire=lambda op, t: times.append(t))

        system.run_program(prog())
        l1 = system.stats.children["caches"].children["l1_0"].counters
        assert l1["misses"].value >= 1
        assert l1["hits"].value >= 1
        # Second access (L1 hit) is far faster than the first.
        assert times[1] - times[0] < 50

    def test_l2_hit_path(self):
        system = build()
        addr = system.alloc(4096)

        def prog_a():
            yield ops.load(addr, 8)

        system.run_program(prog_a())
        # Evict from L1 only: invalidate L1 copy, keep L2.
        system.hierarchy.l1s[0].invalidate(addr)

        def prog_b():
            yield ops.load(addr, 8)

        system.run_program(prog_b())
        l2 = system.stats.children["caches"].children["l2"].counters
        assert l2["hits"].value >= 1

    def test_load_value_correct_through_hierarchy(self):
        system = build()
        addr = system.alloc(4096)
        system.backing.write(addr, b"\x12\x34\x56\x78" * 2)
        got = {}

        def prog():
            got["v"] = (yield ops.load(addr, 8, blocking=True))

        system.run_program(prog())
        assert got["v"] == b"\x12\x34\x56\x78" * 2


class TestCoherence:
    def test_peer_core_sees_dirty_data(self):
        system = build()
        addr = system.alloc(4096)
        got = {}

        def writer():
            yield ops.store(addr, 8, data=b"WRITTEN!")
            yield ops.mfence()

        def reader():
            got["v"] = (yield ops.load(addr, 8, blocking=True))

        system.run_program(writer(), core=0)
        system.run_program(reader(), core=1)
        assert got["v"] == b"WRITTEN!"

    def test_store_invalidates_peer_copy(self):
        system = build()
        addr = system.alloc(4096)

        def reader():
            yield ops.load(addr, 8)

        system.run_program(reader(), core=1)
        assert system.hierarchy.l1s[1].probe(addr)

        def writer():
            yield ops.store(addr, 8, data=b"AAAAAAAA")

        system.run_program(writer(), core=0)
        assert not system.hierarchy.l1s[1].probe(addr)

    def test_partial_nt_store_merges_peer_dirty_line(self):
        # Core 0's written line sits dirty in its L1 over a stale RFO
        # fill in the L2; core 1's partial NT store must merge core 0's
        # bytes, not the L2's.
        system = build()
        addr = system.alloc(4096)

        def writer():
            yield ops.store(addr, 8, data=b"CORE0NEW")
            yield ops.mfence()

        def streamer():
            yield ops.nt_store(addr + 8, 8, data=b"CORE1NT!")
            yield ops.mfence()

        system.run_program(writer(), core=0)
        system.run_program(streamer(), core=1)
        system.drain()
        assert system.read_memory(addr, 16) == b"CORE0NEWCORE1NT!"

    def test_cross_core_clwb_writes_back_the_newest_copy(self):
        # Core 1 writes the line and evicts it (dirty) into the L2;
        # core 0 writes it again.  A CLWB from core 2 must write back
        # core 0's L1 copy, not the older dirty L2 copy.
        system = build(num_cpus=3)
        l1 = system.hierarchy.l1s[1]
        stride = l1.num_sets * CL
        addr = system.alloc((l1.assoc + 2) * stride, align=stride)

        def first_writer():
            yield ops.store(addr, 8, data=b"OLDDATA!")
            for i in range(1, l1.assoc + 2):  # same set: evicts addr
                yield ops.load(addr + i * stride, 8, blocking=True)
            yield ops.mfence()

        def second_writer():
            yield ops.store(addr, 8, data=b"NEWDATA!")
            yield ops.mfence()

        def flusher():
            yield ops.clwb(addr)
            yield ops.mfence()

        system.run_program(first_writer(), core=1)
        assert not l1.probe(addr)
        system.run_program(second_writer(), core=0)
        system.run_program(flusher(), core=2)
        system.drain()
        assert system.backing.read(addr, 8) == b"NEWDATA!"
        assert system.read_memory(addr, 8) == b"NEWDATA!"


class TestWritebackPath:
    def test_dirty_eviction_reaches_memory(self):
        system = build()
        # Write many lines mapping to the same L1 set to force eviction
        # all the way through L2.
        base = system.alloc(1 << 21, align=1 << 21)

        def prog():
            for i in range(600):
                yield ops.store(base + i * 4096, 8, data=b"\xEE" * 8)
            yield ops.mfence()

        system.run_program(prog())
        system.drain()
        for mc in system.controllers:
            mc.drain_wpq_fully()
        # At least some of the early stores must have reached backing.
        hit = any(system.backing.read(base + i * 4096, 8) == b"\xEE" * 8
                  for i in range(10))
        assert hit

    def test_flush_all_writes_back_everything(self):
        system = build()
        addr = system.alloc(4096)

        def prog():
            yield ops.store(addr, 8, data=b"FLUSHME!")

        system.run_program(prog())
        system.hierarchy.flush_all()
        system.drain()
        assert system.backing.read(addr, 8) == b"FLUSHME!"


class TestClwb:
    def test_clwb_writes_back_and_keeps_line(self):
        system = build()
        addr = system.alloc(4096)

        def prog():
            yield ops.store(addr, 8, data=b"CLWBDATA")
            yield ops.clwb(addr)
            yield ops.mfence()

        system.run_program(prog())
        assert system.backing.read(addr, 8) == b"CLWBDATA"
        line = system.hierarchy.l1s[0].lookup(addr, 0, touch=False)
        assert line is not None and not line.dirty

    def test_clwb_refreshes_the_stale_l2_copy(self):
        # The store's RFO fill leaves a clean pre-store copy in the L2.
        # Once CLWB cleans the L1 line, a peer's load that misses its
        # own L1 must not be served that stale L2 copy.
        system = build()
        addr = system.alloc(4096)
        got = {}

        def writer():
            yield ops.store(addr, 8, data=b"CLWBDATA")
            yield ops.clwb(addr)
            yield ops.mfence()

        def reader():
            got["v"] = (yield ops.load(addr, 8, blocking=True))

        system.run_program(writer(), core=0)
        system.run_program(reader(), core=1)
        assert got["v"] == b"CLWBDATA"

    def test_clwb_parallelism_limit_serializes_long_trains(self):
        def run(n_lines):
            system = build()
            base = system.alloc(n_lines * CL, align=4096)

            def prog():
                for i in range(n_lines):
                    yield ops.clwb(base + i * CL)
                yield ops.mfence()

            return system.run_program(prog())

        short = run(4)
        long = run(64)
        # 16x the lines should cost clearly more than 3x once the LFB
        # pool saturates (drain-rate bound, not issue bound).
        assert long > short * 3


class TestMclazyAtCaches:
    def test_dest_lines_invalidated(self):
        system = build()
        src = system.alloc(4096, align=4096)
        dst = system.alloc(4096, align=4096)

        def prog():
            yield ops.load(dst, 8)   # cache a dest line
            yield ops.mclazy(dst, src, 4096)
            yield ops.mfence()

        system.run_program(prog())
        assert not system.hierarchy.l1s[0].probe(dst)

    def test_dirty_source_written_back_before_insert(self):
        system = build()
        src = system.alloc(4096, align=4096)
        dst = system.alloc(4096, align=4096)

        def prog():
            yield ops.store(src, 8, data=b"NEWSRC!!")
            # No CLWB: the MCLAZY packet itself must flush the line.
            yield ops.mclazy(dst, src, 4096)
            yield ops.mfence()

        system.run_program(prog())
        system.drain()
        assert system.read_memory(dst, 8) == b"NEWSRC!!"


class TestBulkCopy:
    def test_bulk_copy_moves_data(self):
        system = build()
        src = system.alloc(8192, align=4096)
        dst = system.alloc(8192, align=4096)
        system.backing.fill(src, 8192, 0x3A)

        def prog():
            yield ops.bulk_copy(dst, src, 8192)

        system.run_program(prog())
        assert system.read_memory(dst, 8192) == b"\x3A" * 8192

    def test_bulk_copy_includes_cached_dirty_source(self):
        system = build()
        src = system.alloc(4096, align=4096)
        dst = system.alloc(4096, align=4096)

        def prog():
            yield ops.store(src, 8, data=b"DIRTYSRC")
            yield ops.bulk_copy(dst, src, 4096)

        system.run_program(prog())
        assert system.read_memory(dst, 8) == b"DIRTYSRC"

    def test_bulk_copy_invalidates_stale_dest_cache(self):
        system = build()
        src = system.alloc(4096, align=4096)
        dst = system.alloc(4096, align=4096)
        system.backing.fill(src, 4096, 0x99)
        got = {}

        def prog():
            yield ops.load(dst, 8)  # cache stale zeros
            yield ops.bulk_copy(dst, src, 4096)
            got["v"] = (yield ops.load(dst, 8, blocking=True))

        system.run_program(prog())
        assert got["v"] == b"\x99" * 8

    @pytest.mark.parametrize("dst_off, src_off, size", [
        (8, 0, 4096), (0, 8, 4096), (0, 0, 4096 - 8)])
    def test_misaligned_bulk_copy_raises_alignment_error(self, dst_off,
                                                        src_off, size):
        # A raise, not an assert: ``python -O`` strips asserts, and a
        # partial line would then be copied whole, past dst + size.
        system = build()
        src = system.alloc(8192, align=4096)
        dst = system.alloc(8192, align=4096)
        system.backing.fill(src, 8192, 0x3A)

        def prog():
            yield ops.bulk_copy(dst + dst_off, src + src_off, size)

        with pytest.raises(AlignmentError, match="cacheline-aligned"):
            system.run_program(prog())
        assert system.read_memory(dst, 8192) == bytes(8192)


class TestFillEpochs:
    """An invalidation epoch lives only while a fill that captured it is
    outstanding, and that fill must still see every invalidation."""

    @pytest.mark.parametrize("copy_op", [ops.bulk_copy, ops.mclazy])
    def test_table_empty_after_a_drained_copy(self, copy_op):
        system = build()
        lines = 64
        src = system.alloc(lines * CL, align=4096)
        dst = system.alloc(lines * CL, align=4096)
        system.backing.fill(src, lines * CL, 0x5C)

        def prog():
            # Fills of the destination are in flight when the copy
            # invalidates it, so the copy does bump epochs.
            for i in range(0, lines * CL, 4 * CL):
                yield ops.load(dst + i, 8)
            yield copy_op(dst, src, lines * CL)
            yield ops.mfence()
            for i in range(0, lines * CL, CL):
                yield ops.load(dst + i, 8)

        system.run_program(prog())
        system.drain()
        hierarchy = system.hierarchy
        assert hierarchy._fill_epoch == {}
        assert hierarchy._epoch_captures == 0
        assert system.read_memory(dst, lines * CL) == b"\x5C" * (lines * CL)

    def test_invalidated_fill_stays_stale_after_an_unrelated_fill(self):
        # Drive the hierarchy alone so the packets complete in a chosen
        # order: x's fill is in flight when an MCLAZY invalidates x, and
        # y's unrelated fill completes before x's returns.  Releasing
        # y's capture must not forget x's invalidation.
        sim = Simulator()
        sent = []
        hierarchy = CacheHierarchy(sim, 1, sent.append, StatGroup("caches"),
                                   prefetch_enabled=False)
        x, y = 0x1000, 0x2000
        got = {}
        hierarchy.load(0, x, 8, lambda data, t: got.setdefault("x", data))
        hierarchy.load(0, y, 8, lambda data, t: got.setdefault("y", data))
        read_x, read_y = sent
        assert read_x.ptype is PacketType.READ and read_x.addr == x
        hierarchy.handle_mclazy(0, x, 0x3000, CL, lambda t: None)
        read_y.data = b"\x22" * CL
        read_y.complete(sim.now)
        sim.run()
        assert got["y"] == b"\x22" * 8
        assert hierarchy.l2.probe(y)

        read_x.data = b"\x11" * CL  # the pre-copy bytes
        read_x.complete(sim.now)
        sim.run()
        # The program-order-older load still gets the older data, but
        # the stale line is installed nowhere.
        assert got["x"] == b"\x11" * 8
        assert not hierarchy.l1s[0].probe(x)
        assert not hierarchy.l2.probe(x)
        assert hierarchy._fill_epoch == {}
