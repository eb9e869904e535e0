"""Integration-style tests for the (MC)² controller semantics (§III-B).

These drive full systems through programs and check both *data*
(bit-exact memcpy semantics) and *mechanism* (bounces, BPQ parking,
async freeing, MCFREE) via the stats tree.
"""

import pytest

from repro import System, SystemConfig, small_system
from repro.isa import ops
from repro.sw.memcpy import memcpy_lazy_ops

CL = 64


def lazy_system(**overrides):
    return System(small_system(**overrides))


def mc_stat(system, name):
    return sum(system.stats.children[f"mc{ch}"].counters[name].value
               for ch in range(system.config.dram_channels))


def fill(system, addr, size, value):
    system.backing.fill(addr, size, value)


class TestLazyCopyBasics:
    def test_prospective_copy_inserts_ctt_entries(self):
        system = lazy_system()
        src = system.alloc(4096, align=4096)
        dst = system.alloc(4096, align=4096)
        system.run_program(memcpy_lazy_ops(system, dst, src, 4096))
        assert len(system.ctt) >= 1
        assert system.ctt.tracked_bytes() == 4096

    def test_no_dram_data_traffic_for_untouched_copy(self):
        system = lazy_system()
        src = system.alloc(4096, align=4096)
        dst = system.alloc(4096, align=4096)
        system.run_program(memcpy_lazy_ops(system, dst, src, 4096))
        # Only control traffic: no demand reads of the copied data.
        assert mc_stat(system, "bounces") == 0

    def test_read_from_destination_bounces_and_returns_source_data(self):
        system = lazy_system()
        src = system.alloc(4096, align=4096)
        dst = system.alloc(4096, align=4096)
        fill(system, src, 4096, 0x5C)
        values = {}

        def prog():
            yield from memcpy_lazy_ops(system, dst, src, 4096)
            v = yield ops.load(dst + 128, 8, blocking=True)
            values["v"] = v

        system.run_program(prog())
        assert values["v"] == b"\x5C" * 8
        assert mc_stat(system, "bounces") >= 1

    def test_bounce_writeback_untracks_line(self):
        system = lazy_system()
        src = system.alloc(4096, align=4096)
        dst = system.alloc(4096, align=4096)
        fill(system, src, 4096, 0x5C)

        def prog():
            yield from memcpy_lazy_ops(system, dst, src, 4096)
            yield ops.load(dst, 8, blocking=True)

        system.run_program(prog())
        system.drain()
        # The read line was resolved and persisted to memory.
        assert system.backing.read_line(dst) == b"\x5C" * CL
        assert system.ctt.lookup_dest_line(dst) is None
        assert mc_stat(system, "bounce_writebacks") >= 1

    def test_no_writeback_config_keeps_tracking(self):
        system = lazy_system(bounce_writeback=False)
        src = system.alloc(4096, align=4096)
        dst = system.alloc(4096, align=4096)
        fill(system, src, 4096, 0x5C)

        def prog():
            yield from memcpy_lazy_ops(system, dst, src, 4096)
            yield ops.load(dst, 8, blocking=True)
            yield ops.load(dst, 8, blocking=True)

        system.run_program(prog())
        system.drain()
        assert mc_stat(system, "bounce_writebacks") == 0
        assert system.ctt.lookup_dest_line(dst) is not None

    def test_misaligned_copy_double_bounces(self):
        system = lazy_system(prefetch_enabled=False)
        src = system.alloc(8192, align=4096) + 16  # misaligned source
        dst = system.alloc(8192, align=4096)
        fill(system, src, 4096, 0x7E)

        def prog():
            yield from memcpy_lazy_ops(system, dst, src, 4096)
            yield ops.load(dst + CL, 8, blocking=True)

        system.run_program(prog())
        assert mc_stat(system, "double_bounces") >= 1
        system.drain()

    def test_read_from_source_unaffected(self):
        system = lazy_system()
        src = system.alloc(4096, align=4096)
        dst = system.alloc(4096, align=4096)
        fill(system, src, 4096, 0x11)
        values = {}

        def prog():
            yield from memcpy_lazy_ops(system, dst, src, 4096)
            values["v"] = (yield ops.load(src, 8, blocking=True))

        system.run_program(prog())
        assert values["v"] == b"\x11" * 8
        assert mc_stat(system, "bounces") == 0


class TestDestinationWrites:
    def test_write_to_destination_untracks(self):
        system = lazy_system()
        src = system.alloc(4096, align=4096)
        dst = system.alloc(4096, align=4096)
        fill(system, src, 4096, 0x11)

        def prog():
            yield from memcpy_lazy_ops(system, dst, src, 4096)
            yield ops.store(dst, 64, data=b"\x99" * 64)
            yield ops.clwb(dst)
            yield ops.mfence()

        system.run_program(prog())
        system.drain()
        assert system.ctt.lookup_dest_line(dst) is None
        # Other lines still tracked.
        assert system.ctt.lookup_dest_line(dst + CL) is not None
        # Final data: first line new, rest still the lazy copy.
        assert system.read_memory(dst, CL) == b"\x99" * CL
        assert system.read_memory(dst + CL, CL) == b"\x11" * CL


class TestSourceWrites:
    def test_source_write_preserves_copy_semantics(self):
        system = lazy_system()
        src = system.alloc(4096, align=4096)
        dst = system.alloc(4096, align=4096)
        fill(system, src, 4096, 0x11)

        def prog():
            yield from memcpy_lazy_ops(system, dst, src, 4096)
            for off in range(0, 4096, CL):
                yield ops.store(src + off, CL, data=b"\x22" * CL)
            for off in range(0, 4096, CL):
                yield ops.clwb(src + off)
            yield ops.mfence()

        system.run_program(prog())
        system.drain()
        assert system.read_memory(dst, 4096) == b"\x11" * 4096
        assert system.read_memory(src, 4096) == b"\x22" * 4096
        assert mc_stat(system, "src_write_copies") >= 1

    def test_bpq_full_stalls_are_counted(self):
        system = lazy_system(bpq_entries=1)
        src = system.alloc(4096, align=4096)
        dst = system.alloc(4096, align=4096)

        def prog():
            yield from memcpy_lazy_ops(system, dst, src, 4096)
            for off in range(0, 4096, CL):
                yield ops.store(src + off, CL, data=b"\x33" * CL)
            for off in range(0, 4096, CL):
                yield ops.clwb(src + off)
            yield ops.mfence()

        system.run_program(prog())
        system.drain()
        bpq_stalls = sum(
            system.stats.children[f"mc{ch}"].children["bpq"]
            .counters["full_stalls"].value
            for ch in range(system.config.dram_channels))
        assert bpq_stalls > 0
        assert system.read_memory(dst, 4096) == bytes(4096)
        assert system.read_memory(src, 4096) == b"\x33" * 4096

    def test_small_bpq_slower_than_large(self):
        def run(entries):
            system = System(small_system(bpq_entries=entries))
            src = system.alloc(16384, align=4096)
            dst = system.alloc(16384, align=4096)

            def prog():
                yield from memcpy_lazy_ops(system, dst, src, 16384)
                for off in range(0, 16384, CL):
                    yield ops.store(src + off, CL, data=b"\x44" * CL)
                for off in range(0, 16384, CL):
                    yield ops.clwb(src + off)
                yield ops.mfence()

            t = system.run_program(prog())
            system.drain()
            return t

        assert run(1) > run(8)


class TestMcfree:
    def test_mcfree_drops_tracking(self):
        system = lazy_system()
        src = system.alloc(4096, align=4096)
        dst = system.alloc(4096, align=4096)

        def prog():
            yield from memcpy_lazy_ops(system, dst, src, 4096)
            yield ops.mcfree(dst, 4096)
            yield ops.mfence()

        system.run_program(prog())
        system.drain()
        assert system.ctt.lookup_dest_line(dst) is None
        assert mc_stat(system, "mcfrees") == 1


class TestAsyncFree:
    def test_ctt_drains_in_background_past_threshold(self):
        system = lazy_system(ctt_entries=8, copy_threshold=0.5)
        pairs = []

        def prog():
            for i in range(8):
                src = system.alloc(4096, align=4096)
                dst = system.alloc(4096, align=4096)
                system.backing.fill(src, 4096, 0x40 + i)
                pairs.append((dst, src, 0x40 + i))
                yield from memcpy_lazy_ops(system, dst, src, 4096)

        system.run_program(prog())
        system.drain()
        # Background copies resolved entries and wrote real data.
        assert mc_stat(system, "async_frees") > 0
        for dst, src, val in pairs:
            assert system.read_memory(dst, 4096) == bytes([val]) * 4096

    def test_full_ctt_stalls_then_recovers(self):
        system = lazy_system(ctt_entries=4, copy_threshold=0.9)

        def prog():
            for i in range(12):
                src = system.alloc(4096, align=4096)
                dst = system.alloc(4096, align=4096)
                yield from memcpy_lazy_ops(system, dst, src, 4096)

        system.run_program(prog())
        system.drain()
        # The program finished despite the tiny table (stall + retry).
        assert len(system.ctt) <= 4


class TestChainedCopies:
    def test_copy_of_copy_returns_original_data(self):
        system = lazy_system()
        a = system.alloc(4096, align=4096)
        b = system.alloc(4096, align=4096)
        c = system.alloc(4096, align=4096)
        fill(system, a, 4096, 0x61)
        values = {}

        def prog():
            yield from memcpy_lazy_ops(system, b, a, 4096)
            yield from memcpy_lazy_ops(system, c, b, 4096)
            values["c"] = (yield ops.load(c + 256, 8, blocking=True))

        system.run_program(prog())
        system.drain()
        assert values["c"] == b"\x61" * 8
        assert system.read_memory(c, 4096) == b"\x61" * 4096

    def test_overwriting_copy_wins(self):
        system = lazy_system()
        a = system.alloc(4096, align=4096)
        b = system.alloc(4096, align=4096)
        d = system.alloc(4096, align=4096)
        fill(system, a, 4096, 0xA1)
        fill(system, b, 4096, 0xB2)

        def prog():
            yield from memcpy_lazy_ops(system, d, a, 4096)
            yield from memcpy_lazy_ops(system, d, b, 4096)

        system.run_program(prog())
        system.drain()
        assert system.read_memory(d, 4096) == b"\xB2" * 4096

    def test_eager_boundary_line_drops_stale_destination_poison(self):
        """A line copied at insert is wholly rewritten from its sources,
        so it carries their poison, not the destination's old poison."""
        system = lazy_system()
        first_src = system.alloc(1024, align=4096)
        first_dst = system.alloc(2048, align=4096)
        second_dst = system.alloc(1024, align=4096)
        fill(system, first_src, 1024, 0x11)
        fill(system, first_dst, 2048, 0x22)
        # The second copy's source starts 520 B into the first
        # destination, so the line holding its byte 503 draws from two
        # sources and is copied at insert.
        eager_line = second_dst + 448
        system.backing.poison(eager_line)

        def prog():
            yield from memcpy_lazy_ops(system, first_dst, first_src, 1024)
            yield from memcpy_lazy_ops(system, second_dst, first_dst + 520,
                                       1024)
            yield ops.mfence()

        system.run_program(prog())
        system.drain()
        assert mc_stat(system, "eager_boundary_lines") == 1
        assert system.read_memory(eager_line, CL) == \
            b"\x11" * 56 + b"\x22" * 8
        assert system.poisoned_lines() == set()
        assert mc_stat(system, "poison_propagations") == 0


class TestChainedSourceWrites:
    """Regression: liveness when the CTT is rewritten under parked writes.

    Found by the oracle property suite: a parked source write whose
    dependent copies were replaced by newer overlapping copies must
    re-derive its dependents, and materializing a line that itself backs
    other prospective copies must resolve those first (copy chains built
    before the line became a destination)."""

    def test_source_write_with_pre_existing_downstream_copy(self):
        system = lazy_system()
        a = system.alloc(4096, align=4096)
        d = system.alloc(4096, align=4096)
        c = system.alloc(4096, align=4096)
        x = system.alloc(4096, align=4096)
        fill(system, a, 4096, 0xA1)
        fill(system, d, 4096, 0xD2)
        fill(system, x, 4096, 0x0F)

        def prog():
            # E2 first: D -> C (C should end up with OLD D = 0xD2).
            yield from memcpy_lazy_ops(system, c, d, 4096)
            # E1 second: X -> D (D becomes a destination over E2's source).
            yield from memcpy_lazy_ops(system, d, x, 4096)
            # Now write X: parked; materializing D must first resolve C.
            for off in range(0, 4096, CL):
                yield ops.store(x + off, CL, data=b"\x77" * CL)
            for off in range(0, 4096, CL):
                yield ops.clwb(x + off)
            yield ops.mfence()

        system.run_program(prog(), max_cycles=50_000_000)
        system.drain()
        assert system.read_memory(c, 4096) == b"\xD2" * 4096
        assert system.read_memory(d, 4096) == b"\x0F" * 4096
        assert system.read_memory(x, 4096) == b"\x77" * 4096

    def test_parked_write_survives_ctt_rewrite(self):
        system = lazy_system()
        src1 = system.alloc(4096, align=4096)
        src2 = system.alloc(4096, align=4096)
        dst = system.alloc(4096, align=4096)
        fill(system, src1, 4096, 0x11)
        fill(system, src2, 4096, 0x22)

        def prog():
            yield from memcpy_lazy_ops(system, dst, src1, 4096)
            # Park writes against src1 while its copies are pending...
            for off in range(0, 4096, CL):
                yield ops.store(src1 + off, CL, data=b"\x99" * CL)
            for off in range(0, 4096, CL):
                yield ops.clwb(src1 + off)
            # ...and immediately overwrite the destination tracking with
            # a different copy, dropping the in-flight materializations.
            yield from memcpy_lazy_ops(system, dst, src2, 4096)
            yield ops.mfence()

        system.run_program(prog(), max_cycles=50_000_000)
        system.drain()
        assert system.read_memory(dst, 4096) == b"\x22" * 4096
        assert system.read_memory(src1, 4096) == b"\x99" * 4096
        # Nothing left parked: all BPQ entries drained.
        for mc in system.controllers:
            assert len(mc.bpq) == 0


class TestGracefulDegradation:
    def _many_copies(self, system, count=8):
        pairs = []

        def prog():
            for i in range(count):
                src = system.alloc(4096, align=4096)
                dst = system.alloc(4096, align=4096)
                system.backing.fill(src, 4096, 0x60 + i)
                pairs.append((dst, 0x60 + i))
                yield from memcpy_lazy_ops(system, dst, src, 4096)

        system.run_program(prog())
        system.drain()
        return pairs

    def test_default_config_never_degrades(self):
        # A 2-entry table under eight copies: the paper's stall-forever
        # semantics complete every copy through retries and background
        # draining.
        system = lazy_system(ctt_entries=2)
        pairs = self._many_copies(system)
        assert mc_stat(system, "ctt_full_stalls") > 0
        for dst, val in pairs:
            assert system.read_memory(dst, 4096) == bytes([val]) * 4096
