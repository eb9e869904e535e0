"""Unit tests for the (MC)² consistency checker."""

import pytest

from repro import System, small_system
from repro.isa import ops
from repro.mcsquare.ctt import CttEntry
from repro.mcsquare.verification import ConsistencyChecker, ConsistencyError
from repro.sw.memcpy import memcpy_lazy_ops


class TestVerify:
    def test_clean_system_passes(self):
        system = System(small_system())
        checker = ConsistencyChecker(system)
        checker.verify()
        assert checker.checks_run == 1

    def test_passes_during_real_workload(self):
        system = System(small_system())
        checker = ConsistencyChecker(system)
        src = system.alloc(8192, align=4096)
        dst = system.alloc(8192, align=4096)

        def prog():
            yield from memcpy_lazy_ops(system, dst, src, 8192)
            for off in range(0, 8192, 64):
                yield ops.store(src + off, 64, data=b"\x01" * 64)
            for off in range(0, 8192, 64):
                yield ops.clwb(src + off)
            yield ops.mfence()

        checker.attach(every_cycles=500)
        system.run_program(prog())
        system.drain()
        checker.verify()
        assert checker.checks_run > 1

    def test_detects_corrupted_ctt(self):
        system = System(small_system())
        # Inject two overlapping destination entries behind the API's back.
        system.ctt._add(CttEntry(0x10000, 0x20000, 128))
        system.ctt._add(CttEntry(0x10040, 0x30000, 128))
        checker = ConsistencyChecker(system)
        with pytest.raises(ConsistencyError):
            checker.verify()

    def test_detects_double_dirty_line(self):
        system = System(small_system())
        addr = system.alloc(4096)
        system.hierarchy.l1s[0].fill(addr, bytes(64), now=0, dirty=True)
        system.hierarchy.l1s[1].fill(addr, bytes(64), now=0, dirty=True)
        checker = ConsistencyChecker(system)
        with pytest.raises(ConsistencyError):
            checker.verify()

    def test_detach_stops_checks(self):
        system = System(small_system())
        checker = ConsistencyChecker(system)
        checker.attach(every_cycles=100)
        checker.detach()
        system.sim.run()
        assert checker.checks_run == 0

    def test_detached_tick_fires_but_checks_nothing(self):
        system = System(small_system())
        checker = ConsistencyChecker(system)
        checker.attach(every_cycles=100)
        system.sim.schedule(500, lambda: None, label="filler")
        system.sim.run(until=250)
        assert checker.checks_run == 2
        checker.detach()
        # The tick queued for cycle 300 still fires, runs no check and
        # does not re-arm.
        assert system.sim.queue_labels()["consistency-check"] == 1
        system.sim.run(until=300)
        assert "consistency-check" not in system.sim.queue_labels()
        system.sim.run()
        assert checker.checks_run == 2

    def test_reattach_runs_one_tick_chain(self):
        system = System(small_system())
        checker = ConsistencyChecker(system)
        checker.attach(every_cycles=100)
        checker.detach()
        checker.attach(every_cycles=100)
        system.sim.schedule(550, lambda: None, label="filler")
        system.sim.run()
        # One chain: checks at 100..500, then one at 600 that finds the
        # queue empty and stops.  The detached chain's tick checked
        # nothing.
        assert checker.checks_run == 6
        assert system.sim.now == 600

    def test_bad_period_rejected(self):
        system = System(small_system())
        with pytest.raises(Exception):
            ConsistencyChecker(system).attach(every_cycles=0)

    def test_baseline_system_trivially_consistent(self):
        system = System(small_system(mcsquare_enabled=False))
        ConsistencyChecker(system).verify()


class TestFailureDiagnostics:
    def _corrupt(self, system):
        system.ctt._add(CttEntry(0x10000, 0x20000, 128))
        system.ctt._add(CttEntry(0x10040, 0x30000, 128))

    def test_failure_carries_cycle_and_check_number(self):
        system = System(small_system())
        self._corrupt(system)
        checker = ConsistencyChecker(system)
        with pytest.raises(ConsistencyError, match=r"cycle \d+, check #1"):
            checker.verify()

    def test_check_number_counts_prior_passes(self):
        system = System(small_system())
        checker = ConsistencyChecker(system)
        checker.verify()
        checker.verify()
        self._corrupt(system)
        with pytest.raises(ConsistencyError, match=r"check #3"):
            checker.verify()

    def test_periodic_failure_detaches_cleanly(self):
        system = System(small_system())
        checker = ConsistencyChecker(system)
        checker.attach(every_cycles=100)
        self._corrupt(system)
        # Keep the queue busy past the first check so the tick fires.
        for i in range(1, 6):
            system.sim.schedule(100 * i, lambda: None, label="filler")
        with pytest.raises(ConsistencyError):
            system.sim.run()
        # The failed tick did not re-arm: no check is left queued.
        assert "consistency-check" not in system.sim.queue_labels()
        assert "filler" in system.sim.queue_labels()
        checker.detach()
