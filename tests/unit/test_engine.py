"""Unit tests for the discrete-event engine."""

import pytest

from repro.common.errors import SimulationError
from repro.sim.engine import Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(30, lambda: order.append("c"))
        sim.schedule(10, lambda: order.append("a"))
        sim.schedule(20, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"]
        assert sim.now == 30

    def test_fifo_among_equal_timestamps(self):
        sim = Simulator()
        order = []
        for i in range(5):
            sim.schedule(10, lambda i=i: order.append(i))
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_schedule_at_absolute(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(42, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [42]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1, lambda: None)

    def test_schedule_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(10, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(5, lambda: None)

    def test_nested_scheduling(self):
        sim = Simulator()
        seen = []

        def outer():
            seen.append(("outer", sim.now))
            sim.schedule(5, inner)

        def inner():
            seen.append(("inner", sim.now))

        sim.schedule(10, outer)
        sim.run()
        assert seen == [("outer", 10), ("inner", 15)]


class TestRunUntil:
    def test_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(10, lambda: fired.append(10))
        sim.schedule(100, lambda: fired.append(100))
        sim.run(until=50)
        assert fired == [10]
        assert sim.now == 50
        sim.run()
        assert fired == [10, 100]

    def test_until_includes_exact_boundary(self):
        sim = Simulator()
        fired = []
        sim.schedule(50, lambda: fired.append(50))
        sim.run(until=50)
        assert fired == [50]

    def test_until_advances_clock_when_idle(self):
        sim = Simulator()
        sim.run(until=123)
        assert sim.now == 123


class TestPendingCounter:
    def test_pending_accurate_from_within_callback(self):
        # verification.ConsistencyChecker reads sim.pending mid-run.
        sim = Simulator()
        seen = []
        sim.schedule(1, lambda: seen.append(sim.pending))
        sim.schedule(2, lambda: None)
        sim.run()
        assert seen == [1]


class TestProfilingHook:
    def test_label_costs_collected_with_injected_clock(self):
        sim = Simulator()
        ticks = iter(range(1000))
        sim.enable_profiling(lambda: float(next(ticks)))
        sim.schedule(1, lambda: None, label="alpha")
        sim.schedule(2, lambda: None, label="alpha")
        sim.schedule(3, lambda: None)
        sim.run()
        costs = sim.label_costs()
        assert costs["alpha"]["count"] == 2
        assert costs["alpha"]["total_s"] == 2.0  # 1 tick per callback
        assert costs["<unlabelled>"]["count"] == 1
        sim.disable_profiling()
        sim.schedule(1, lambda: None, label="alpha")
        sim.run()
        assert sim.label_costs()["alpha"]["count"] == 2

    def test_profiling_does_not_change_results(self):
        def trace(sim):
            order = []
            for t in (5, 1, 3):
                sim.schedule(t, lambda t=t: order.append((t, sim.now)))
            sim.run()
            return order, sim.now, sim.events_fired

        plain = trace(Simulator())
        profiled_sim = Simulator()
        profiled_sim.enable_profiling(lambda: 0.0)
        assert trace(profiled_sim) == plain


class TestLivelockGuard:
    def test_max_events_raises(self):
        sim = Simulator()

        def rearm():
            sim.schedule(1, rearm)

        sim.schedule(1, rearm)
        with pytest.raises(SimulationError):
            sim.run(max_events=1000)

    def test_livelock_error_is_a_simulation_error(self):
        from repro.common.errors import LivelockError

        sim = Simulator()

        def rearm():
            sim.schedule(1, rearm)

        sim.schedule(1, rearm)
        with pytest.raises(LivelockError):
            sim.run(max_events=1000)

    def test_budget_spent_on_final_event_does_not_raise(self):
        # Exactly max_events fired and the queue is empty: the run
        # finished, it did not livelock.
        sim = Simulator()
        fired = []
        for i in range(5):
            sim.schedule(i + 1, lambda i=i: fired.append(i))
        sim.run(max_events=5)
        assert len(fired) == 5

    def test_budget_with_work_remaining_raises(self):
        sim = Simulator()
        for i in range(6):
            sim.schedule(i + 1, lambda: None)
        with pytest.raises(SimulationError):
            sim.run(max_events=5)


class TestTimeMonotonicity:
    def _poisoned_queue(self):
        # Force a from-the-past event behind the scheduling API's back
        # (a buggy component mutating `when` could do the same).  The
        # ring cannot hold past cycles by construction, so the far heap
        # is the seam where a poisoned timestamp can appear.
        import heapq

        from repro.sim.engine import Event

        sim = Simulator()
        sim.schedule(10, lambda: None)
        sim.run()
        assert sim.now == 10
        poisoned = Event(3, 999, lambda: None)
        heapq.heappush(sim._far, (3, 999, poisoned))
        # Pending = _seq - _consumed: account the smuggled event so the
        # locate loop sees it.
        sim._consumed -= 1
        return sim

    def test_run_rejects_backwards_time(self):
        sim = self._poisoned_queue()
        with pytest.raises(SimulationError, match="backwards"):
            sim.run()

    def test_queue_labels_histogram(self):
        sim = Simulator()
        inside = []
        sim.schedule(1, lambda: None, label="gamma")
        sim.schedule(2, lambda: None, label="alpha")
        sim.schedule(2, lambda: inside.append(sim.queue_labels()),
                     label="alpha")
        sim.schedule(2, lambda: None, label="beta")
        sim.schedule(3, lambda: None, label="alpha")
        sim.schedule(5, lambda: None)
        sim.run(until=1)
        labels = sim.queue_labels()
        assert labels == {"alpha": 3, "beta": 1, "<unlabelled>": 1}
        assert "gamma" not in labels  # fired
        assert list(sim.queue_labels(limit=1)) == ["alpha"]
        sim.run()
        # Mid-drain, the events already fired this cycle (the running
        # one included) are not queued any more.
        assert inside == [{"alpha": 1, "beta": 1, "<unlabelled>": 1}]
