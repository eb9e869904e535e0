"""Property test: the O(1) ``pending`` counter vs. an O(n) queue scan.

The engine keeps ``pending = _seq - _consumed`` as a live counter so
sweeps can poll it without walking the calendar, and
:meth:`Simulator._live_events` (behind ``queue_labels`` and the
watchdog post-mortem) must list exactly the events not yet fired.
Mid-drain, the events a cycle has already fired still sit at the head
of its slot, and the scan skips them by count.  This test drives random
schedules, callback-time schedules at mixed phases (including
same-cycle ones that must fire before the rest of the slot) and
partial ``run(until)`` drains, and checks both against the ground truth
after every action and from inside every callback.  Small
``day_length`` values push part of the workload through the far list
and its promotion path; a lifo tie break makes every same-cycle,
same-phase schedule preempt too.
"""

from hypothesis import given, settings, strategies as st

from repro.sim.engine import Simulator

_PHASES = st.sampled_from((0, 0, 1, 2))


@st.composite
def scripts(draw):
    """Schedule actions, each with the children its callback schedules,
    interleaved with partial drains."""
    actions = []
    for _ in range(draw(st.integers(1, 40))):
        if draw(st.integers(0, 3)):
            children = draw(st.lists(
                st.tuples(st.sampled_from((0, 0, 1, 5, 20)), _PHASES),
                max_size=3))
            actions.append(("schedule", draw(st.integers(0, 50)),
                            draw(_PHASES), children))
        else:
            actions.append(("run_until", draw(st.integers(0, 30))))
    return actions


@settings(max_examples=150, deadline=None)
@given(scripts(), st.sampled_from((1, 4, 16, None)),
       st.sampled_from((None, lambda seq: -seq)))
def test_pending_counter_matches_queue_scan(actions, day_length, tie):
    sim = Simulator(tie_break=tie, day_length=day_length)
    queued = set()  # labels scheduled and not yet fired

    def check(where):
        live = sorted(event.label for event in sim._live_events())
        assert live == sorted(queued), f"queue scan diverged {where}"
        assert sim.pending == len(live), f"pending diverged {where}"

    def make(label, children):
        def callback():
            queued.remove(label)
            check(f"inside {label} at cycle {sim.now}")
            for j, (delay, phase) in enumerate(children):
                child = f"{label}.{j}"
                queued.add(child)
                sim.schedule(delay, make(child, ()), child, phase)
                check(f"after {label} scheduled {child}")
        return callback

    for i, action in enumerate(actions):
        if action[0] == "schedule":
            _, delay, phase, children = action
            label = f"e{i}"
            queued.add(label)
            sim.schedule(delay, make(label, children), label, phase)
        else:
            sim.run(until=sim.now + action[1])
        check(f"after {action}")
    # Drain completely: a fully-run queue has nothing pending.
    sim.run()
    check("after the final drain")
    assert sim.pending == 0
