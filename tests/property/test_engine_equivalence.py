"""Property test: calendar queue vs. the retired heap scheduler.

The calendar-queue engine replaced a binary heap whose dispatch order
*was* the repo's ordering contract: pop by ``(when, key)`` with
``key = tie(seq) + phase * 2**40``.  This test keeps that old engine
alive as a ~40-line oracle (:class:`_HeapScheduler`, distilled from the
pre-rewrite ``sim/engine.py``) and drives randomized
schedule/cancel/run workloads — including callback-time schedules and
cancels, partial ``run(until)`` drains, and far-list-crossing delays —
through both.  The (cycle, phase, label) dispatch sequences must be
identical under every installed tie break: fifo (native), lifo, and
the ``seeded:N`` Weyl hash used by ``REPRO_TIE_ORDER``.

The scripts also single-step (``step()``), schedule exactly one cycle
short of, at, and one past a full calendar rotation, and leave idle
gaps longer than 64 cycles, so the run loops' jump to the next busy
slot through the occupancy map is exercised across the far-list
boundary and across wrap-around.  After every action the occupancy
map must equal ``[bool(slot) for slot in ring]``.
"""

import heapq

from hypothesis import given, settings, strategies as st

from repro.sim.engine import _DEFAULT_DAY_LENGTH, _PHASE_STRIDE, Simulator

_TIE_BREAKS = (
    ("fifo", None),
    ("lifo", lambda seq: -seq),
    ("seeded:7", lambda seq: ((seq + 7) * 0x9E3779B1) & 0xFFFFFFFF),
    ("seeded:23", lambda seq: ((seq + 23) * 0x9E3779B1) & 0xFFFFFFFF),
)


class _OracleEvent:
    """Cancellation handle matching :class:`repro.sim.engine.Event`."""

    __slots__ = ("callback", "cancelled", "fired")

    def __init__(self, callback):
        self.callback = callback
        self.cancelled = False
        self.fired = False

    def cancel(self) -> None:
        if not self.fired:
            self.cancelled = True


class _HeapScheduler:
    """The pre-calendar-queue engine, reduced to its ordering contract.

    One global heap of ``(when, key, seq, event)`` entries where
    ``key = tie(seq) + phase * _PHASE_STRIDE`` — exactly the retired
    implementation's ordering (``seq`` added as a tiebreak column only
    to keep tuples comparable; the real engine relied on tie keys being
    collision-free, which the property below inherits).
    """

    def __init__(self, tie_break=None):
        self.now = 0
        self._queue = []
        self._seq = 0
        self._tie = tie_break

    def schedule(self, delay, callback, label="", phase=0):
        assert delay >= 0
        seq = self._seq
        self._seq = seq + 1
        key = seq if self._tie is None else self._tie(seq)
        key += phase * _PHASE_STRIDE
        event = _OracleEvent(callback)
        heapq.heappush(self._queue, (self.now + delay, key, seq, event))
        return event

    def step(self):
        queue = self._queue
        while queue:
            when, _key, _seq, event = heapq.heappop(queue)
            if event.cancelled:
                continue
            event.fired = True
            self.now = when
            event.callback()
            return True
        return False

    def run(self, until=None):
        queue = self._queue
        while queue:
            when, _key, _seq, event = queue[0]
            if event.cancelled:
                heapq.heappop(queue)
                continue
            if until is not None and when > until:
                self.now = until
                return until
            heapq.heappop(queue)
            event.fired = True
            self.now = when
            event.callback()
        if until is not None and until > self.now:
            self.now = until
        return self.now


def _delays(near, day):
    """Short delays, the rotation edges, and gaps past 64 idle cycles."""
    return st.one_of(
        st.integers(0, near),
        st.sampled_from((max(day - 1, 0), day, day + 1)),
        st.integers(65, 2 * day + 70))


@st.composite
def workloads(draw, day=16):
    """A script both schedulers replay identically.

    Top-level actions: schedule an event (with children its callback
    schedules and an optional handle its callback cancels), cancel a
    handle from outside, fire single events with ``step()``, or
    partially drain with ``run(until)``.  ``day`` is the calendar's
    rotation, so delays straddle its far-list boundary.
    """
    actions = []
    for _ in range(draw(st.integers(2, 40))):
        kind = draw(st.sampled_from(
            ("schedule", "schedule", "schedule", "cancel", "step",
             "run_until")))
        if kind == "schedule":
            children = draw(st.lists(
                st.tuples(_delays(40, day),
                          st.sampled_from((0, 0, 0, 1, 2))),
                max_size=3))
            cancel_target = draw(st.one_of(
                st.none(), st.integers(0, 200)))
            actions.append(("schedule", draw(_delays(90, day)),
                            draw(st.sampled_from((0, 0, 0, 1, 2))),
                            children, cancel_target))
        elif kind == "cancel":
            actions.append(("cancel", draw(st.integers(0, 200))))
        elif kind == "step":
            actions.append(("step", draw(st.integers(1, 3))))
        else:
            actions.append(("run_until", draw(_delays(50, day))))
    return actions


@st.composite
def calendar_cases(draw):
    """(day_length argument, script sized to that rotation)."""
    day_length = draw(st.sampled_from((1, 4, 16, None)))
    day = _DEFAULT_DAY_LENGTH if day_length is None else day_length
    return day_length, draw(workloads(day))


def _occupancy_matches_ring(sim):
    assert sim._busy == bytearray(bool(slot) for slot in sim._ring)


def _replay(sched, actions, check=None):
    """Run ``actions`` against ``sched``; return the dispatch log.

    ``check(sched)``, when given, runs after every action and at the end.
    """
    log = []
    handles = []

    def make_callback(label, phase, children, cancel_target):
        def callback():
            log.append((sched.now, phase, label))
            for j, (cdelay, cphase) in enumerate(children):
                clabel = f"{label}.c{j}"
                handles.append(sched.schedule(
                    cdelay, make_callback(clabel, cphase, (), None),
                    clabel, cphase))
            if cancel_target is not None and handles:
                handles[cancel_target % len(handles)].cancel()
        return callback

    for i, action in enumerate(actions):
        if action[0] == "schedule":
            _, delay, phase, children, cancel_target = action
            label = f"e{i}"
            handles.append(sched.schedule(
                delay, make_callback(label, phase, children, cancel_target),
                label, phase))
        elif action[0] == "cancel" and handles:
            handles[action[1] % len(handles)].cancel()
        elif action[0] == "step":
            for _ in range(action[1]):
                log.append(("step", sched.step(), sched.now))
        elif action[0] == "run_until":
            sched.run(until=sched.now + action[1])
        if check is not None:
            check(sched)
    sched.run()
    if check is not None:
        check(sched)
    return log


@settings(max_examples=120, deadline=None)
@given(calendar_cases(), st.sampled_from(range(len(_TIE_BREAKS))))
def test_calendar_queue_matches_heap_oracle(case, tie_index):
    """Identical (cycle, phase, label) sequences, any tie break."""
    day_length, actions = case
    name, tie = _TIE_BREAKS[tie_index]
    expected = _replay(_HeapScheduler(tie_break=tie), actions)
    actual = _replay(Simulator(tie_break=tie, day_length=day_length),
                     actions, check=_occupancy_matches_ring)
    assert actual == expected, (
        f"dispatch order diverged from heap oracle under {name} "
        f"(day_length={day_length})")


@settings(max_examples=40, deadline=None)
@given(workloads(_DEFAULT_DAY_LENGTH))
def test_fifo_matches_native_default(actions):
    """fifo (tie=None) and the default construction agree."""
    assert (_replay(Simulator(), actions, check=_occupancy_matches_ring)
            == _replay(_HeapScheduler(), actions))
