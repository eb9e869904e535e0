"""Property test: calendar queue vs. the retired heap scheduler.

The calendar-queue engine replaced a binary heap whose dispatch order
*was* the repo's ordering contract: pop by ``(when, key)`` with
``key = tie(seq) + phase * 2**40``.  This test keeps that old engine
alive as a ~30-line oracle (:class:`_HeapScheduler`, distilled from the
pre-rewrite ``sim/engine.py``) and drives randomized schedule/run
workloads — including callback-time schedules, partial ``run(until)``
drains, and far-list-crossing delays — through both.  The (cycle,
phase, label) dispatch sequences and the clock after each partial
drain must be identical under every installed tie break: fifo
(native), lifo, and the ``seeded:N`` Weyl hash used by
``REPRO_TIE_ORDER``.

The scripts also schedule exactly one cycle short of, at, and one past
a full calendar rotation, and leave idle gaps longer than 64 cycles,
so the run loop's jump to the next busy slot through the occupancy map
is exercised across the far-list boundary and across wrap-around.
After every action the occupancy map must equal
``[bool(slot) for slot in ring]``.
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


class _HeapScheduler:
    """The pre-calendar-queue engine, reduced to its ordering contract.

    One global heap of ``(when, key, seq, callback)`` entries where
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
        heapq.heappush(self._queue, (self.now + delay, key, seq, callback))

    def run(self, until=None):
        queue = self._queue
        while queue:
            when = queue[0][0]
            if until is not None and when > until:
                self.now = until
                return until
            callback = heapq.heappop(queue)[3]
            self.now = when
            callback()
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
    schedules), or partially drain with ``run(until)``.  ``day`` is the
    calendar's rotation, so delays straddle its far-list boundary.
    """
    actions = []
    for _ in range(draw(st.integers(2, 40))):
        if draw(st.integers(0, 3)):
            children = draw(st.lists(
                st.tuples(_delays(40, day),
                          st.sampled_from((0, 0, 0, 1, 2))),
                max_size=3))
            actions.append(("schedule", draw(_delays(90, day)),
                            draw(st.sampled_from((0, 0, 0, 1, 2))),
                            children))
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

    def make_callback(label, phase, children):
        def callback():
            log.append((sched.now, phase, label))
            for j, (cdelay, cphase) in enumerate(children):
                clabel = f"{label}.c{j}"
                sched.schedule(cdelay, make_callback(clabel, cphase, ()),
                               clabel, cphase)
        return callback

    for i, action in enumerate(actions):
        if action[0] == "schedule":
            _, delay, phase, children = action
            label = f"e{i}"
            sched.schedule(delay, make_callback(label, phase, children),
                           label, phase)
        else:
            sched.run(until=sched.now + action[1])
            log.append(("until", sched.now))
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
