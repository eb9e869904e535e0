"""Tests for the schedule-order independence rules (MC26xx).

Positive and negative fixtures per rule, the phase-separation and
commutativity escape hatches, the helper/sub-object effect closure,
``# noqa`` suppression (including the MC2901 stale-marker interplay),
and the planted fixtures in ``raceorder_plants.py`` staying caught.
"""

from pathlib import Path

from repro.analysis import engine
from repro.analysis.core import all_rules

PLANTS_PATH = str(Path(__file__).resolve().with_name("raceorder_plants.py"))

RACE_CODES = ["MC2601", "MC2602", "MC2603"]


def analyze_source(tmp_path, source, name="fixture.py", select=None):
    path = tmp_path / name
    path.write_text(source)
    return engine.run([str(path)], select=select or RACE_CODES)


def codes(report):
    return sorted(f.rule for f in report.findings if not f.suppressed)


# ------------------------------------------------------------------ MC2601
RACY = """\
class Comp:
    def __init__(self, sim):
        self.sim = sim
        self.slot = 0

    def start(self):
        self.sim.schedule(1, self._a)
        self.sim.schedule(1, self._b)

    def _a(self):
        self.slot = 1

    def _b(self):
        self.slot = 2
"""


def test_mc2601_flags_same_cycle_write_write(tmp_path):
    report = analyze_source(tmp_path, RACY)
    assert codes(report) == ["MC2601"]
    assert "'_a'" in report.findings[0].message
    assert "'_b'" in report.findings[0].message


def test_mc2601_phase_separation_is_an_ordering_edge(tmp_path):
    separated = RACY.replace("self.sim.schedule(1, self._b)",
                             "self.sim.schedule(1, self._b, phase=1)")
    assert codes(analyze_source(tmp_path, separated)) == []


def test_mc2601_positional_phase_separates(tmp_path):
    separated = RACY.replace("self.sim.schedule(1, self._b)",
                             "self.sim.schedule(1, self._b, 'b', 1)")
    assert codes(analyze_source(tmp_path, separated)) == []
    same = RACY.replace("self.sim.schedule(1, self._b)",
                        "self.sim.schedule(1, self._b, 'b', 0)")
    assert codes(analyze_source(tmp_path, same)) == ["MC2601"]


def test_mc2601_commutative_accumulation_is_exempt(tmp_path):
    commutative = RACY.replace("self.slot = 1", "self.slot += 1") \
                      .replace("self.slot = 2", "self.slot += 1")
    assert codes(analyze_source(tmp_path, commutative)) == []


def test_mc2601_write_read_conflict(tmp_path):
    racy_read = RACY.replace("self.slot = 2", "self.seen = self.slot")
    report = analyze_source(tmp_path, racy_read)
    assert codes(report) == ["MC2601"]


def test_mc2601_follows_helper_into_event_frame(tmp_path):
    source = """\
class Comp:
    def __init__(self, sim):
        self.sim = sim
        self.table = {}

    def start(self):
        self.sim.schedule(1, self._a)
        self.sim.schedule(1, self._b)

    def _a(self):
        self._insert(1)

    def _insert(self, x):
        self.table[x] = x

    def _b(self):
        self.table.clear()
"""
    report = analyze_source(tmp_path, source)
    assert codes(report) == ["MC2601"]
    assert "table" in report.findings[0].message


def test_mc2601_descends_into_typed_sub_object(tmp_path):
    source = """\
class Table:
    def __init__(self):
        self.entries = {}

    def insert(self, k):
        self.entries[k] = k

    def evict(self):
        self.entries.clear()


class Comp:
    def __init__(self, sim):
        self.sim = sim
        self.table = Table()

    def start(self):
        self.sim.schedule(1, self._a)
        self.sim.schedule(1, self._b)

    def _a(self):
        self.table.insert(1)

    def _b(self):
        self.table.evict()
"""
    report = analyze_source(tmp_path, source)
    assert codes(report) == ["MC2601"]
    assert "table.entries" in report.findings[0].message


def test_mc2601_plumbing_attrs_exempt(tmp_path):
    source = RACY.replace("self.slot = 1", "self.stats = 1") \
                 .replace("self.slot = 2", "self.stats = 2")
    assert codes(analyze_source(tmp_path, source)) == []


# ------------------------------------------------------------------ MC2602
NOW_KEYED = """\
class Comp:
    def __init__(self, sim):
        self.sim = sim
        self.arrivals = {}

    def record(self, v):
        self.arrivals[self.sim.now] = v

    def drain(self):
        return [v for k, v in self.arrivals.items()]
"""


def test_mc2602_flags_now_keyed_iteration(tmp_path):
    assert codes(analyze_source(tmp_path, NOW_KEYED)) == ["MC2602"]


def test_mc2602_sorted_iteration_is_clean(tmp_path):
    clean = NOW_KEYED.replace("self.arrivals.items()",
                              "sorted(self.arrivals.items())")
    assert codes(analyze_source(tmp_path, clean)) == []


# ------------------------------------------------------------------ MC2603
def test_mc2603_flags_non_commutative_rmw(tmp_path):
    source = "def boost(counter):\n    counter.value *= 2\n"
    report = analyze_source(tmp_path, source)
    assert codes(report) == ["MC2603"]


def test_mc2603_commutative_augassign_is_clean(tmp_path):
    source = ("def bump(counter, d):\n"
              "    counter.value += d\n"
              "    counter.value -= 1\n")
    assert codes(analyze_source(tmp_path, source)) == []


# ------------------------------------------------------------- suppression
def test_mc2601_noqa_suppresses_and_is_not_stale(tmp_path):
    report = analyze_source(tmp_path, RACY)
    line = report.findings[0].line
    lines = RACY.splitlines()
    lines[line - 1] += "  # noqa: MC2601"
    report = analyze_source(tmp_path, "\n".join(lines) + "\n",
                            name="suppressed.py",
                            select=RACE_CODES + ["MC2901"])
    assert report.ok
    suppressed = [f for f in report.findings if f.suppressed]
    assert [f.rule for f in suppressed] == ["MC2601"]


def test_stale_mc26xx_noqa_flagged_by_mc2901(tmp_path):
    source = ("def clean(counter, d):\n"
              "    counter.value += d  # noqa: MC2603\n")
    report = analyze_source(tmp_path, source,
                            select=["MC2603", "MC2901"])
    assert codes(report) == ["MC2901"]


def test_mc26xx_noqa_for_unran_rule_is_not_stale(tmp_path):
    # Select-aware staleness: MC2603 did not run in this pass, so its
    # marker cannot be judged stale.
    source = ("def clean(counter, d):\n"
              "    counter.value += d  # noqa: MC2603\n")
    report = analyze_source(tmp_path, source,
                            select=["MC2601", "MC2901"])
    assert codes(report) == []


# ------------------------------------------------------------------ plants
def test_planted_fixtures_stay_caught():
    report = engine.run([PLANTS_PATH], select=RACE_CODES)
    assert codes(report) == ["MC2601", "MC2602", "MC2603"]
    assert not report.ok


def test_registry_lists_race_rules():
    listed = {rule.code for rule in all_rules()}
    assert set(RACE_CODES) <= listed
