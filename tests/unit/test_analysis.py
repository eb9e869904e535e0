"""Tests for the ``repro.analysis`` static analyzer.

Each rule gets a positive fixture (must flag) and a negative fixture
(must stay silent); on top of that the suppression comments, the
baseline round-trip, the ``--stats`` report, and the CLI exit codes are
exercised end to end on temporary source trees.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import baseline as baseline_mod
from repro.analysis import engine, noqa
from repro.analysis.core import all_rules, get_rule
from repro.analysis.cli import main as cli_main
from repro.common.errors import ConfigError

SRC_ROOT = Path(__file__).resolve().parents[2] / "src"


def analyze_source(tmp_path, source, name="fixture.py", select=None):
    """Write ``source`` to a temp file and run the analyzer over it."""
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return engine.run([str(path)], select=select)


def codes(report):
    return sorted(f.rule for f in report.findings)


# ------------------------------------------------------------------ fixtures
POSITIVE = {
    "MC2001": "import time\n\ndef tick(sim):\n    return time.time()\n",
    "MC2002": "import random\n\ndef pick(items):\n    return random.choice(items)\n",
    "MC2003": ("def arbitrate(reqs):\n"
               "    for req in set(reqs):\n"
               "        yield req\n"),
    "MC2102": ("from repro.sim.stats import Counter\n\n"
               "def make():\n"
               "    return Counter('hits', 'hits')\n"),
    "MC2103": ("def check(x):\n"
               "    if x < 0:\n"
               "        raise ValueError('negative')\n"),
    "MC2104": ("def guard(fn):\n"
               "    try:\n"
               "        fn()\n"
               "    except Exception:\n"
               "        pass\n"),
}

NEGATIVE = {
    "MC2001": ("import time\n\ndef tick(sim):\n"
               "    return sim.now  # the simulator clock\n"),
    "MC2002": ("import random\n\ndef pick(items, seed):\n"
               "    return random.Random(seed).choice(items)\n"),
    "MC2003": ("def arbitrate(reqs):\n"
               "    for req in sorted(set(reqs)):\n"
               "        yield req\n"),
    "MC2102": ("def make(stats):\n"
               "    return stats.counter('hits', 'hits')\n"),
    "MC2103": ("from repro.common.errors import SimulationError\n\n"
               "def check(x):\n"
               "    if x < 0:\n"
               "        raise SimulationError('negative')\n"),
    "MC2104": ("def guard(fn, log):\n"
               "    try:\n"
               "        fn()\n"
               "    except Exception as exc:\n"
               "        log.append(exc)\n"
               "        raise\n"),
}


@pytest.mark.parametrize("code", sorted(POSITIVE))
def test_rule_flags_positive_fixture(tmp_path, code):
    report = analyze_source(tmp_path, POSITIVE[code], select=[code])
    assert codes(report) == [code], report.findings


@pytest.mark.parametrize("code", sorted(NEGATIVE))
def test_rule_silent_on_negative_fixture(tmp_path, code):
    report = analyze_source(tmp_path, NEGATIVE[code], select=[code])
    assert codes(report) == [], report.findings


def test_rule_catalogue_complete():
    registered = {rule.code for rule in all_rules()}
    assert set(POSITIVE) <= registered
    assert "MC2301" in registered
    for rule in all_rules():
        assert rule.summary and rule.rationale


def test_shadowed_name_not_flagged(tmp_path):
    # `random` here is a caller-provided seeded generator, not the module.
    src = ("import random\n\n"
           "def pick(items, random):\n"
           "    return random.choice(items)\n")
    report = analyze_source(tmp_path, src, select=["MC2002"])
    assert codes(report) == []


def test_syntax_error_reported_as_mc2000(tmp_path):
    report = analyze_source(tmp_path, "def broken(:\n")
    assert codes(report) == ["MC2000"]
    assert not report.ok


# ----------------------------------------------------------- poison taint
TAINT_POSITIVE = """\
class Mover:
    def relocate(self, backing, src, dst):
        data = backing.read_line(src)
        backing.write_line(dst, data)
"""

TAINT_NEGATIVE = """\
class Mover:
    def relocate(self, backing, src, dst):
        data = backing.read_line(src)
        backing.write_line(dst, data)
        if backing.line_poisoned(src):
            backing.poison(dst)
"""

TAINT_DELEGATED = """\
class Mover:
    def _carry(self, backing, src, dst):
        if backing.line_poisoned(src):
            backing.poison(dst)

    def relocate(self, backing, src, dst):
        data = backing.read_line(src)
        backing.write_line(dst, data)
        self._carry(backing, src, dst)
"""


def taint_report(tmp_path, source):
    # The taint pass only inspects the poison-critical packages, so the
    # fixture must look like it lives under repro/mcsquare/.
    return analyze_source(tmp_path, source,
                          name="repro/mcsquare/fixture.py",
                          select=["MC2301"])


def test_taint_flags_unaware_mover(tmp_path):
    report = taint_report(tmp_path, TAINT_POSITIVE)
    assert codes(report) == ["MC2301"]
    assert "relocate" in report.findings[0].message


def test_taint_accepts_poison_aware_mover(tmp_path):
    assert codes(taint_report(tmp_path, TAINT_NEGATIVE)) == []


def test_taint_awareness_propagates_through_helpers(tmp_path):
    assert codes(taint_report(tmp_path, TAINT_DELEGATED)) == []


def test_taint_ignores_modules_outside_target_packages(tmp_path):
    report = analyze_source(tmp_path, TAINT_POSITIVE,
                            name="repro/workloads/fixture.py",
                            select=["MC2301"])
    assert codes(report) == []


# ----------------------------------------------------------- suppressions
def test_noqa_suppresses_specific_code(tmp_path):
    src = "import time\n\ndef t():\n    return time.time()  # noqa: MC2001\n"
    report = analyze_source(tmp_path, src, select=["MC2001"])
    assert len(report.findings) == 1
    assert report.findings[0].suppressed
    assert report.ok


def test_noqa_other_code_does_not_suppress(tmp_path):
    src = "import time\n\ndef t():\n    return time.time()  # noqa: MC2002\n"
    report = analyze_source(tmp_path, src, select=["MC2001"])
    assert not report.ok


def test_bare_noqa_suppresses_everything(tmp_path):
    src = "import time\n\ndef t():\n    return time.time()  # noqa\n"
    report = analyze_source(tmp_path, src, select=["MC2001"])
    assert report.ok and report.findings[0].suppressed


def test_noqa_table_parsing():
    table = noqa.suppressions([
        "clean line",
        "x = 1  # noqa",
        "y = 2  # NOQA: mc2003, MC2104",
    ])
    assert 1 not in table
    assert noqa.is_suppressed("MC2999", 2, table)
    assert noqa.is_suppressed("MC2003", 3, table)
    assert not noqa.is_suppressed("MC2001", 3, table)


# --------------------------------------------------------------- baseline
def test_baseline_round_trip(tmp_path):
    src_file = tmp_path / "fixture.py"
    src_file.write_text(POSITIVE["MC2002"])
    first = engine.run([str(src_file)], select=["MC2002"])
    assert not first.ok

    baseline_path = tmp_path / "baseline.json"
    count = baseline_mod.save(str(baseline_path), first.findings)
    assert count == 1

    second = engine.run([str(src_file)], select=["MC2002"],
                        baseline_path=str(baseline_path))
    assert second.ok and second.findings[0].baselined

    # A new finding in the same file still gates.
    src_file.write_text(POSITIVE["MC2002"]
                        + "\ndef more():\n    return random.random()\n")
    third = engine.run([str(src_file)], select=["MC2002"],
                       baseline_path=str(baseline_path))
    assert not third.ok
    assert len(third.active) == 1


def test_baseline_fingerprints_survive_line_moves(tmp_path):
    src_file = tmp_path / "fixture.py"
    src_file.write_text(POSITIVE["MC2002"])
    first = engine.run([str(src_file)], select=["MC2002"])
    baseline_path = tmp_path / "baseline.json"
    baseline_mod.save(str(baseline_path), first.findings)

    # Unrelated edits above the finding must not churn the baseline.
    src_file.write_text("# a new comment\n\n" + POSITIVE["MC2002"])
    moved = engine.run([str(src_file)], select=["MC2002"],
                       baseline_path=str(baseline_path))
    assert moved.ok and moved.findings[0].baselined


def test_malformed_baseline_is_config_error(tmp_path):
    bad = tmp_path / "baseline.json"
    bad.write_text("{\"entries\": 7}")
    src_file = tmp_path / "fixture.py"
    src_file.write_text(POSITIVE["MC2002"])
    with pytest.raises(ConfigError):
        engine.run([str(src_file)], baseline_path=str(bad))


def test_checked_in_baseline_is_near_empty_and_justified():
    """Policy: every grandfathered entry carries a real justification.

    The baseline must stay near-empty; the sanctioned exceptions are the
    single wall-clock read in repro.perf.hostclock and the MC2601 pairs
    in the (MC)² controller's bounce/materialize chains, which are
    serialized by the per-channel grant arbiter and verified
    order-independent by the paired tie-order sanitizer (the entries'
    justifications record that — see docs/ANALYSIS.md).  MC26xx entries
    must cite that dynamic verification; nothing else may appear.
    """
    path = SRC_ROOT.parent / "analysis-baseline.json"
    entries = baseline_mod.load(str(path))
    sanctioned = {
        ("MC2001", "src/repro/perf/hostclock.py"),
        ("MC2601", "src/repro/mcsquare/controller.py"),
    }
    assert len(entries) <= 12
    for entry in entries.values():
        assert entry["justification"].strip(), (
            f"baselined finding without justification: {entry}")
        assert (entry["rule"], entry["path"]) in sanctioned, (
            f"unsanctioned baseline entry: {entry['rule']} {entry['path']}")
        if entry["rule"].startswith("MC26"):
            assert "REPRO_TIE_ORDER" in entry["justification"], (
                "MC26xx baseline entry lacks recorded dynamic verification")


def test_fingerprints_ignore_path_absoluteness(tmp_path):
    """Absolute and relative invocations must produce one fingerprint."""
    from dataclasses import replace

    src_file = tmp_path / "fixture.py"
    src_file.write_text(POSITIVE["MC2001"])
    report = engine.run([str(src_file)], select=["MC2001"])
    finding = report.findings[0]
    import os
    relative = replace(finding, path=os.path.relpath(finding.path))
    (_, digest_abs), = baseline_mod.fingerprints([finding])
    (_, digest_rel), = baseline_mod.fingerprints([relative])
    assert digest_abs == digest_rel


#: Three findings from two rules: two wall-clock reads (MC2001) and one
#: global-RNG draw (MC2002).
# The MC2002 finding comes first in line order but last in content
# order, so a baseline that skipped its sort could never pass
# test_baseline_entry_order_is_content_sorted by luck.
MULTI_FINDING = """\
import random
import time


def pick(items):
    return random.choice(items)


def tick(sim):
    return time.time()


def tock(sim):
    return time.time()
"""


def multi_finding_path(tmp_path):
    path = tmp_path / "multi.py"
    path.write_text(MULTI_FINDING)
    return str(path)


def test_baseline_save_is_canonical_and_keeps_justifications(tmp_path):
    target = str(tmp_path / "baseline.json")
    report = engine.run([multi_finding_path(tmp_path)],
                        select=["MC2001", "MC2002"])
    assert len(report.findings) == 3
    baseline_mod.save(target, report.findings)

    # Annotate one entry the way a reviewer would.
    payload = json.loads(Path(target).read_text())
    payload["entries"][0]["justification"] = "deliberate fixture"
    kept = payload["entries"][0]["fingerprint"]
    Path(target).write_text(json.dumps(payload) + "\n")

    # Re-saving the same findings is byte-stable modulo the edit and
    # carries the justification over by fingerprint.
    baseline_mod.save(target, report.findings)
    first = Path(target).read_bytes()
    baseline_mod.save(target, report.findings)
    assert Path(target).read_bytes() == first
    assert first.endswith(b"\n")
    entries = {e["fingerprint"]: e
               for e in json.loads(first)["entries"]}
    assert entries[kept]["justification"] == "deliberate fixture"

    # Round trip: everything saved is baselined on the next run.
    known = baseline_mod.load(target)
    applied = baseline_mod.apply(report.findings, known)
    assert all(f.baselined for f in applied)


def test_baseline_entry_order_is_content_sorted(tmp_path):
    target = str(tmp_path / "baseline.json")
    report = engine.run([multi_finding_path(tmp_path)],
                        select=["MC2001", "MC2002"])
    baseline_mod.save(target, report.findings)
    entries = json.loads(Path(target).read_text())["entries"]
    assert len(entries) == 3
    keys = [(e["path"], e["rule"], e["snippet"], e["fingerprint"])
            for e in entries]
    assert keys == sorted(keys)
    # Line order disagrees with content order, so the sort did work.
    arrival = [finding.rule
               for finding, _ in baseline_mod.fingerprints(report.findings)]
    assert arrival == ["MC2002", "MC2001", "MC2001"]
    assert [e["rule"] for e in entries] == ["MC2001", "MC2001", "MC2002"]


# --------------------------------------------------------------------- CLI
def test_cli_exit_codes(tmp_path, capsys):
    dirty = tmp_path / "dirty.py"
    dirty.write_text(POSITIVE["MC2001"])
    clean = tmp_path / "clean.py"
    clean.write_text(NEGATIVE["MC2001"])

    assert cli_main([str(clean)]) == 0
    assert cli_main([str(dirty)]) == 1
    assert cli_main([str(dirty), "--select", "NOPE"]) == 2
    capsys.readouterr()


def test_cli_stats_text_and_json(tmp_path):
    path = multi_finding_path(tmp_path)
    out = tmp_path / "stats.txt"
    cli_main([path, "--select", "MC2001", "--stats", "--output", str(out)])
    text = out.read_text()
    assert "per-rule stats" in text
    assert "MC2001" in text

    out_json = tmp_path / "stats.json"
    cli_main([path, "--select", "MC2001", "--stats", "--format", "json",
              "--output", str(out_json)])
    payload = json.loads(out_json.read_text())
    assert payload["stats"]["MC2001"]["findings"] == 2
    assert payload["stats"]["MC2001"]["seconds"] >= 0.0


def test_stats_absent_without_flag(tmp_path):
    out = tmp_path / "plain.json"
    cli_main([multi_finding_path(tmp_path), "--select", "MC2001",
              "--format", "json", "--output", str(out)])
    assert "stats" not in json.loads(out.read_text())


def test_cli_write_baseline_then_gate_passes(tmp_path, capsys):
    dirty = tmp_path / "dirty.py"
    dirty.write_text(POSITIVE["MC2002"])
    baseline_path = tmp_path / "baseline.json"
    assert cli_main([str(dirty), "--baseline", str(baseline_path),
                     "--write-baseline"]) == 0
    assert cli_main([str(dirty), "--baseline", str(baseline_path)]) == 0
    capsys.readouterr()


def test_cli_list_rules(capsys):
    assert cli_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in all_rules():
        assert rule.code in out


def test_module_entry_point_runs_clean_on_repo():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", str(SRC_ROOT / "repro")],
        cwd=str(SRC_ROOT.parent), capture_output=True, text=True,
        env={"PYTHONPATH": str(SRC_ROOT), "PATH": "/usr/bin:/bin"})
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 finding(s)" in proc.stdout
