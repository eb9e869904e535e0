"""Tests for the interprocedural analyzer layers.

Covers the shared call-graph IR, the fork-safety (MC2401-MC2404) rule
family, suppression hygiene (MC2901), and the baseline ``--diff`` mode.
"""

from pathlib import Path

import pytest

from repro.analysis import baseline as baseline_mod
from repro.analysis import engine
from repro.analysis.callgraph import CallGraph, ProjectContext
from repro.analysis.cli import main as cli_main


def analyze_source(tmp_path, source, name="fixture.py", select=None):
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return engine.run([str(path)], select=select)


def codes(report):
    return sorted(f.rule for f in report.findings)


SWEEP = ("\ndef sweep():\n"
         "    return sim_map([SimPoint(point, (i,)) for i in range(2)])\n")

#: One MC2003 finding (set iteration), the fixture for rule-agnostic
#: machinery: baselines, ``--diff`` and ``--exclude``.
UNORDERED = ("def arbitrate(reqs):\n"
             "    for req in set(reqs):\n"
             "        yield req\n")

# ------------------------------------------------------------------ fixtures
POSITIVE = {
    "MC2401": ("from repro.perf.runner import SimPoint, sim_map\n\n"
               "RESULTS = []\n\n"
               "def point(x):\n"
               "    RESULTS.append(x)\n"
               "    return {'x': x}\n" + SWEEP),
    "MC2402": ("import os\n"
               "from repro.perf.runner import SimPoint, sim_map\n\n"
               "def point(x):\n"
               "    scale = os.environ.get('REPRO_SCALE', 'quick')\n"
               "    return {'x': x, 'scale': scale}\n" + SWEEP),
    "MC2403": ("from repro.perf.runner import SimPoint, sim_map\n\n"
               "def sweep():\n"
               "    return sim_map([SimPoint(lambda x: {'x': x}, (1,))])\n"),
    "MC2404": ("from repro.perf.runner import SimPoint, sim_map\n\n"
               "def point(x):\n"
               "    return {'x': x}\n\n"
               "def sweep(cfgs):\n"
               "    names = set(cfgs)\n"
               "    rows = []\n"
               "    for name in names:\n"
               "        rows.extend(sim_map([SimPoint(point, (name,))]))\n"
               "    return rows\n"),
}

NEGATIVE = {
    # State threaded through locals and return values, not globals.
    "MC2401": ("from repro.perf.runner import SimPoint, sim_map\n\n"
               "def point(x):\n"
               "    out = []\n"
               "    out.append(x)\n"
               "    return {'x': x, 'n': len(out)}\n" + SWEEP),
    # Ambient read happens in the parent; workers get it as a parameter.
    "MC2402": ("import os\n"
               "from repro.perf.runner import SimPoint, sim_map\n\n"
               "def point(x, scale):\n"
               "    return {'x': x, 'scale': scale}\n\n"
               "def sweep():\n"
               "    scale = os.environ.get('REPRO_SCALE', 'quick')\n"
               "    return sim_map([SimPoint(point, (i, scale))\n"
               "                    for i in range(2)])\n"),
    "MC2403": ("from repro.perf.runner import SimPoint, sim_map\n\n"
               "def point(x):\n"
               "    return {'x': x}\n" + SWEEP),
    "MC2404": ("from repro.perf.runner import SimPoint, sim_map\n\n"
               "def point(x):\n"
               "    return {'x': x}\n\n"
               "def sweep(cfgs):\n"
               "    names = set(cfgs)\n"
               "    rows = []\n"
               "    for name in sorted(names):\n"
               "        rows.extend(sim_map([SimPoint(point, (name,))]))\n"
               "    return rows\n"),
}


@pytest.mark.parametrize("code", sorted(POSITIVE))
def test_rule_flags_positive_fixture(tmp_path, code):
    report = analyze_source(tmp_path, POSITIVE[code], select=[code])
    assert codes(report) == [code], report.findings


@pytest.mark.parametrize("code", sorted(NEGATIVE))
def test_rule_silent_on_negative_fixture(tmp_path, code):
    report = analyze_source(tmp_path, NEGATIVE[code], select=[code])
    assert codes(report) == [], report.findings


def test_global_iterator_advance_is_a_write(tmp_path):
    # The sim.packet bug class: next() on a module-global itertools
    # counter mutates shared state from inside a worker.
    src = ("import itertools\n"
           "from repro.perf.runner import SimPoint, sim_map\n\n"
           "_ids = itertools.count()\n\n"
           "def point(x):\n"
           "    return {'x': x, 'id': next(_ids)}\n" + SWEEP)
    report = analyze_source(tmp_path, src, select=["MC2401"])
    assert codes(report) == ["MC2401"]
    assert "_ids" in report.findings[0].message


def test_next_on_local_iterator_is_clean(tmp_path):
    src = ("from repro.perf.runner import SimPoint, sim_map\n\n"
           "def point(x):\n"
           "    it = iter(range(x))\n"
           "    return {'x': next(it, 0)}\n" + SWEEP)
    report = analyze_source(tmp_path, src, select=["MC2401"])
    assert codes(report) == []


def test_finding_message_names_the_worker_route(tmp_path):
    report = analyze_source(tmp_path, POSITIVE["MC2401"], select=["MC2401"])
    [finding] = report.findings
    assert "RESULTS" in finding.message and "point" in finding.message


def test_no_workers_means_no_worker_path_findings(tmp_path):
    # Global writes without any SimPoint dispatch: not this family's job.
    src = ("STATE = []\n\n"
           "def collect(x):\n"
           "    STATE.append(x)\n")
    for code in ("MC2401", "MC2402", "MC2403", "MC2404"):
        report = analyze_source(tmp_path, src, select=[code])
        assert codes(report) == [], code


def test_mc2403_nested_function_dispatch(tmp_path):
    src = ("from repro.perf.runner import SimPoint, sim_map\n\n"
           "def sweep():\n"
           "    def point(x):\n"
           "        return {'x': x}\n"
           "    return sim_map([SimPoint(point, (1,))])\n")
    report = analyze_source(tmp_path, src, select=["MC2403"])
    assert codes(report) == ["MC2403"]
    assert "nested" in report.findings[0].message


def test_mc2403_fork_unsafe_resource_argument(tmp_path):
    src = ("from repro.perf.runner import SimPoint, sim_map\n\n"
           "def point(x, handle):\n"
           "    return {'x': x}\n\n"
           "def sweep():\n"
           "    return sim_map([SimPoint(point, (1, open('data.txt')))])\n")
    report = analyze_source(tmp_path, src, select=["MC2403"])
    assert codes(report) == ["MC2403"]
    assert "open" in report.findings[0].message


def test_mc2403_relative_import_module_attr_is_clean(tmp_path):
    # ``plants.fn`` where ``plants`` is a relatively-imported module is a
    # module-level function, not a bound method dragging an object.
    src = ("from repro.perf.runner import SimPoint, sim_map\n"
           "from . import plants\n\n"
           "def sweep():\n"
           "    return sim_map([SimPoint(plants.fn, (1,))])\n")
    report = analyze_source(tmp_path, src, select=["MC2403"])
    assert codes(report) == []


def test_worker_facts_found_through_helper_calls(tmp_path):
    # The write sits two calls below the dispatched function.
    src = ("from repro.perf.runner import SimPoint, sim_map\n\n"
           "LOG = []\n\n"
           "def helper(x):\n"
           "    LOG.append(x)\n\n"
           "def middle(x):\n"
           "    helper(x)\n\n"
           "def point(x):\n"
           "    middle(x)\n"
           "    return {'x': x}\n" + SWEEP)
    report = analyze_source(tmp_path, src, select=["MC2401"])
    assert codes(report) == ["MC2401"]
    assert "helper" in report.findings[0].message  # route names the culprit


def test_infra_packages_exempt_from_worker_rules(tmp_path):
    # Same source, but under src/repro/perf/: the orchestration layer.
    src = POSITIVE["MC2401"]
    path = tmp_path / "src" / "repro" / "perf" / "fixture.py"
    path.parent.mkdir(parents=True)
    path.write_text(src)
    report = engine.run([str(path)], select=["MC2401"])
    assert codes(report) == []


# ------------------------------------------------------------- call-graph IR
def test_callgraph_resolution_and_reachability(tmp_path):
    src = ("from repro.perf.runner import SimPoint, sim_map\n\n"
           "class Engine:\n"
           "    def __init__(self):\n"
           "        self.t = 0\n"
           "    def step(self):\n"
           "        self.t += 1\n\n"
           "def helper(x):\n"
           "    return x + 1\n\n"
           "def point(x):\n"
           "    eng = Engine()\n"
           "    eng.step()\n"
           "    return {'x': helper(x)}\n" + SWEEP)
    path = tmp_path / "mod.py"
    path.write_text(src)
    modules = engine.parse_modules([str(path)])
    project = ProjectContext(modules)

    assert set(project.workers) == {"mod.point"}
    reached = project.reached
    # Same-module call, constructor edge, and bare-name method edge.
    assert "mod.helper" in reached
    assert "mod.Engine.__init__" in reached
    assert "mod.Engine.step" in reached
    assert project.route("mod.helper") == "point -> helper"


def test_callgraph_propagate_up(tmp_path):
    src = ("def leaf():\n"
           "    return 1\n\n"
           "def caller():\n"
           "    return leaf()\n\n"
           "def outsider():\n"
           "    return 2\n")
    path = tmp_path / "mod.py"
    path.write_text(src)
    modules = engine.parse_modules([str(path)])
    graph = CallGraph.build(modules)
    holds = graph.propagate_up(seed=lambda fn: fn.name == "leaf")
    assert holds == {"mod.leaf", "mod.caller"}


def test_nested_facts_deduplicated(tmp_path):
    # The write inside program() is attributed once, not once per level.
    src = ("from repro.perf.runner import SimPoint, sim_map\n\n"
           "TRACE = []\n\n"
           "def point(x):\n"
           "    def program():\n"
           "        TRACE.append(x)\n"
           "        yield 1\n"
           "    return {'x': x, 'n': sum(program())}\n" + SWEEP)
    report = analyze_source(tmp_path, src, select=["MC2401"])
    assert codes(report) == ["MC2401"]  # exactly one finding


# ------------------------------------------------------------ MC2901 hygiene
def test_stale_bare_noqa_flagged_on_full_run(tmp_path):
    report = analyze_source(tmp_path, "x = 1  # noqa\n")
    assert codes(report) == ["MC2901"]
    assert not report.findings[0].suppressed  # cannot self-suppress


def test_stale_coded_noqa_flagged(tmp_path):
    src = "def f(a, b):\n    return a + b  # noqa: MC2002\n"
    report = analyze_source(tmp_path, src, select=["MC2901", "MC2002"])
    assert codes(report) == ["MC2901"]


def test_active_suppression_not_flagged(tmp_path):
    src = ("import random\n\n"
           "def f(items):\n"
           "    return random.choice(items)  # noqa: MC2002\n")
    report = analyze_source(tmp_path, src, select=["MC2901", "MC2002"])
    assert codes(report) == ["MC2002"]
    assert report.findings[0].suppressed


def test_unregistered_code_noqa_flagged(tmp_path):
    # A code no rule registers (a typo, a retired rule) never suppresses
    # anything, so it is flagged on a full run and under --select alike.
    src = "x = 1  # noqa: MC2999\n"
    report = analyze_source(tmp_path, src)
    assert codes(report) == ["MC2901"]
    assert "MC2999" in report.findings[0].message
    report = analyze_source(tmp_path, src, select=["MC2901", "MC2003"])
    assert codes(report) == ["MC2901"]
    # MC2000 is the engine's parse-failure code, not a rule: exempt.
    assert codes(analyze_source(tmp_path, "x = 1  # noqa: MC2000\n")) == []


def test_unregistered_code_beside_an_active_one(tmp_path):
    src = ("import random\n\n"
           "def f(items):\n"
           "    return random.choice(items)  # noqa: MC2002, MC2999\n")
    report = analyze_source(tmp_path, src, select=["MC2901", "MC2002"])
    assert codes(report) == ["MC2002", "MC2901"]
    stale = [f for f in report.findings if f.rule == "MC2901"]
    assert "MC2999" in stale[0].message and "MC2002" not in stale[0].message


def test_foreign_tool_codes_left_alone(tmp_path):
    report = analyze_source(tmp_path, "import os  # noqa: F401\n")
    assert codes(report) == []


def test_unrun_code_is_indeterminate(tmp_path):
    # MC2002 did not run, so its suppression cannot be judged stale.
    src = "x = 1  # noqa: MC2002\n"
    report = analyze_source(tmp_path, src, select=["MC2901", "MC2003"])
    assert codes(report) == []


def test_bare_noqa_indeterminate_under_select(tmp_path):
    report = analyze_source(tmp_path, "x = 1  # noqa\n",
                            select=["MC2901", "MC2003"])
    assert codes(report) == []


def test_noqa_in_string_literal_is_data(tmp_path):
    report = analyze_source(tmp_path, 'MARKER = "x = 1  # noqa"\n')
    assert codes(report) == []


def test_noqa_mention_in_prose_comment_is_not_a_marker(tmp_path):
    src = "x = 1  # matched a `# noqa` comment earlier\n"
    report = analyze_source(tmp_path, src)
    assert codes(report) == []


# ---------------------------------------------------------------- --diff mode
@pytest.fixture
def diff_tree(tmp_path):
    src_file = tmp_path / "mod.py"
    src_file.write_text(UNORDERED)
    base_file = tmp_path / "baseline.json"
    assert cli_main([str(src_file), "--baseline", str(base_file),
                     "--write-baseline"]) == 0
    return src_file, base_file


def test_diff_clean_against_baseline(diff_tree, capsys):
    src_file, base_file = diff_tree
    code = cli_main([str(src_file), "--baseline", str(base_file), "--diff"])
    out = capsys.readouterr().out
    assert code == 0
    assert "0 new finding(s)" in out


def test_diff_flags_only_new_findings(diff_tree, capsys):
    src_file, base_file = diff_tree
    src_file.write_text("import random\n\n" + UNORDERED + "\n"
                        "def pick(items):\n"
                        "    return random.choice(items)\n")
    code = cli_main([str(src_file), "--baseline", str(base_file), "--diff"])
    out = capsys.readouterr().out
    assert code == 1
    assert "+ " in out and "MC2002" in out
    assert "1 new finding(s)" in out
    assert "MC2003" not in out  # old debt not re-flagged


def test_diff_reports_fixed_entries(diff_tree, capsys):
    src_file, base_file = diff_tree
    src_file.write_text(UNORDERED.replace("set(reqs)", "sorted(set(reqs))"))
    code = cli_main([str(src_file), "--baseline", str(base_file), "--diff"])
    out = capsys.readouterr().out
    assert code == 0
    assert "- " in out and "MC2003" in out
    assert "1 fixed baseline entry" in out


def test_diff_without_baseline_file_treats_all_as_new(tmp_path, capsys):
    src_file = tmp_path / "mod.py"
    src_file.write_text(UNORDERED)
    code = cli_main([str(src_file), "--baseline",
                     str(tmp_path / "missing.json"), "--diff"])
    assert code == 1
    assert "1 new finding(s)" in capsys.readouterr().out


# ------------------------------------------------------------------- --exclude
def test_exclude_drops_files(tmp_path):
    (tmp_path / "clean.py").write_text("x = 1\n")
    (tmp_path / "dirty.py").write_text(UNORDERED)
    report = engine.run([str(tmp_path)],
                        exclude=[str(tmp_path / "dirty.py")])
    assert report.files_analyzed == 1
    assert codes(report) == []


def test_exclude_directory_prefix(tmp_path):
    sub = tmp_path / "plants"
    sub.mkdir()
    (sub / "bad.py").write_text(UNORDERED)
    (tmp_path / "ok.py").write_text("x = 1\n")
    report = engine.run([str(tmp_path)], exclude=[str(sub)])
    assert report.files_analyzed == 1
    assert codes(report) == []


# --------------------------------------------------- taint re-host regression
def test_mc2301_findings_unchanged_on_repo():
    # The re-hosted taint pass must not change verdicts on real code.
    src_repro = Path(__file__).resolve().parents[2] / "src" / "repro"
    report = engine.run([str(src_repro)], select=["MC2301"])
    assert codes(report) == []


def _sample_findings(tmp_path):
    src = ("import time\n\n"
           "def tick(sim):\n"
           "    return time.time()\n\n"
           "def tock(sim):\n"
           "    return time.time()  # noqa: MC2001\n")
    path = tmp_path / "mod.py"
    path.write_text(src)
    report = engine.run([str(path)])
    assert report.findings, "fixture must produce findings"
    return report.findings


def test_baseline_diff_helper_split(tmp_path):
    findings = _sample_findings(tmp_path)
    paired = baseline_mod.fingerprints(findings)
    known = {digest: {"rule": f.rule, "path": f.path}
             for f, digest in paired[:1]}
    new, fixed = baseline_mod.diff(findings, known)
    assert len(new) == len([f for f in findings if not f.suppressed]) - 1
    assert fixed == []
