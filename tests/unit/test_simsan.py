"""Tests for the simsan runtime sanitizer (repro.analysis.simsan).

The centerpiece is the two-sided oracle: the planted global write in
``simsan_plants.py`` is caught statically by the analyzer (MC2401) *and*
reproduced dynamically under ``REPRO_SIMSAN=1``; the planted cache-key
omission is caught by the dynamic cache-hit audit.
"""

import multiprocessing
import sys
import types
from pathlib import Path

import pytest

from repro.analysis import engine, simsan
from repro.common.errors import ConfigError, SanitizerError
from repro.perf.cache import SimCache
from repro.perf.runner import SimPoint, sim_map

from . import simsan_plants as plants

PLANTS_PATH = str(Path(__file__).resolve().with_name("simsan_plants.py"))


@pytest.fixture
def strict(monkeypatch):
    monkeypatch.setenv("REPRO_SIMSAN", "1")
    monkeypatch.setenv("REPRO_SIMSAN_PERIOD", "1")


@pytest.fixture(autouse=True)
def reset_plants():
    yield
    plants.SHARED_LOG.clear()
    plants.KNOB["value"] = 1


# --------------------------------------------------------------- mode parsing
def test_mode_parsing(monkeypatch):
    for raw, expected in [("", "off"), ("0", "off"), ("off", "off"),
                          ("false", "off"), ("1", "strict"),
                          ("on", "strict"), ("strict", "strict"),
                          ("true", "strict"), ("WARN", "warn")]:
        monkeypatch.setenv("REPRO_SIMSAN", raw)
        assert simsan.mode() == expected
        assert simsan.enabled() == (expected != "off")
    # A retired or misspelt mode must fail loudly, never fall back to
    # off; a sweep refuses it up front, even under the partial policy
    # that would otherwise turn a per-point error into a hole.
    for raw in ("own", "stirct"):
        monkeypatch.setenv("REPRO_SIMSAN", raw)
        with pytest.raises(ConfigError, match="1/on/strict/true"):
            simsan.mode()
        with pytest.raises(ConfigError, match="warn"):
            simsan.enabled()
        with pytest.raises(ConfigError):
            sim_map([SimPoint(plants.planted_global_write, (1,))],
                    jobs=1, cache=False, policy="partial")


def test_period_parsing(monkeypatch):
    monkeypatch.setenv("REPRO_SIMSAN_PERIOD", "3")
    assert simsan.period() == 3
    monkeypatch.setenv("REPRO_SIMSAN_PERIOD", "0")
    assert simsan.period() == 1  # clamped
    monkeypatch.setenv("REPRO_SIMSAN_PERIOD", "junk")
    assert simsan.period() == 8  # default


# ---------------------------------------------------------- snapshot machinery
def test_snapshot_diff_detects_mutation_creation_deletion():
    name = "repro._simsan_probe"
    mod = types.ModuleType(name)
    mod.TABLE = {"a": 1}
    mod.GONE = 7
    sys.modules[name] = mod
    try:
        before = simsan.snapshot()
        assert name in before and "TABLE" in before[name]
        mod.TABLE["b"] = 2          # mutated
        mod.FRESH = []              # created
        del mod.GONE                # deleted
        changes = simsan.diff_snapshots(before, simsan.snapshot())
        ours = {(m, a, c) for m, a, c in changes if m == name}
        assert (name, "TABLE", "mutated") in ours
        assert (name, "FRESH", "created") in ours
        assert (name, "GONE", "deleted") in ours
    finally:
        del sys.modules[name]


def test_infra_modules_not_watched():
    # The cache's process-local memo must not trip the sanitizer.
    assert not any(n.startswith("repro.perf") or n.startswith("repro.analysis")
                   for n in simsan._watched_modules())


def test_module_imported_during_call_is_not_a_violation(strict):
    def lazy_import(x):
        import repro.common.errors  # noqa: F401
        return x

    assert simsan.checked_call(lazy_import, (5,), {}, "lazy") == 5


# ------------------------------------------------------------- the two plants
def test_planted_global_write_caught_statically():
    report = engine.run([PLANTS_PATH], select=["MC2401"])
    assert [f.rule for f in report.active] == ["MC2401"]
    assert "SHARED_LOG" in report.active[0].message


def test_planted_global_write_caught_dynamically(strict):
    with pytest.raises(SanitizerError, match="global-write"):
        sim_map([SimPoint(plants.planted_global_write, (1,))],
                jobs=1, cache=False)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable")
def test_planted_global_write_caught_in_fork_workers(strict):
    with pytest.raises(SanitizerError, match="global-write"):
        sim_map([SimPoint(plants.planted_global_write, (i,))
                 for i in range(4)], jobs=2, cache=False)


def test_planted_cache_omission_caught_dynamically(strict, tmp_path):
    store = SimCache(tmp_path)
    point = SimPoint(plants.planted_cache_read, (3,))
    [first] = sim_map([point], jobs=1, store=store, scale="quick")
    assert first == {"x": 3, "knob": 1}
    plants.set_knob(2)  # the unkeyed input changes...
    with pytest.raises(SanitizerError, match="cache-audit"):
        sim_map([point], jobs=1, store=store, scale="quick")


def test_clean_point_passes_both_audits(strict, tmp_path):
    store = SimCache(tmp_path)
    point = SimPoint(plants.planted_cache_read, (3,))
    [cold] = sim_map([point], jobs=1, store=store, scale="quick")
    [warm] = sim_map([point], jobs=1, store=store, scale="quick")
    assert cold == warm  # audit recomputed and agreed


# ----------------------------------------------------------- warn mode + cache
def test_warn_mode_reports_without_raising(monkeypatch, capfd):
    monkeypatch.setenv("REPRO_SIMSAN", "warn")
    [result] = sim_map([SimPoint(plants.planted_global_write, (9,))],
                       jobs=1, cache=False)
    assert result == {"x": 9}
    assert "simsan[global-write]" in capfd.readouterr().err


def test_round_trip_violation_reported(strict, tmp_path):
    # Deliberate plant: a tuple return breaks the JSON round-trip
    # contract, which is exactly what this test wants simsan to catch.
    def tupler(x):
        return (x, x)

    store = SimCache(tmp_path)
    with pytest.raises(SanitizerError, match="json-round-trip"):
        sim_map([SimPoint(tupler, (3,))],  # noqa: MC2403
                jobs=1, store=store, scale="quick")


def test_corrupt_cache_entry_reported(strict, tmp_path):
    store = SimCache(tmp_path)
    point = SimPoint(plants.planted_cache_read, (4,))
    sim_map([point], jobs=1, store=store, scale="quick")
    for path in tmp_path.rglob("*.json"):
        path.write_text('{"not": "the schema"}')
    with pytest.raises(SanitizerError, match="cache-entry"):
        sim_map([point], jobs=1, store=store, scale="quick")


def test_corrupt_entry_is_silent_miss_when_off(tmp_path):
    store = SimCache(tmp_path)
    point = SimPoint(plants.planted_cache_read, (4,))
    sim_map([point], jobs=1, store=store, scale="quick")
    for path in tmp_path.rglob("*.json"):
        path.write_text("not json at all")
    [result] = sim_map([point], jobs=1, store=store, scale="quick")
    assert result == {"x": 4, "knob": 1}  # recomputed, no error


def test_audit_period_samples_hits(monkeypatch):
    monkeypatch.setenv("REPRO_SIMSAN_PERIOD", "4")
    monkeypatch.setattr(simsan, "_hit_count", 0)
    audited = [simsan.should_audit_hit() for _ in range(8)]
    assert audited.count(True) == 2
    assert audited[3] and audited[7]


def test_sanitizer_off_by_default(tmp_path):
    # No env var: plants run without any report.
    [result] = sim_map([SimPoint(plants.planted_global_write, (2,))],
                       jobs=1, cache=False)
    assert result == {"x": 2}
