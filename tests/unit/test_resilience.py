"""Unit tests for the supervised-sweep layer (repro.resilience)."""

import json

import pytest

from repro.common import params
from repro.common.errors import ConfigError, DeadlineError
from repro.resilience.deadline import (Backoff, backoff_from_env,
                                       max_attempts, point_timeout)
from repro.resilience.report import (FailureReport, Hole, PointFailure,
                                     SweepJournal, is_hole, load_report)


class TestBackoff:
    def test_doubles_per_attempt(self):
        backoff = Backoff(base=0.25, cap=8.0)
        assert backoff.delay(1) == 0.25
        assert backoff.delay(2) == 0.5
        assert backoff.delay(3) == 1.0

    def test_capped(self):
        backoff = Backoff(base=0.25, cap=1.0)
        assert backoff.delay(10) == 1.0

    def test_non_positive_attempt_is_free(self):
        assert Backoff().delay(0) == 0.0

    def test_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_RETRY_BACKOFF", raising=False)
        assert backoff_from_env().base == params.SWEEP_BACKOFF_BASE_S
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0.01")
        assert backoff_from_env().base == 0.01
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "off")
        assert backoff_from_env().delay(5) == 0.0
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "garbage")
        assert backoff_from_env().base == params.SWEEP_BACKOFF_BASE_S


class TestPointTimeout:
    def test_scale_derived_defaults(self, monkeypatch):
        monkeypatch.delenv("REPRO_POINT_TIMEOUT", raising=False)
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert point_timeout("quick") == params.SWEEP_POINT_TIMEOUT_QUICK_S
        assert point_timeout("full") == params.SWEEP_POINT_TIMEOUT_FULL_S
        assert point_timeout() == params.SWEEP_POINT_TIMEOUT_QUICK_S

    def test_env_override_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_POINT_TIMEOUT", "12.5")
        assert point_timeout("full") == 12.5

    def test_env_disables(self, monkeypatch):
        for token in ("0", "off", "none"):
            monkeypatch.setenv("REPRO_POINT_TIMEOUT", token)
            assert point_timeout("quick") is None

    def test_malformed_env_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_POINT_TIMEOUT", "soon")
        assert point_timeout("quick") == params.SWEEP_POINT_TIMEOUT_QUICK_S


class TestMaxAttempts:
    def test_default_and_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_POINT_RETRIES", raising=False)
        assert max_attempts() == params.SWEEP_MAX_ATTEMPTS
        monkeypatch.setenv("REPRO_POINT_RETRIES", "5")
        assert max_attempts() == 5
        monkeypatch.setenv("REPRO_POINT_RETRIES", "0")
        assert max_attempts() == 1  # at least one attempt always runs
        monkeypatch.setenv("REPRO_POINT_RETRIES", "lots")
        assert max_attempts() == params.SWEEP_MAX_ATTEMPTS


class TestWatchdogCycleDeadline:
    def _system(self, deadline):
        from repro.system.config import SystemConfig
        from repro.system.system import System
        system = System(SystemConfig())
        system.attach_watchdog(cycle_deadline=deadline)
        return system

    def test_deadline_trips(self):
        system = self._system(deadline=50)
        with pytest.raises(DeadlineError) as excinfo:
            for i in range(1000):
                system.sim.schedule(i * 10, lambda: None, "tick")
                system.sim.run()
        assert "deadline" in str(excinfo.value)
        assert excinfo.value.post_mortem  # carries the flight recorder

    def test_no_deadline_no_trip(self):
        system = self._system(deadline=None)
        for i in range(20):
            system.sim.schedule(i * 10, lambda: None, "tick")
        system.sim.run()

    def test_non_positive_deadline_rejected(self):
        with pytest.raises(ConfigError):
            self._system(deadline=0)


class TestFailureReport:
    def _report(self):
        report = FailureReport(sweep_id="cafe0123", policy="strict",
                               scale="quick", total=4, completed=3)
        report.add(PointFailure(index=2, name="mod.fn", kind="crash",
                                cause="worker died", attempts=3,
                                key="ab" + "0" * 62))
        return report

    def test_summary_names_the_poison_point(self):
        text = self._report().summary()
        assert "point[2] mod.fn" in text
        assert "crash after 3 attempt(s)" in text

    def test_write_and_load_roundtrip(self, tmp_path):
        path = self._report().write(tmp_path)
        assert path.name == "cafe0123.report.json"
        payload = load_report(path)
        assert payload["quarantined"] == 1
        assert payload["failures"][0]["name"] == "mod.fn"
        assert payload["failures"][0]["kind"] == "crash"
        assert not list(tmp_path.glob("*.tmp.*"))  # atomic write cleaned up

    def test_failures_sorted_by_index(self):
        report = FailureReport(sweep_id="x", policy="partial",
                               scale="quick", total=3)
        report.add(PointFailure(index=2, name="b", kind="error",
                                cause="c", attempts=1))
        report.add(PointFailure(index=0, name="a", kind="error",
                                cause="c", attempts=1))
        indices = [f["index"] for f in report.to_dict()["failures"]]
        assert indices == [0, 2]


class TestHole:
    def test_is_hole(self):
        hole = Hole(index=1, name="mod.fn", kind="timeout",
                    cause="deadline", attempts=2)
        assert is_hole(hole)
        assert not is_hole(None)
        assert not is_hole({"index": 1})

    def test_holes_are_not_json_encodable(self):
        hole = Hole(index=1, name="f", kind="error", cause="c", attempts=1)
        with pytest.raises(TypeError):
            json.dumps(hole)  # can never be silently persisted


class TestSweepJournal:
    def test_records_progress(self, tmp_path):
        journal = SweepJournal(tmp_path, "deadbeef")
        journal.start(total=3, cached=1, fresh=2)
        journal.record_done(0, "mod.fn", "ab" + "0" * 62)
        journal.record_done(2, "mod.fn", None)
        journal.record_end(completed=3, quarantined=0)
        journal.close()
        state = SweepJournal(tmp_path, "deadbeef").load()
        assert state["runs"] == 1
        assert state["done_indices"] == {0, 2}
        assert state["done_keys"] == {"ab" + "0" * 62}
        assert state["ended"]

    def test_interrupted_run_shows_not_ended(self, tmp_path):
        journal = SweepJournal(tmp_path, "feed0000")
        journal.start(total=2, cached=0, fresh=2)
        journal.record_done(0, "mod.fn", None)
        journal.close()  # no end record: the process died here
        state = SweepJournal(tmp_path, "feed0000").load()
        assert state["runs"] == 1 and not state["ended"]
        assert state["done_indices"] == {0}

    def test_second_run_appends(self, tmp_path):
        first = SweepJournal(tmp_path, "0a0b0c0d")
        first.start(total=1, cached=0, fresh=1)
        first.close()
        second = SweepJournal(tmp_path, "0a0b0c0d")
        second.start(total=1, cached=0, fresh=1)
        second.record_done(0, "mod.fn", None)
        second.record_end(completed=1, quarantined=0)
        second.close()
        state = SweepJournal(tmp_path, "0a0b0c0d").load()
        assert state["runs"] == 2 and state["ended"]

    def test_torn_tail_line_is_tolerated(self, tmp_path):
        journal = SweepJournal(tmp_path, "00ff00ff")
        journal.start(total=2, cached=0, fresh=2)
        journal.record_done(0, "mod.fn", None)
        journal.close()
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write('{"event": "done", "ind')  # SIGKILL mid-write
        state = SweepJournal(tmp_path, "00ff00ff").load()
        assert state["done_indices"] == {0}

    def test_quarantine_lines_survive(self, tmp_path):
        journal = SweepJournal(tmp_path, "ace0ace0")
        journal.start(total=1, cached=0, fresh=1)
        journal.record_quarantine(PointFailure(
            index=0, name="mod.bad", kind="error", cause="boom",
            attempts=3))
        journal.close()
        state = SweepJournal(tmp_path, "ace0ace0").load()
        [entry] = state["quarantined"]
        assert entry["name"] == "mod.bad" and entry["attempts"] == 3

    def test_missing_journal_loads_empty(self, tmp_path):
        state = SweepJournal(tmp_path, "nothere0").load()
        assert state["runs"] == 0 and not state["ended"]
