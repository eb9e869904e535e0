"""Chaos tests for the supervised sweep layer (repro.resilience).

Each test injects a real failure — a worker ``os._exit`` mid-sweep, a
point that sleeps past its wall deadline, a SIGKILL of the sweeping
process itself — and asserts the recovery contract: the sweep either
completes with results bit-identical to an undisturbed serial run, or
fails loudly with the poison point named in a structured report.  Never
silent holes, never recomputed checkpoints.
"""

import os
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from repro.common.errors import SweepError
from repro.perf.cache import SimCache
from repro.perf.runner import SimPoint, sim_map
from repro.resilience.report import SweepJournal, is_hole
from tests.integration import chaos_points as cp

REPO_ROOT = Path(__file__).resolve().parents[2]


def _entries(store):
    """Entry-file bytes keyed by filename — the bit-identity witness."""
    return {path.name: path.read_bytes() for path in store._entry_files()}


def _pids_mentioning(needle):
    """Live processes whose command line contains ``needle`` (via /proc)."""
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            cmdline = (entry / "cmdline").read_bytes()
        except OSError:
            continue  # exited while we looked
        if needle.encode() in cmdline:
            found.append(int(entry.name))
    return found


@pytest.fixture(autouse=True)
def _chaos_env(monkeypatch):
    # Fast deterministic backoff so injected failures retry in
    # milliseconds; no inherited sweep knobs leaking in from the host.
    monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0.01")
    for name in ("REPRO_POINT_TIMEOUT", "REPRO_POINT_RETRIES",
                 "REPRO_SWEEP_POLICY", "REPRO_TRACE", "REPRO_SIMSAN",
                 "REPRO_SIMCACHE", "REPRO_SCALE", "REPRO_JOBS"):
        monkeypatch.delenv(name, raising=False)


class TestWorkerCrash:
    def test_sweep_survives_worker_death_bit_identical(self, tmp_path):
        marker_dir = tmp_path / "markers"
        marker_dir.mkdir()
        store = SimCache(tmp_path / "store")
        points = [SimPoint(cp.crash_once, (i, str(marker_dir), 3))
                  for i in range(6)]
        results = sim_map(points, jobs=4, store=store, scale="quick")
        assert (marker_dir / "crashed.3").exists()  # the worker really died
        assert [r["i"] for r in results] == list(range(6))

        # An undisturbed serial run (the marker now defuses the crash)
        # into a fresh store must match bit for bit.
        ref_store = SimCache(tmp_path / "ref")
        reference = sim_map(points, jobs=1, store=ref_store, scale="quick")
        assert results == reference
        assert _entries(store) == _entries(ref_store)

        [journal_path] = list(store.sweeps_dir.glob("*.journal.jsonl"))
        state = SweepJournal(store.sweeps_dir,
                             journal_path.name.split(".")[0]).load()
        assert state["ended"]
        assert state["done_indices"] == set(range(6))


class TestPoisonPoint:
    def _points(self):
        return ([SimPoint(cp.well_behaved, (i,)) for i in range(3)]
                + [SimPoint(cp.always_crash, (99,))])

    def test_strict_raises_sweep_error_naming_the_point(
            self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_POINT_RETRIES", "2")
        store = SimCache(tmp_path / "store")
        with pytest.raises(SweepError) as excinfo:
            sim_map(self._points(), jobs=2, store=store, scale="quick")
        assert "always_crash" in str(excinfo.value)
        report = excinfo.value.report
        [failure] = report.failures
        assert failure.kind == "crash"
        assert failure.attempts == 2  # exhausted REPRO_POINT_RETRIES
        assert failure.index == 3

        # The report is also persisted next to the journal.
        [report_path] = list(store.sweeps_dir.glob("*.report.json"))
        assert report.sweep_id in report_path.name

    def test_partial_returns_hole_and_completes_the_rest(
            self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_POINT_RETRIES", "2")
        store = SimCache(tmp_path / "store")
        results = sim_map(self._points(), jobs=2, store=store,
                          scale="quick", policy="partial")
        assert [r["i"] for r in results[:3]] == [0, 1, 2]
        assert is_hole(results[3])
        assert results[3].kind == "crash"
        assert store.info()["entries"] == 3  # survivors are all cached

    def test_resumed_poison_point_cannot_kill_the_parent(
            self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_POINT_RETRIES", "1")
        store = SimCache(tmp_path / "store")
        points = self._points()
        with pytest.raises(SweepError):
            sim_map(points, jobs=2, store=store, scale="quick")
        # The strict run checkpointed the three survivors, so the only
        # remaining miss on resume is the poison point itself.  The
        # supervisor must still contain its crash in a worker — a
        # single-miss serial fallback here would os._exit the parent.
        results = sim_map(points, jobs=2, store=store, scale="quick",
                          policy="partial")
        assert [r["i"] for r in results[:3]] == [0, 1, 2]
        assert is_hole(results[3])
        assert results[3].kind == "crash"


class TestWallDeadline:
    def test_sleeping_point_times_out_without_collateral(
            self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_POINT_TIMEOUT", "0.75")
        monkeypatch.setenv("REPRO_POINT_RETRIES", "1")
        store = SimCache(tmp_path / "store")
        points = [SimPoint(cp.sleepy, (0, 0.0)),
                  SimPoint(cp.sleepy, (1, 30.0)),
                  SimPoint(cp.sleepy, (2, 0.0))]
        start = time.monotonic()
        results = sim_map(points, jobs=2, store=store, scale="quick",
                          policy="partial")
        # The supervisor killed the sleeper at its deadline, not at the
        # end of its 30s nap.
        assert time.monotonic() - start < 20
        assert results[0] == {"i": 0, "slept": 0.0}
        assert is_hole(results[1])
        assert results[1].kind == "timeout"
        assert "deadline" in results[1].cause
        assert results[2] == {"i": 2, "slept": 0.0}


class TestParentDeath:
    CHILD = (
        "import sys\n"
        "from repro.perf.cache import SimCache\n"
        "from repro.perf.runner import SimPoint, sim_map\n"
        "from tests.integration import chaos_points as cp\n"
        "store_dir, log_dir = sys.argv[1], sys.argv[2]\n"
        "points = [SimPoint(cp.logged, (i, log_dir)) for i in range(6)]\n"
        "sim_map(points, jobs=2, store=SimCache(store_dir), scale='quick')\n"
    )

    def test_sigkilled_sweep_resumes_bit_identical(self, tmp_path):
        store_dir = tmp_path / "store"
        log_dir = tmp_path / "log"
        log_dir.mkdir()
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = f"{REPO_ROOT / 'src'}{os.pathsep}{REPO_ROOT}"
        child = subprocess.Popen(
            [sys.executable, "-c", self.CHILD, str(store_dir),
             str(log_dir)],
            env=env, cwd=REPO_ROOT)
        try:
            store = SimCache(store_dir)
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if len(list(store._entry_files())) >= 2:
                    break
                if child.poll() is not None:
                    pytest.fail("child sweep finished before the kill "
                                "could land — slow down chaos_points.logged")
                time.sleep(0.02)
            else:
                pytest.fail("child sweep made no progress in 60s")
            os.kill(child.pid, signal.SIGKILL)
        finally:
            if child.poll() is None:
                child.kill()
            child.wait()

        # The killed sweep's forked workers inherited its command line;
        # each must notice it was orphaned and exit instead of blocking
        # forever on the dead parent's call queue.
        if Path("/proc/self/cmdline").exists():
            deadline = time.monotonic() + 5
            while (_pids_mentioning(str(store_dir))
                   and time.monotonic() < deadline):
                time.sleep(0.05)
            assert _pids_mentioning(str(store_dir)) == [], \
                "sweep workers outlived their SIGKILLed parent"

        # The journal survived the SIGKILL and shows an unfinished run
        # with the checkpoints that made it to disk.
        [journal_path] = list(store.sweeps_dir.glob("*.journal.jsonl"))
        sweep_id = journal_path.name.split(".")[0]
        state = SweepJournal(store.sweeps_dir, sweep_id).load()
        assert state["runs"] == 1 and not state["ended"]
        done_before = set(state["done_indices"])
        assert done_before  # at least one checkpoint survived

        # Resume in this process against the same store: only the
        # missing points run.
        points = [SimPoint(cp.logged, (i, str(log_dir)))
                  for i in range(6)]
        results = sim_map(points, jobs=2, store=store, scale="quick")
        state = SweepJournal(store.sweeps_dir, sweep_id).load()
        assert state["runs"] == 2 and state["ended"]

        # Checkpointed points were never re-executed (one log line each).
        counts = Counter(
            int(line) for line in
            (log_dir / "exec.log").read_text(encoding="utf-8").splitlines())
        for i in sorted(done_before):
            assert counts[i] == 1, f"checkpointed point {i} re-executed"

        # And the merged store is bit-identical to a clean serial run.
        ref_store = SimCache(tmp_path / "ref")
        reference = sim_map(points, jobs=1, store=ref_store, scale="quick")
        assert results == reference
        assert _entries(store) == _entries(ref_store)
