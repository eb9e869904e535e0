"""Golden-trace regression: the canonical traced exhibits must not drift.

``tests/goldens/seq-16k.trace.json`` is the checked-in export of one
traced (MC)² sequential-access run, and
``tests/goldens/random-16k.trace.json`` one of the random-access run
(the Fig. 13 regime, where double bounces cross controllers).  The obs
byte-determinism contract says re-running the same config produces
identical bytes; these tests (and the golden steps of CI's obs-smoke
job) re-export each exhibit and hold it to that — any change to engine
scheduling, controller timing, or trace encoding shows up as a
reviewable golden diff instead of silent drift.

Regenerate deliberately with::

    PYTHONPATH=src python -m repro.obs run --workload seq --buffer-kb 16 \
        --out tests/goldens/seq-16k.trace.json
    PYTHONPATH=src python -m repro.obs run --workload random --buffer-kb 16 \
        --out tests/goldens/random-16k.trace.json
"""

import json
from pathlib import Path

from repro.obs.cli import main as obs_main

GOLDEN = Path(__file__).resolve().parents[1] / "goldens" / "seq-16k.trace.json"
RANDOM_GOLDEN = GOLDEN.with_name("random-16k.trace.json")


def _regenerate(out_path: Path, workload: str = "seq") -> None:
    assert obs_main(["run", "--workload", workload, "--buffer-kb", "16",
                     "--out", str(out_path)]) == 0


def test_golden_trace_summary_diff_strict(tmp_path, capsys):
    fresh = tmp_path / "fresh.trace.json"
    _regenerate(fresh)
    assert obs_main(["diff", "--strict", str(GOLDEN), str(fresh)]) == 0
    assert "identical" in capsys.readouterr().out


def test_golden_trace_bytes_identical(tmp_path):
    # Stronger than the summary diff: the export is content-stable
    # byte for byte (the obs determinism contract for *.trace.json).
    fresh = tmp_path / "fresh.trace.json"
    _regenerate(fresh)
    assert fresh.read_bytes() == GOLDEN.read_bytes()


def test_random_golden_trace_summary_diff_strict(tmp_path, capsys):
    fresh = tmp_path / "fresh.trace.json"
    _regenerate(fresh, workload="random")
    assert obs_main(["diff", "--strict", str(RANDOM_GOLDEN), str(fresh)]) == 0
    assert "identical" in capsys.readouterr().out


def test_random_golden_trace_bytes_identical(tmp_path):
    fresh = tmp_path / "fresh.trace.json"
    _regenerate(fresh, workload="random")
    assert fresh.read_bytes() == RANDOM_GOLDEN.read_bytes()


def test_golden_trace_mclazy_backend_identical(tmp_path):
    # The golden predates the copy-backend registry; `mclazy` (the
    # canonical name `mcsquare` now aliases to) must replay it event
    # for event — the backend wrapper is pure delegation around the
    # LazyEngine op stream.  Only the export label (which echoes the
    # requested engine spelling) may differ.
    fresh = tmp_path / "mclazy.trace.json"
    assert obs_main(["run", "--workload", "seq", "--buffer-kb", "16",
                     "--engine", "mclazy", "--out", str(fresh)]) == 0
    got = json.loads(fresh.read_text())
    want = json.loads(GOLDEN.read_text())
    assert got["traceEvents"][0]["args"]["name"] == "seq-mclazy"
    got["traceEvents"][0] = want["traceEvents"][0]
    assert got == want


def test_golden_trace_validates():
    for golden in (GOLDEN, RANDOM_GOLDEN):
        assert obs_main(["validate", str(golden)]) == 0
        payload = json.loads(golden.read_text())
        assert payload["traceEvents"]
