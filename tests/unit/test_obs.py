"""Unit tests for the repro.obs observability subsystem."""

import json

import pytest

from repro.common.errors import ConfigError
from repro.obs.export import (chrome_trace, diff_summaries,
                              encode_chrome_trace, summarize_trace,
                              validate_chrome_trace, write_timeline_csv,
                              write_timeline_json)
from repro.obs.tracer import (CATEGORIES, DEFAULT_CATEGORIES, TraceConfig,
                              Tracer, parse_trace_spec)
from repro.sim.engine import Simulator


class TestParseTraceSpec:
    def test_off_tokens_disable(self):
        for spec in ("", "0", "off", "false", "none", "OFF", " off , 0 "):
            assert parse_trace_spec(spec) is None

    def test_on_gives_defaults(self):
        config = parse_trace_spec("on")
        assert config.categories == DEFAULT_CATEGORIES
        assert "engine" not in config.categories
        assert "dram" not in config.categories

    def test_all_gives_everything(self):
        assert parse_trace_spec("all").categories == CATEGORIES

    def test_category_list(self):
        config = parse_trace_spec("copy,bpq")
        assert config.categories == frozenset({"copy", "bpq"})

    def test_knobs(self):
        config = parse_trace_spec("on,sample=512,capacity=1024")
        assert config.sample_every == 512
        assert config.capacity == 1024

    def test_unknown_token_raises(self):
        with pytest.raises(ConfigError):
            parse_trace_spec("copyy")

    def test_bad_knob_raises(self):
        with pytest.raises(ConfigError):
            parse_trace_spec("sample=abc")
        with pytest.raises(ConfigError):
            parse_trace_spec("capacity=0")


class _Observers:
    """A fake profiling clock, a watchdog stand-in and a trace hook that
    log their calls; the hook logs the engine's fired-event count."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.log: list = []

    def attach(self) -> None:
        self.sim.enable_profiling(self.clock)
        self.sim.watchdog = self
        self.sim.enable_tracing(self.hook)

    def clock(self) -> float:
        self.log.append("clock")
        return float(len(self.log))

    def observe(self, _label: str, _now: int) -> None:
        self.log.append("watchdog")

    def hook(self, _label: str, _now: int) -> None:
        self.log.append(("hook", self.sim.events_fired))


class TestTracer:
    def _tracer(self, **kwargs) -> Tracer:
        return Tracer(Simulator(), TraceConfig(**kwargs))

    def test_category_gating(self):
        tracer = self._tracer(categories={"copy"})
        tracer.instant("mc", "mc0", "ignored")
        tracer.instant("copy", "ctt", "recorded")
        assert len(tracer.events) == 1
        assert tracer.events[0][1] == "copy"

    def test_ring_buffer_drops_oldest(self):
        tracer = self._tracer(capacity=4)
        for i in range(10):
            tracer.instant("copy", "ctt", f"e{i}")
        assert len(tracer.events) == 4
        assert tracer.dropped == 6
        assert tracer.events[0][3] == "e6"

    def test_span_bookkeeping(self):
        tracer = self._tracer()
        tracer.span_begin("copy", "ctt", "copy", "copy:0")
        assert tracer.open_span_count() == 1
        tracer.span_point("copy", "ctt", "bounce", "copy:0")
        tracer.span_end("copy", "copy:0", {"reason": "resolved"})
        assert tracer.open_span_count() == 0
        phases = [record[0] for record in tracer.events]
        assert phases == ["b", "n", "e"]

    def test_finalize_closes_open_spans_as_unresolved(self):
        tracer = self._tracer()
        tracer.span_begin("copy", "ctt", "copy", "copy:0")
        tracer.finalize()
        assert tracer.open_span_count() == 0
        last = tracer.events[-1]
        assert last[0] == "e"
        assert last[7] == {"reason": "unresolved"}
        before = len(tracer.events)
        tracer.finalize()  # idempotent
        assert len(tracer.events) == before

    def test_track_ids_are_stable(self):
        tracer = self._tracer()
        assert tracer.track("engine") == 1
        assert tracer.track("ctt") == 2
        assert tracer.track("engine") == 1

    def test_engine_hook_counts_fired_events(self):
        sim = Simulator()
        tracer = Tracer(sim, TraceConfig(categories={"engine"}))
        sim.enable_tracing(tracer.on_engine_event)
        for i in range(5):
            sim.schedule(i, lambda: None, label="tick")
        sim.run()
        assert len(tracer.events) == 5
        assert sim.events_fired == 5

    def test_engine_hook_drives_sampler(self):
        sim = Simulator()
        tracer = Tracer(sim, TraceConfig(categories={"sampler"},
                                         sample_every=2))
        samples = []

        class _Sampler:
            def sample(self, now):
                samples.append(now)

        tracer.sampler = _Sampler()
        sim.enable_tracing(tracer.on_engine_event)
        for i in range(6):
            sim.schedule(i, lambda: None, label="tick")
        sim.run()
        assert len(samples) == 3

    def test_disabled_engine_pays_no_tracer_callback(self):
        """Detached observers are not called by the next run() or step(),
        and label_costs() stops growing."""
        sim = Simulator()
        observers = _Observers(sim)
        observers.attach()
        sim.schedule(1, lambda: None, label="tick")
        sim.run()
        assert observers.log
        costs = sim.label_costs()
        sim.disable_tracing()
        sim.disable_profiling()
        sim.watchdog = None
        observers.log.clear()
        for i in range(4):
            sim.schedule(i, lambda: None, label="tick")
        sim.run()
        sim.schedule(1, lambda: None, label="tick")
        assert sim.step()
        assert observers.log == []
        assert sim.label_costs() == costs
        assert sim.events_fired == 6

    def test_disable_tracing_returns_to_fast_loop(self):
        """Each observer detaches on its own: the next run() skips it and
        still calls the others."""
        sim = Simulator()
        observers = _Observers(sim)
        observers.attach()

        def run_one() -> list:
            observers.log.clear()
            sim.schedule(1, lambda: None, label="tick")
            sim.run()
            return observers.log

        assert run_one() == ["clock", "clock", "watchdog", ("hook", 1)]
        sim.disable_tracing()
        assert run_one() == ["clock", "clock", "watchdog"]
        assert sim.label_costs()["tick"]["count"] == 2
        sim.disable_profiling()
        assert run_one() == ["watchdog"]
        assert sim.label_costs()["tick"]["count"] == 2
        sim.watchdog = None
        assert run_one() == []
        assert sim.events_fired == 4

    @pytest.mark.parametrize("drive", ["run", "step"])
    def test_observation_order_per_event(self, drive):
        """run() and step() observe each event the same way: clock,
        callback, clock, watchdog, hook, with the event already counted
        when the hook runs."""
        sim = Simulator()
        observers = _Observers(sim)
        observers.attach()
        for i in range(3):
            sim.schedule(i, lambda: observers.log.append("callback"),
                         label="tick")
        if drive == "run":
            sim.run()
        else:
            while sim.step():
                pass
        expected = []
        for fired in (1, 2, 3):
            expected += ["clock", "callback", "clock", "watchdog",
                         ("hook", fired)]
        assert observers.log == expected
        assert sim.label_costs()["tick"]["count"] == 3


class TestExport:
    def _traced(self) -> Tracer:
        sim = Simulator()
        tracer = Tracer(sim, TraceConfig(categories=CATEGORIES))
        tracer.track("engine")
        tracer.track("ctt")
        tracer.span_begin("copy", "ctt", "copy", "copy:0",
                          {"dst": "0x1000", "size": 4096})
        sim.schedule(100, lambda: None)
        sim.run()
        tracer.complete("dram", "dram0", "access", 10, 40, {"kind": "hit"})
        tracer.counter("sampler", "metrics", "ctt", {"entries": 1})
        tracer.span_end("copy", "copy:0", {"reason": "resolved"})
        tracer.instant("mcsquare", "mc0", "bounce", {"line": "0x2000"})
        return tracer

    def test_chrome_trace_structure_and_validation(self):
        trace = chrome_trace(self._traced(), label="unit")
        assert validate_chrome_trace(trace) == []
        events = trace["traceEvents"]
        metadata = [e for e in events if e["ph"] == "M"]
        assert any(e["name"] == "process_name" for e in metadata)
        names = {e["args"]["name"] for e in metadata
                 if e["name"] == "thread_name"}
        assert {"engine", "ctt"} <= names
        x = next(e for e in events if e["ph"] == "X")
        assert x["ts"] == 10 and x["dur"] == 30
        instant = next(e for e in events if e["ph"] == "i")
        assert instant["s"] == "t"

    def test_encoding_is_canonical(self):
        a = encode_chrome_trace(chrome_trace(self._traced(), label="unit"))
        b = encode_chrome_trace(chrome_trace(self._traced(), label="unit"))
        assert a == b
        assert json.loads(a.decode("utf-8"))["otherData"]["clock"] == "cycles"

    def test_validator_catches_problems(self):
        assert validate_chrome_trace([]) == ["trace is not a JSON object"]
        assert validate_chrome_trace({}) == ["traceEvents missing or not a list"]
        bad = {"traceEvents": [
            {"ph": "Z", "pid": 1, "tid": 1, "name": "x", "ts": 0},
            {"ph": "i", "pid": 1, "tid": 1, "name": "x", "ts": -5},
            {"ph": "X", "pid": 1, "tid": 1, "name": "x", "ts": 0},
            {"ph": "e", "cat": "copy", "pid": 1, "tid": 1, "name": "x",
             "ts": 0, "id": "copy:9"},
            {"ph": "b", "cat": "copy", "pid": 1, "tid": 1, "name": "x",
             "ts": 0, "id": "copy:1"},
        ]}
        problems = validate_chrome_trace(bad)
        assert any("unknown ph" in p for p in problems)
        assert any("negative" in p for p in problems)
        assert any("integer dur" in p for p in problems)
        assert any("end without begin" in p for p in problems)
        assert any("never ended" in p for p in problems)

    def test_validator_tolerates_imbalance_after_drops(self):
        trace = {
            "otherData": {"dropped_events": 3},
            "traceEvents": [
                {"ph": "e", "cat": "copy", "pid": 1, "tid": 1, "name": "x",
                 "ts": 0, "id": "copy:9"}],
        }
        assert validate_chrome_trace(trace) == []

    def test_summarize_and_diff(self):
        trace = chrome_trace(self._traced(), label="unit")
        summary = summarize_trace(trace)
        assert summary["spans"]["copy"]["begun"] == 1
        assert summary["spans"]["copy"]["ended"] == 1
        assert summary["spans"]["copy"]["reasons"] == {"resolved": 1}
        assert summary["completes"]["dram/access"]["total_dur"] == 30
        assert summary["counters_final"]["metrics/ctt.entries"] == 1
        assert diff_summaries(summary, summary) == {
            "added": {}, "removed": {}, "changed": {}}

        other = summarize_trace(chrome_trace(self._traced(), label="unit"))
        other["events"] += 1
        diff = diff_summaries(summary, other)
        assert diff["changed"]["events"] == [summary["events"],
                                             summary["events"] + 1]

    def test_timeline_writers(self, tmp_path):
        timeline = [{"cycle": 0, "live.ctt_entries": 0.0},
                    {"cycle": 100, "live.ctt_entries": 2.0,
                     "stat.mc0.reads": 7.0}]
        csv_path = write_timeline_csv(timeline, tmp_path / "t.csv")
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "cycle,live.ctt_entries,stat.mc0.reads"
        assert lines[1] == "0,0,"
        assert lines[2] == "100,2,7"
        json_path = write_timeline_json(timeline, tmp_path / "t.json")
        assert json.loads(json_path.read_text()) == timeline
