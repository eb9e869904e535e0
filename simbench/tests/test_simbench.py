"""Tests of the benchmark itself: calibration arithmetic, the label table,
wrapper restoration, failure accounting, and tiny smoke runs."""

import argparse
import json
import os
from types import SimpleNamespace

import pytest

import bench
import calibration
import layers
import run as runner
import workloads
from repro.obs.export import load_trace, validate_chrome_trace
from workloads import WORKLOADS, Repetition

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

#: Inputs small enough for a test; cow-eager's 2 MB huge page is fixed.
TINY = {"seq-lazy": {"size": 8192}, "srcwrite-lazy": {"size": 4096},
        "cow-eager": {"updates": 2}}


# ------------------------------------------------------------ calibration
def test_calibrate_rescales_to_the_reference_speed():
    ref = calibration.REFERENCE_S
    assert calibration.calibrate(2.0, ref, ref) == pytest.approx(2.0)
    # A machine twice as slow stretches section and yardstick alike.
    assert calibration.calibrate(4.0, 2 * ref, 2 * ref) == pytest.approx(2.0)
    # The yardstick is the mean of the loops either side.
    assert calibration.calibrate(3.0, ref, 2 * ref) == pytest.approx(2.0)


def test_timed_keeps_the_raw_readings():
    result, timing = calibration.timed(lambda: 42)
    assert result == 42
    assert timing.calibrated_s == pytest.approx(calibration.calibrate(
        timing.wall_s, timing.cal_before_s, timing.cal_after_s))
    assert timing.cal_before_s > 0 and timing.cal_after_s > 0


def test_calibration_kernel_is_deterministic():
    assert (calibration.calibration_kernel(500)
            == calibration.calibration_kernel(500))


# ---------------------------------------------------------------- tracing
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_label_table_covers_every_fired_label(name):
    rep = WORKLOADS[name](1, **TINY[name]).setup()
    labels = set()
    rep.system.sim.enable_tracing(lambda label, _now: labels.add(label))
    rep.run()
    assert labels
    assert {label for label in labels if layers.label_layer(label) is None} \
        == set()


def _boundary_attrs():
    import importlib
    attrs = {}
    for _layer, module, cls_name, methods in layers.BOUNDARIES:
        cls = getattr(importlib.import_module(module), cls_name)
        for method in methods:
            attrs[(cls, method)] = cls.__dict__[method]
    from repro.mem.backing_store import BackingStore
    from repro.sim.packet import Packet
    from repro.system.system import System
    for cls, method in ([(Packet, "complete"), (System, "__init__")]
                        + [(BackingStore, m) for m in layers.MEM_BYTES]):
        attrs[(cls, method)] = cls.__dict__[method]
    return attrs


def test_wrappers_are_restored_even_after_an_error():
    before = _boundary_attrs()
    tracer = layers.LayerTracer()
    with pytest.raises(RuntimeError):
        with tracer:
            assert all(cls.__dict__[m] is not orig
                       for (cls, m), orig in before.items())
            raise RuntimeError("boom")
    assert all(cls.__dict__[m] is orig for (cls, m), orig in before.items())


def test_traced_repetition_matches_untraced_and_attributes_time():
    workload = WORKLOADS["seq-lazy"](3, **TINY["seq-lazy"])
    session = bench.Session(workload)
    plain = session.repetition()
    tracer = layers.LayerTracer()
    with tracer:
        traced = session.repetition(tracer)
    assert session.failed == 0, session.problems
    assert traced.stats == plain.stats
    assert traced.sim_cycles == plain.sim_cycles
    totals = tracer.layer_totals()
    assert totals[layers.UNATTRIBUTED] == [0.0, 0.0]
    for layer in ("sim", "cpu", "cache", "memctrl", "mcsquare", "dram",
                  "mem", "copyengine"):
        assert totals[layer][0] > 0, layer
    # Self and kept times partition the section: they sum to its span.
    root = tracer.boundaries["sim:run"]
    assert sum(self_s + kept for self_s, kept in totals.values()) \
        == pytest.approx(root[2], rel=1e-6)
    assert validate_chrome_trace(
        layers.chrome_trace(tracer.spans, "seq-lazy")) == []


class _Parent:
    def __init__(self, child):
        self.child = child

    def work(self, calls):
        for _ in range(calls):
            self.child.call(0)


def test_bookkeeping_is_kept_out_of_the_frame_that_paid_it():
    tracer = layers.LayerTracer()
    outside, inside = 1e-3, 2e-4
    tracer.set_costs({"call": [outside, inside]})
    child = type("Child", (layers._Stub,), {
        "call": tracer._wrap("b:child", "b", layers._Stub.call)})()
    parent = _Parent(child)
    parent.work = tracer._wrap("a:parent", "a", _Parent.work).__get__(parent)
    tracer.begin_section(SimpleNamespace(sim=layers.Simulator()), 1)
    parent.work(10)
    tracer.end_section(SimpleNamespace(sim=layers.Simulator()))
    _, calls, _, _, kept = tracer.boundaries["b:child"]
    assert calls == 10 and kept == pytest.approx(10 * inside)
    # The parent paid its children's outside share and its own inside.
    assert tracer.boundaries["a:parent"][4] \
        == pytest.approx(10 * outside + inside)
    # The root paid the parent's outside share.
    assert tracer.boundaries["sim:run"][4] == pytest.approx(outside)
    root_incl = tracer.boundaries["sim:run"][2]
    assert sum(rec[3] + rec[4] for rec in tracer.boundaries.values()) \
        == pytest.approx(root_incl, rel=1e-9)


def test_measured_costs_are_positive_and_touch_no_class():
    before = _boundary_attrs()
    costs = layers.measure_costs()
    assert set(costs) == set(layers.KINDS)
    assert all(outside > 0 for outside, _inside in costs.values()), costs
    assert all(cls.__dict__[m] is orig for (cls, m), orig in before.items())


def test_memory_check_reports_the_first_wrong_byte_across_chunks():
    want = bytes(range(256)) * (3 * workloads.CHECK_CHUNK // 256)
    got = bytearray(want)
    bad = workloads.CHECK_CHUNK + 77
    got[bad] ^= 0xFF
    system = SimpleNamespace(
        read_memory=lambda addr, size: bytes(got[addr:addr + size]))
    assert workloads._mismatch("buf", system, 0, want) \
        == [f"buf: differs from the expected bytes at offset {bad}"]
    got[bad] ^= 0xFF
    assert workloads._mismatch("buf", system, 0, want) == []


def test_percentile_nearest_rank():
    values = list(range(1, 101))
    assert layers.percentile(values, 50) == 50
    assert layers.percentile(values, 99) == 99
    assert layers.percentile([7], 99) == 7
    assert layers.percentile([], 50) == 0.0


# ------------------------------------------------------- failure accounting
class _Broken:
    """A workload whose memory check fails on every repetition."""

    why = "test"

    def setup(self):
        rep = WORKLOADS["seq-lazy"](1, size=4096).setup()
        return Repetition(rep.system, rep.program, lambda: ["wrong bytes"])


class _Drifting:
    """A workload whose simulated result changes between repetitions."""

    why = "test"

    def __init__(self):
        self.size = 4096

    def setup(self):
        self.size += 4096
        return WORKLOADS["seq-lazy"](1, size=self.size).setup()


@pytest.mark.parametrize("workload, expect", [
    (_Broken(), "wrong bytes"), (_Drifting(), "first repetition")])
def test_failed_checks_count_as_failed_operations(workload, expect):
    session = bench.Session(workload)
    bench.timed_run(session, 0, 0.0, min_reps=2)
    assert session.attempted == 3
    assert session.failed >= 2
    assert any(expect in problem for problem in session.problems)


# ------------------------------------------------------------- smoke runs
@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_smoke_run(name, trace, tmp_path, capsys):
    args = argparse.Namespace(workload=name, seed=5, seconds=0, trace=trace)
    result = bench.run(args, sizes=TINY[name], min_reps=1,
                       out_dir=str(tmp_path))
    assert result["correct"] and result["failed"] == 0
    expected = bench.PER_LAYER if trace else bench.END_TO_END
    assert [(name, entry["unit"]) for name, entry
            in result["metrics"].items()] == list(expected)
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert json.loads(last) == result
    if trace:
        trace_file = tmp_path / f"{name}-seed5.trace.json"
        assert validate_chrome_trace(load_trace(trace_file)) == []
        assert result["metrics"]["trace.unattributed_share"]["value"] == 0.0
    else:
        assert result["metrics"]["sim_cycles"]["value"] > 0


def test_sim_cycles_do_not_depend_on_the_seed():
    cycles = {WORKLOADS["srcwrite-lazy"](seed, **TINY["srcwrite-lazy"])
              .setup().run() for seed in (1, 2, 3)}
    assert len(cycles) == 1


# ------------------------------------------------------------- the runner
def test_child_env_clears_repro_settings():
    env = runner.child_env({"REPRO_TRACE": "1", "REPRO_JOBS": "4",
                            "REPRO_SIMCACHE": "on", "PYTHONHASHSEED": "7",
                            "HOME": "/home/x"})
    assert env["REPRO_SIMCACHE"] == "off"
    assert env["PYTHONHASHSEED"] == "0"
    assert env["HOME"] == "/home/x"
    assert not {key for key in env if key.startswith("REPRO_")} \
        - {"REPRO_SIMCACHE"}
    assert env["PYTHONPATH"] == os.path.join(ROOT, "src")


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] \
        == [cls.why for cls in WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == list(bench.PER_LAYER)
