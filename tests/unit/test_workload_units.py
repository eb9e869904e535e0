"""Unit-level tests for the workload generators (fast, no big sims)."""

import functools

import pytest

from repro.common.units import KB, MB
from repro.copyengine import ALIASES
from repro.workloads.common import (LatencyRecorder, RegionTracker,
                                    fill_pattern, make_engine, rng)
from repro.workloads.hugepage import HugePageCowWorkload, run_hugepage_cow
from repro.workloads.pipe import PipeTransferWorkload, run_pipe
from repro.workloads.protobuf import run_protobuf

#: Small runs of the workloads whose results are labelled with the
#: engine name the caller passed.
NAMED_RUNS = {
    "protobuf": lambda name: run_protobuf(name, num_ops=10),
    "pipe": lambda name: run_pipe(name, 4 * KB, num_transfers=2),
    "hugepage": lambda name: run_hugepage_cow(name, region_size=2 * MB,
                                              num_updates=2),
}


@functools.lru_cache(maxsize=None)
def _named_run(workload, name):
    """``workload``'s result under ``name``, less the label, which must
    be ``name`` itself."""
    result = dict(NAMED_RUNS[workload](name))
    assert result.pop("engine") == name
    return result


class TestCommonHelpers:
    def test_rng_deterministic(self):
        assert rng(5).random() == rng(5).random()

    def test_fill_pattern_deterministic_nonzero(self):
        from repro import System, small_system
        a = System(small_system())
        b = System(small_system())
        addr_a = a.alloc(1024)
        addr_b = b.alloc(1024)
        fill_pattern(a, addr_a, 1024)
        fill_pattern(b, addr_b, 1024)
        assert a.backing.read(addr_a, 1024) == b.backing.read(addr_b, 1024)
        assert a.backing.read(addr_a, 1024) != bytes(1024)

    def test_make_engine_names(self):
        from repro import System, small_system
        system = System(small_system())
        # Historical aliases resolve to the registry's canonical names.
        assert make_engine("mcsquare", system).name == "mclazy"
        system2 = System(small_system(mcsquare_enabled=False))
        assert make_engine("memcpy", system2).name == "eager"
        assert make_engine("zio", system2).name == "zio"
        assert make_engine("nocopy", system2).name == "nocopy"
        with pytest.raises(ValueError):
            make_engine("bogus", system)

    def test_latency_recorder_brackets(self):
        from repro import System, small_system
        from repro.isa import ops
        system = System(small_system())
        rec = LatencyRecorder()

        def prog():
            yield rec.begin()
            yield ops.compute(500)
            yield rec.end()
            yield rec.begin()
            yield ops.compute(100)
            yield rec.end()

        system.run_program(prog())
        assert len(rec.samples) == 2
        assert rec.samples[0] >= 500
        assert rec.samples[1] >= 100
        assert rec.samples[0] > rec.samples[1]

    def test_region_tracker_accumulates(self):
        from repro import System, small_system
        from repro.isa import ops
        system = System(small_system())
        regions = RegionTracker()

        def prog():
            for _ in range(3):
                yield regions.begin("work")
                yield ops.compute(200)
                yield regions.end("work")
                yield ops.compute(1000)

        system.run_program(prog())
        assert regions.cycles("work") >= 600
        assert regions.cycles("work") < 2000


class TestEngineNames:
    """Only the copy-engine registry interprets engine names."""

    @pytest.mark.parametrize("workload", sorted(NAMED_RUNS))
    @pytest.mark.parametrize("alias", sorted(ALIASES))
    def test_alias_runs_like_its_canonical_name(self, alias, workload):
        assert _named_run(workload, alias) == \
            _named_run(workload, ALIASES[alias])

    def test_pipe_runs_zio_under_its_own_name(self):
        w = PipeTransferWorkload("zio", 16 * KB, num_transfers=2)
        result = w.run()
        assert result["engine"] == "zio"
        assert w.system.ctt is None
        # One copy into the pipe and one out of it per transfer.
        assert w.system.stats.get("copyengine.zio.copies") == 4
        assert w.system.stats.get("copyengine.zio.elisions") > 0
        assert result != run_pipe("mcsquare", 16 * KB, num_transfers=2)


class TestProtobufGenerators:
    def test_size_samples_match_cdf_support(self):
        from repro.workloads.protobuf import SIZE_CDF, sample_copy_size
        valid = {s for s, _ in SIZE_CDF}
        random = rng(9)
        for _ in range(500):
            assert sample_copy_size(random) in valid

    def test_messages_deterministic_per_seed(self):
        from repro.workloads.protobuf import generate_messages
        assert generate_messages(10, seed=3) == generate_messages(10, seed=3)
        assert generate_messages(10, seed=3) != generate_messages(10, seed=4)

    def test_fields_sorted_small_first(self):
        from repro.workloads.protobuf import generate_messages
        for fields in generate_messages(20):
            assert fields == sorted(fields)


class TestMvccConstruction:
    def test_rejects_bad_update_kind(self):
        from repro.workloads.mvcc import MvccWorkload
        with pytest.raises(ValueError):
            MvccWorkload("memcpy", update_kind="bogus")

    def test_rejects_too_many_threads(self):
        from repro.workloads.mvcc import MvccWorkload
        with pytest.raises(ValueError):
            MvccWorkload("memcpy", num_threads=99)

    def test_partitions_disjoint(self):
        from repro.workloads.mvcc import MvccWorkload
        w = MvccWorkload("memcpy", num_threads=4, txns_per_thread=1)
        spans = []
        for part in w.partitions:
            spans.append((part["table"],
                          part["table"] + w.rows * w.row_size))
            spans.append((part["versions"],
                          part["versions"] + 2 * w.rows * w.row_size))
        spans.sort()
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            assert e1 <= s2


class TestHugepageSetup:
    def test_region_prefaulted_and_mapped(self):
        from repro.common.units import MB
        from repro.workloads.hugepage import HugePageCowWorkload
        w = HugePageCowWorkload("native", region_size=4 * MB, num_updates=1)
        pa = w.space.translate(w.base)
        assert w.system.backing.read(pa, 8) == b"\x33" * 8
        assert len(w.space.ptes) == 2  # 4MB of 2MB pages

    def test_engine_selection(self):
        from repro.common.units import MB
        from repro.workloads.hugepage import HugePageCowWorkload
        native = HugePageCowWorkload("native", region_size=2 * MB,
                                     num_updates=1)
        lazy = HugePageCowWorkload("mcsquare", region_size=2 * MB,
                                   num_updates=1)
        assert native.engine_name == "native"
        assert lazy.engine_name == "mcsquare"
        assert lazy.system.ctt is not None
        assert native.system.ctt is None

    def test_kernel_cow_copy_is_counted(self):
        w = HugePageCowWorkload("native", region_size=2 * MB, num_updates=2)
        w.run()
        assert w.system.stats.get("copyengine.eager.copies") == 1
        assert w.system.stats.get("copyengine.eager.bytes_requested") == \
            2 * MB


class TestRedisSetup:
    def test_keyspace_and_churn_bookkeeping(self):
        from repro.workloads.redis import RedisWorkload
        w = RedisWorkload("memcpy", num_commands=10, value_size=1 * KB)
        w.run()
        assert w.allocator.allocations > 0
        # Live keyspace values stay allocated.
        for addr in w.keyspace.values():
            assert w.allocator.owns(addr)


class TestBandwidthCalibration:
    """Sanity bounds on the simulated memory system's throughput."""

    def test_single_core_read_bandwidth_plausible(self):
        from repro.common.units import MB
        from repro.workloads.micro.bandwidth import measure_read_bandwidth
        r = measure_read_bandwidth(size=1 * MB)
        # Single-core, MLP-bounded: a few GB/s, far below bus peak.
        assert 0.5 < r["gb_per_sec"] < 40.0

    def test_more_cores_more_bandwidth(self):
        from repro.common.units import MB
        from repro.workloads.micro.bandwidth import measure_read_bandwidth
        one = measure_read_bandwidth(size=1 * MB, num_cores=1)
        four = measure_read_bandwidth(size=2 * MB, num_cores=4)
        assert four["gb_per_sec"] > one["gb_per_sec"] * 1.5

    def test_copy_bandwidth_below_read_bandwidth(self):
        from repro.common.units import MB
        from repro.workloads.micro.bandwidth import (measure_copy_bandwidth,
                                                     measure_read_bandwidth)
        read = measure_read_bandwidth(size=1 * MB)
        copy = measure_copy_bandwidth(size=1 * MB)
        # A copy moves each byte twice, so it cannot beat pure reads.
        assert copy["gb_per_sec"] < read["gb_per_sec"] * 1.1
