"""Unit tests for the DDR timing spec and the CTT hardware-cost model."""

import pytest

from repro.common import params
from repro.dram.timing import CXL_DDR4, DDR4_2400, DDR4_3200, DdrTiming
from repro.mcsquare import modeling


class TestDdrTiming:
    def test_latency_classes_ordered(self):
        for grade in (DDR4_2400, DDR4_3200, CXL_DDR4):
            assert grade.row_hit_ns < grade.row_miss_ns \
                < grade.row_conflict_ns

    def test_default_grade_matches_params(self):
        derived = DDR4_2400.cycles(clock_ghz=4.0)
        assert derived["row_hit"] == params.DRAM_ROW_HIT_CYCLES
        assert derived["row_miss"] == params.DRAM_ROW_MISS_CYCLES
        assert derived["row_conflict"] == params.DRAM_ROW_CONFLICT_CYCLES
        assert derived["burst"] == params.DRAM_BURST_CYCLES

    def test_faster_grade_is_faster(self):
        assert DDR4_3200.row_hit_ns < DDR4_2400.row_hit_ns
        assert DDR4_3200.tBL < DDR4_2400.tBL

    def test_cxl_adds_latency_not_bandwidth(self):
        assert CXL_DDR4.row_hit_ns > DDR4_2400.row_hit_ns + 50
        assert CXL_DDR4.tBL == DDR4_2400.tBL

    def test_apply_timing_roundtrip(self):
        from repro.dram.timing import apply_timing
        saved = (params.DRAM_ROW_HIT_CYCLES, params.DRAM_ROW_MISS_CYCLES,
                 params.DRAM_ROW_CONFLICT_CYCLES, params.DRAM_BURST_CYCLES)
        try:
            apply_timing(CXL_DDR4)
            assert params.DRAM_ROW_HIT_CYCLES > saved[0]
        finally:
            (params.DRAM_ROW_HIT_CYCLES, params.DRAM_ROW_MISS_CYCLES,
             params.DRAM_ROW_CONFLICT_CYCLES,
             params.DRAM_BURST_CYCLES) = saved


class TestCttModel:
    def test_anchor_reproduces_paper_numbers(self):
        e = modeling.estimate_ctt(2048)
        assert e.capacity_bytes == 32 * 1024
        assert e.area_mm2 == pytest.approx(0.14)
        assert e.access_ns == pytest.approx(0.79)
        assert e.leakage_mw == pytest.approx(33.8)

    def test_area_scales_linearly(self):
        small = modeling.estimate_ctt(1024)
        big = modeling.estimate_ctt(4096)
        assert big.area_mm2 == pytest.approx(4 * small.area_mm2)

    def test_latency_scales_sublinearly(self):
        small = modeling.estimate_ctt(1024)
        big = modeling.estimate_ctt(4096)
        assert big.access_ns < 4 * small.access_ns
        assert big.access_ns > small.access_ns

    def test_area_overhead_matches_paper_claim(self):
        # Paper: ~0.2% area overhead on a ~100 mm^2 IO die.
        frac = modeling.area_overhead_fraction(2048, die_mm2=100.0)
        assert 0.0005 < frac < 0.005

    def test_access_cycles(self):
        assert modeling.estimate_ctt(2048).access_cycles(4.0) == \
            params.CTT_LATENCY_CYCLES

    def test_bad_entries_rejected(self):
        with pytest.raises(ValueError):
            modeling.estimate_ctt(0)

    def test_summary_mentions_key_numbers(self):
        text = modeling.summarize(2048)
        assert "32KB" in text
        assert "0.79" in text

