"""Unit tests for DRAM address mapping and channel timing."""

import pytest

from repro.common import params
from repro.dram.address_map import AddressMap
from repro.dram.device import DramChannel
from repro.sim.stats import StatGroup


@pytest.fixture
def amap():
    return AddressMap(channels=2, banks_per_channel=16, row_bytes=8192)


class TestAddressMap:
    def test_cacheline_interleave_across_channels(self, amap):
        assert amap.channel_of(0) == 0
        assert amap.channel_of(64) == 1
        assert amap.channel_of(128) == 0

    def test_channel_stable_within_line(self, amap):
        assert amap.channel_of(0) == amap.channel_of(63)

    def test_decode_fields_in_range(self, amap):
        for addr in range(0, 1 << 22, 64):
            loc = amap.decode(addr)
            assert 0 <= loc.channel < 2
            assert 0 <= loc.bank < 16
            assert 0 <= loc.column < amap.lines_per_row

    def test_consecutive_channel_lines_share_row(self, amap):
        # Two adjacent lines on the same channel sit in the same row
        # (streaming gets row hits).
        a = amap.decode(0)
        b = amap.decode(128)
        assert (a.bank, a.row) == (b.bank, b.row)

    def test_power_of_two_buffers_use_different_banks(self, amap):
        """Bank hashing must break power-of-two resonance."""
        for distance in (1 << 18, 1 << 20, 1 << 22):
            conflicts = 0
            samples = 0
            for addr in range(0, 1 << 18, 8192):
                a = amap.decode(addr)
                b = amap.decode(addr + distance)
                samples += 1
                if a.bank == b.bank and a.row != b.row:
                    conflicts += 1
            assert conflicts / samples < 0.5, \
                f"bank resonance at distance {distance}"

    def test_invalid_config_rejected(self):
        from repro.common.errors import ConfigError
        with pytest.raises(ConfigError):
            AddressMap(channels=0, banks_per_channel=16, row_bytes=8192)
        with pytest.raises(ConfigError):
            AddressMap(channels=2, banks_per_channel=16, row_bytes=100)


class TestDramChannel:
    def _channel(self):
        return DramChannel(StatGroup("dram"))

    def test_first_access_is_row_miss(self, amap):
        ch = self._channel()
        done = ch.access(amap.decode(0), now=0)
        assert done == params.DRAM_ROW_MISS_CYCLES + params.DRAM_BURST_CYCLES
        assert ch.stats.counters["row_misses"].value == 1

    def test_same_row_hit_is_faster(self, amap):
        ch = self._channel()
        first = ch.access(amap.decode(0), now=0)
        second = ch.access(amap.decode(128), now=first)
        assert second - first <= (params.DRAM_ROW_HIT_CYCLES
                                  + params.DRAM_BURST_CYCLES)
        assert ch.stats.counters["row_hits"].value == 1

    def test_row_conflict_slowest(self, amap):
        ch = self._channel()
        loc_a = amap.decode(0)
        # Find another address on the same bank but a different row.
        loc_b = None
        for addr in range(8192, 1 << 24, 8192):
            cand = amap.decode(addr)
            if cand.channel == loc_a.channel and cand.bank == loc_a.bank \
                    and cand.row != loc_a.row:
                loc_b = cand
                break
        assert loc_b is not None
        t1 = ch.access(loc_a, now=0)
        t2 = ch.access(loc_b, now=t1)
        assert t2 - t1 >= params.DRAM_ROW_CONFLICT_CYCLES
        assert ch.stats.counters["row_conflicts"].value == 1

    def test_bank_parallelism_overlaps_device_latency(self, amap):
        """Accesses to different banks serialize only on the burst."""
        ch = self._channel()
        locs = []
        seen_banks = set()
        for addr in range(0, 1 << 24, 8192):
            loc = amap.decode(addr)
            if loc.channel == 0 and loc.bank not in seen_banks:
                seen_banks.add(loc.bank)
                locs.append(loc)
            if len(locs) == 8:
                break
        finishes = [ch.access(loc, now=0) for loc in locs]
        # All 8 issued at t=0: last finish should be far less than
        # 8 serialized row misses.
        serialized = 8 * (params.DRAM_ROW_MISS_CYCLES
                          + params.DRAM_BURST_CYCLES)
        assert max(finishes) < serialized / 2

    def test_same_bank_serializes(self, amap):
        ch = self._channel()
        loc = amap.decode(0)
        t1 = ch.access(loc, now=0)
        t2 = ch.access(loc, now=0)
        assert t2 > t1

