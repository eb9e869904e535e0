"""Unit tests for the set-associative cache container."""

import pytest

from repro.cache.cache import Cache
from repro.common.errors import ConfigError
from repro.sim.stats import StatGroup


@pytest.fixture
def cache():
    # 4 sets x 2 ways x 64B = 512B
    return Cache("t", size=512, assoc=2, stats=StatGroup("t"))


class TestConstruction:
    def test_bad_geometry_rejected(self):
        with pytest.raises(ConfigError):
            Cache("t", size=1000, assoc=3)

    def test_set_count(self, cache):
        assert cache.num_sets == 4


class TestFillLookup:
    def test_miss_then_hit(self, cache):
        assert cache.lookup(0, now=0) is None
        cache.fill(0, bytes(64), now=1)
        line = cache.lookup(0, now=2)
        assert line is not None
        assert line.addr == 0

    def test_lookup_any_offset_within_line(self, cache):
        cache.fill(64, bytes(64), now=0)
        assert cache.lookup(100, now=1) is not None

    def test_lru_eviction(self, cache):
        # Set stride is 4 lines (4 sets): same set every 256 bytes.
        cache.fill(0, b"a" * 64, now=1)
        cache.fill(256, b"b" * 64, now=2)
        cache.lookup(0, now=3)           # touch A so B is LRU
        victim = cache.fill(512, b"c" * 64, now=4)
        assert victim.addr == 256

    def test_fill_existing_never_clobbers_dirty_data(self, cache):
        cache.fill(0, b"\x00" * 64, now=0)
        cache.write_bytes(0, b"\xFF" * 8, now=1)
        cache.fill(0, b"\x00" * 64, now=2)  # stale refill
        assert cache.read_bytes(0, 8, now=3) == b"\xFF" * 8

    def test_dirty_fill_updates_data(self, cache):
        # Writeback migration into this level carries newer bytes.
        cache.fill(0, b"\x00" * 64, now=0)
        cache.fill(0, b"\x11" * 64, now=1, dirty=True)
        assert cache.read_bytes(0, 4, now=2) == b"\x11" * 4

    def test_probe_does_not_touch_lru(self, cache):
        cache.fill(0, b"a" * 64, now=1)
        cache.fill(256, b"b" * 64, now=2)
        assert cache.probe(0)
        victim = cache.fill(512, b"c" * 64, now=3)
        assert victim.addr == 0  # probe did not refresh A


class TestWriteRead:
    def test_write_bytes_marks_dirty(self, cache):
        cache.fill(0, bytes(64), now=0)
        assert cache.write_bytes(10, b"hi", now=1)
        assert cache.lookup(0, now=2).dirty

    def test_write_bytes_miss_returns_false(self, cache):
        assert not cache.write_bytes(0, b"hi", now=1)

    def test_cross_line_write_rejected(self, cache):
        cache.fill(0, bytes(64), now=0)
        with pytest.raises(ConfigError):
            cache.write_bytes(60, b"12345678", now=1)

    def test_read_bytes_roundtrip(self, cache):
        cache.fill(0, bytes(range(64)), now=0)
        assert cache.read_bytes(10, 4, now=1) == bytes([10, 11, 12, 13])


class TestMaintenance:
    def test_invalidate(self, cache):
        cache.fill(0, bytes(64), now=0)
        assert cache.invalidate(0) is not None
        assert cache.lookup(0, now=1) is None
        assert cache.invalidate(0) is None

    def test_clean_returns_data_once(self, cache):
        cache.fill(0, bytes(64), now=0)
        cache.write_bytes(0, b"\xAB" * 8, now=1)
        data = cache.clean(0)
        assert data is not None and data[:8] == b"\xAB" * 8
        assert cache.clean(0) is None  # now clean
        assert cache.lookup(0, now=2) is not None  # still resident

    def test_dirty_lines_listing(self, cache):
        cache.fill(0, bytes(64), now=0)
        cache.fill(64, bytes(64), now=0)
        cache.write_bytes(64, b"x", now=1)
        dirty = cache.dirty_lines()
        assert [l.addr for l in dirty] == [64]

    def test_clear(self, cache):
        cache.fill(0, bytes(64), now=0)
        cache.fill(64, bytes(64), now=0)
        cache.clear()
        assert not cache.probe(0)
        assert not cache.probe(64)
