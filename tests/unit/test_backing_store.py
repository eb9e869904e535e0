"""Unit tests for the byte-accurate backing store."""

import tracemalloc

import pytest

from repro.common.errors import AddressError
from repro.common.units import MB, PAGE_SIZE
from repro.mem.backing_store import BackingStore


@pytest.fixture
def store():
    return BackingStore(1 << 20)  # 1 MiB


class TestConstruction:
    def test_rejects_non_line_multiple(self):
        with pytest.raises(AddressError):
            BackingStore(100)

    def test_rejects_zero_capacity(self):
        with pytest.raises(AddressError):
            BackingStore(0)


class TestLineAccess:
    def test_untouched_memory_reads_zero(self, store):
        assert store.read_line(0) == bytes(64)

    def test_write_then_read_line(self, store):
        data = bytes(range(64))
        store.write_line(128, data)
        assert store.read_line(128) == data

    def test_read_line_uses_containing_line(self, store):
        data = bytes(range(64))
        store.write_line(128, data)
        assert store.read_line(150) == data

    def test_write_line_requires_64_bytes(self, store):
        with pytest.raises(AddressError):
            store.write_line(0, b"short")

    def test_out_of_range_rejected(self, store):
        with pytest.raises(AddressError):
            store.read_line(1 << 21)


class TestByteAccess:
    def test_spanning_write_and_read(self, store):
        data = bytes(i & 0xFF for i in range(200))
        store.write(60, data)  # spans 4 lines
        assert store.read(60, 200) == data

    def test_partial_line_write_preserves_rest(self, store):
        store.write_line(0, b"\xAA" * 64)
        store.write(10, b"\xBB" * 4)
        line = store.read_line(0)
        assert line[:10] == b"\xAA" * 10
        assert line[10:14] == b"\xBB" * 4
        assert line[14:] == b"\xAA" * 50

    def test_copy_is_eager_oracle(self, store):
        payload = bytes((i * 7) & 0xFF for i in range(300))
        store.write(1000, payload)
        store.copy(5000, 1000, 300)
        assert store.read(5000, 300) == payload

    def test_copy_misaligned(self, store):
        payload = bytes((i * 13) & 0xFF for i in range(150))
        store.write(101, payload)
        store.copy(507, 101, 150)
        assert store.read(507, 150) == payload

    def test_zero_size_copy_moves_no_poison(self, store):
        store.poison(0x1000)
        store.copy(0x2008, 0x1000, 0)
        assert not store.line_poisoned(0x2000)
        assert store.poisoned_lines == {0x1000}

    def test_fill(self, store):
        store.fill(100, 300, 0xCD)
        assert store.read(100, 300) == b"\xCD" * 300

    def test_negative_size_rejected(self, store):
        with pytest.raises(AddressError):
            store.read(0, -1)


class TestFootprint:
    def test_host_memory_stays_near_the_bytes_written(self):
        # Pages cost one object and one dict slot per 4 KB.  A store of
        # 64 B lines pays a bytearray, a dict slot and an int key per
        # line and peaks near 3x the bytes written here.
        size = 2 * MB
        payload = bytes(range(256)) * (size // 256)
        tracemalloc.start()
        try:
            store = BackingStore(4 * MB)
            store.write(0, payload)
            for addr in range(0, size, PAGE_SIZE):
                assert store.read(addr, PAGE_SIZE) == \
                    payload[addr:addr + PAGE_SIZE]
            assert store.read_line(size - 64) == payload[-64:]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * size
