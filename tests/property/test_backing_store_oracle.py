"""Property test: the paged backing store behaves as one flat byte array.

``BackingStore`` keeps memory in 4 KB pages and poison per 64 B line.
This drives random ``write`` / ``write_line`` / ``read`` / ``read_line``
/ ``copy`` (overlapping ranges included) / ``fill`` / ``poison`` /
``clear_poison`` / ``line_poisoned`` / ``range_poisoned`` sequences over
a capacity of a few pages (the last one partial) against a flat
``bytearray`` and a set of poisoned line addresses.  Addresses are drawn
near page and line boundaries, sizes to span them, and some accesses
fall outside the capacity or hand ``write_line`` the wrong length: those
must raise ``AddressError`` and change nothing.
"""

from hypothesis import example, given, settings, strategies as st

from repro.common.errors import AddressError
from repro.common.units import CACHELINE_SIZE, PAGE_SIZE
from repro.mem.backing_store import BackingStore

CL = CACHELINE_SIZE
CAPACITY = 3 * PAGE_SIZE + 2 * CL


class FlatMemory:
    """The specification: one bytearray and a set of poisoned lines."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.data = bytearray(capacity)
        self.poisoned = set()

    def in_range(self, addr, size):
        return addr >= 0 and size >= 0 and addr + size <= self.capacity

    @staticmethod
    def touched(addr, size):
        """Lines touching [addr, addr + max(size, 1))."""
        return range(addr - addr % CL, addr + max(size, 1), CL)

    def write(self, addr, data):
        self.data[addr:addr + len(data)] = data
        first = -(-addr // CL) * CL
        for line in range(first, (addr + len(data)) // CL * CL, CL):
            self.poisoned.discard(line)  # whole lines of fresh data

    def range_poisoned(self, addr, size):
        return any(line in self.poisoned
                   for line in self.touched(addr, size))

    def copy(self, dst, src, size):
        self.write(dst, bytes(self.data[src:src + size]))
        # Each destination line takes the poison of the source bytes it
        # received, in address order (an overlapping copy sees the poison
        # its earlier lines just took); an empty copy receives none.
        if self.poisoned and size:
            for line in range(dst - dst % CL, dst + size, CL):
                lo, hi = max(line, dst), min(line + CL, dst + size)
                if self.range_poisoned(src + lo - dst, hi - lo):
                    self.poisoned.add(line)


_boundary = st.sampled_from(
    [k * PAGE_SIZE for k in range(4)] + [CAPACITY]
    + [k * PAGE_SIZE + j * CL for k in range(3) for j in (1, 31, 63)])
_addr = st.builds(lambda base, delta: base + delta, _boundary,
                  st.one_of(st.integers(-2, 2), st.integers(-CL - 8, CL + 8)))
_size = st.one_of(st.integers(0, 2 * CL + 8),
                  st.integers(PAGE_SIZE - CL, PAGE_SIZE + 2 * CL),
                  st.integers(0, CAPACITY))
#: (addr, size): a start and a size, or two boundary-near ends, so spans
#: that cross a page or line boundary by a byte or two are common.
_span = st.one_of(
    st.tuples(_addr, _size),
    st.tuples(_addr, _addr).map(lambda ends: (min(ends),
                                              abs(ends[1] - ends[0]))))

_op = st.one_of(
    st.tuples(st.just("write"), _span, st.integers(0, 255)),
    st.tuples(st.just("write_line"), _addr,
              st.sampled_from([CL, CL, CL, 0, 1, CL - 1, CL + 1]),
              st.integers(0, 255)),
    st.tuples(st.just("read"), _span),
    st.tuples(st.just("read_line"), _addr),
    st.tuples(st.just("copy"), _addr, _span),
    st.tuples(st.just("fill"), _span, st.integers(-300, 300)),
    st.tuples(st.just("poison"), _span),
    st.tuples(st.just("clear_poison"), _span),
    st.tuples(st.just("line_poisoned"), _addr),
    st.tuples(st.just("range_poisoned"), _span),
)

#: Reads across each inner page boundary by a byte or two, or a line,
#: checked after every step.
_PROBES = [(b + lo, hi - lo) for b in range(PAGE_SIZE, CAPACITY, PAGE_SIZE)
           for lo, hi in ((-1, 0), (0, 1), (-1, 1), (-2, 1), (-1, 2),
                          (-CL, CL))]


def _pattern(size, seed):
    """Distinct bytes per position, so a shifted span never matches."""
    return bytes((seed + 7 * i) & 0xFF for i in range(size))


def _expect_error(call):
    try:
        call()
    except AddressError:
        return
    raise AssertionError("expected AddressError")


def _apply(store, flat, op):
    kind = op[0]
    if kind == "write":
        (addr, size), seed = op[1], op[2]
        data = _pattern(size, seed)
        if not flat.in_range(addr, size):
            return _expect_error(lambda: store.write(addr, data))
        store.write(addr, data)
        flat.write(addr, data)
    elif kind == "write_line":
        addr, length, seed = op[1], op[2], op[3]
        data = _pattern(length, seed)
        base = addr - addr % CL
        if length != CL or not flat.in_range(base, CL):
            return _expect_error(lambda: store.write_line(addr, data))
        store.write_line(addr, data)
        flat.write(base, data)
    elif kind == "read":
        addr, size = op[1]
        if not flat.in_range(addr, size):
            return _expect_error(lambda: store.read(addr, size))
        assert store.read(addr, size) == flat.data[addr:addr + size]
    elif kind == "read_line":
        addr = op[1]
        base = addr - addr % CL
        if not flat.in_range(base, CL):
            return _expect_error(lambda: store.read_line(addr))
        assert store.read_line(addr) == flat.data[base:base + CL]
    elif kind == "copy":
        dst, (src, size) = op[1], op[2]
        if not (flat.in_range(src, size) and flat.in_range(dst, size)):
            return _expect_error(lambda: store.copy(dst, src, size))
        store.copy(dst, src, size)
        flat.copy(dst, src, size)
    elif kind == "fill":
        (addr, size), value = op[1], op[2]
        if not flat.in_range(addr, size):
            return _expect_error(lambda: store.fill(addr, size, value))
        store.fill(addr, size, value)
        flat.write(addr, bytes([value & 0xFF]) * size)
    elif kind == "poison":
        addr, size = op[1]
        if not flat.in_range(addr, max(size, 1)):
            return _expect_error(lambda: store.poison(addr, size))
        store.poison(addr, size)
        flat.poisoned.update(flat.touched(addr, size))
    elif kind == "clear_poison":
        addr, size = op[1]
        store.clear_poison(addr, size)
        flat.poisoned.difference_update(flat.touched(addr, size))
    elif kind == "line_poisoned":
        addr = op[1]
        assert store.line_poisoned(addr) == (addr - addr % CL
                                             in flat.poisoned)
    else:
        addr, size = op[1]
        assert store.range_poisoned(addr, size) == \
            flat.range_poisoned(addr, size)
    return None


@settings(max_examples=150, deadline=None)
@given(st.lists(_op, min_size=1, max_size=25))
# A zero-size copy from a poisoned line to an unaligned destination.
@example([("poison", (0x1000, CL)), ("copy", 0x2008, (0x1000, 0))])
def test_backing_store_matches_flat_memory(ops):
    store = BackingStore(CAPACITY)
    flat = FlatMemory(CAPACITY)
    for op in ops:
        _apply(store, flat, op)
        assert store.read(0, CAPACITY) == flat.data
        for addr, size in _PROBES:
            assert store.read(addr, size) == flat.data[addr:addr + size]
        assert store.poisoned_lines == flat.poisoned
