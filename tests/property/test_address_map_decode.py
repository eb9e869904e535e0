"""Property test: ``AddressMap.decode`` equals the reference arithmetic.

``decode`` memoizes the bank hash per channel-local row index and builds
its result without the named tuple's constructor.  This draws machine
shapes (channel counts, banks per channel, row sizes, powers of two or
not) and address streams that revisit a row and its neighbours,
including row indices above 2**32, where the hash's 32-bit mask matters.
Every answer must equal the formula below, which lives only here, be a
:class:`DramLocation`, and stay the same when asked again.
"""

from hypothesis import given, settings, strategies as st

from repro.common.units import CACHELINE_SIZE
from repro.dram.address_map import AddressMap, DramLocation

CL = CACHELINE_SIZE


def reference_decode(addr, channels, banks_per_channel, row_bytes):
    """(channel, bank, row, column): cacheline channel interleave, then
    row-major lines within a channel, the row index hashed onto a bank
    by xorshift-multiply-xorshift over its low 32 bits."""
    line = addr // CL
    channel = line % channels
    local_line = line // channels
    lines_per_row = row_bytes // CL
    row_index = local_line // lines_per_row
    column = local_line % lines_per_row
    mixed = row_index & 0xFFFFFFFF
    mixed ^= mixed >> 7
    mixed = (mixed * 0x9E3779B1) & 0xFFFFFFFF
    mixed ^= mixed >> 13
    return (channel, mixed % banks_per_channel,
            row_index // banks_per_channel, column)


_shape = st.tuples(st.integers(1, 8), st.integers(1, 64),
                   st.integers(1, 256).map(lambda lines: lines * CL))

#: A row index near which a stream's addresses fall: small, straddling
#: 2**32 (where the mask folds the index), or anywhere up to 2**40.
_base_row = st.one_of(st.integers(0, 64),
                      st.integers(2**32 - 8, 2**32 + 8),
                      st.integers(0, 2**40))


@st.composite
def _case(draw):
    channels, banks, row_bytes = shape = draw(_shape)
    lines_per_row = row_bytes // CL
    base_row = draw(_base_row)
    addrs = []
    for _ in range(draw(st.integers(1, 12))):
        row = max(0, base_row + draw(st.integers(-2, 2)))
        column = draw(st.integers(0, lines_per_row - 1))
        channel = draw(st.integers(0, channels - 1))
        offset = draw(st.integers(0, CL - 1))
        addrs.append(((row * lines_per_row + column) * channels + channel)
                     * CL + offset)
    addrs += draw(st.lists(st.integers(0, 2**64), max_size=4))
    return shape, addrs


@settings(max_examples=200, deadline=None)
@given(_case())
def test_decode_matches_reference(case):
    (channels, banks, row_bytes), addrs = case
    amap = AddressMap(channels, banks, row_bytes)
    for addr in addrs:
        loc = amap.decode(addr)
        assert type(loc) is DramLocation
        assert (loc.channel, loc.bank, loc.row, loc.column) == \
            reference_decode(addr, channels, banks, row_bytes)
    # Again, in reverse: now every row's bank comes from the memo.
    for addr in reversed(addrs):
        assert amap.decode(addr) == \
            reference_decode(addr, channels, banks, row_bytes)
