"""Physical address → (channel, bank, row) decomposition.

Channels are interleaved at cacheline granularity (the common server layout
and what lets (MC)² bounces cross memory controllers, per Figures 6-7 of
the paper).  Within a channel, consecutive channel-local lines fill a row
across banks-interleaved-by-row so that streaming accesses hit open rows.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.common.errors import ConfigError
from repro.common.units import CACHELINE_SIZE


class DramLocation(NamedTuple):
    """Decoded location of one cacheline inside the DRAM system.

    A named tuple: every DRAM access decodes one, and a tuple is cheap
    to build while staying immutable and hashable.
    """

    channel: int
    bank: int
    row: int
    column: int


class AddressMap:
    """Cacheline-interleaved channel map with row-major bank layout."""

    def __init__(self, channels: int, banks_per_channel: int, row_bytes: int):
        if channels <= 0 or banks_per_channel <= 0:
            raise ConfigError("channels and banks must be positive")
        if row_bytes % CACHELINE_SIZE:
            raise ConfigError("row size must be a multiple of the cacheline")
        self.channels = channels
        self.banks_per_channel = banks_per_channel
        self.row_bytes = row_bytes
        self.lines_per_row = row_bytes // CACHELINE_SIZE

    def channel_of(self, addr: int) -> int:
        """Channel (= memory controller index) owning ``addr``."""
        line = addr // CACHELINE_SIZE
        return line % self.channels

    def decode(self, addr: int) -> DramLocation:
        """Full (channel, bank, row, column) location of ``addr``."""
        line = addr // CACHELINE_SIZE
        channel = line % self.channels
        local_line = line // self.channels
        row_index = local_line // self.lines_per_row
        column = local_line % self.lines_per_row
        # Hash the row index into the bank so that streams any fixed
        # stride apart do not persistently alias onto one bank.  Real
        # controllers XOR a selection of row bits; an avalanche mix
        # (xorshift-multiply-xorshift) is the software stand-in with the
        # same effect and no pathological strides — a plain XOR fold or
        # multiplicative hash leaves linear deltas that keep two copy
        # streams ping-ponging the same bank.
        mixed = row_index & 0xFFFFFFFF
        mixed ^= mixed >> 7
        mixed = (mixed * 0x9E3779B1) & 0xFFFFFFFF
        mixed ^= mixed >> 13
        bank = mixed % self.banks_per_channel
        row = row_index // self.banks_per_channel
        return DramLocation(channel, bank, row, column)
