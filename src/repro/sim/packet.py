"""Memory-system packets.

A :class:`Packet` is the unit of communication between the caches, the
interconnect, and the memory controllers.  Packets carry physical addresses
at cacheline granularity plus (for the (MC)² control packets) the lazy-copy
descriptor.  Completion is continuation-passing: the issuer attaches a
callback which fires when the packet is done, at the completing component's
simulated time.
"""

from __future__ import annotations

import enum
from typing import Callable, Optional


class PacketType(enum.Enum):
    """Kinds of traffic the memory system understands."""

    READ = "read"                # fetch a cacheline
    WRITE = "write"              # write back / store a cacheline
    MCLAZY = "mclazy"            # register a prospective copy (broadcast)
    MCFREE = "mcfree"            # drop CTT entries covered by a buffer
    CTT_UPDATE = "ctt_update"    # inter-MC snoop keeping CTTs consistent
    INMEM_COPY = "inmem_copy"    # in-DRAM row copy (RowClone / mirroring)


# The members as module globals, for the per-packet type tests and
# constructions on the memory side's hot paths: reading a member off the
# Enum class costs a descriptor call, a module global does not.
READ = PacketType.READ
WRITE = PacketType.WRITE
MCLAZY = PacketType.MCLAZY
MCFREE = PacketType.MCFREE
INMEM_COPY = PacketType.INMEM_COPY


class Packet:
    """One memory-system transaction.

    Attributes
    ----------
    ptype:
        What kind of transaction this is.
    addr:
        Physical byte address (cacheline-aligned for READ/WRITE).
    size:
        Bytes covered.  64 for cacheline ops; arbitrary multiples of the
        cacheline for MCLAZY / MCFREE descriptors.
    src_addr:
        For MCLAZY: physical address of the copy source buffer.
    on_complete:
        Continuation invoked once when the transaction finishes.
    requestor:
        Integer id of the issuing core (or -1 for hardware-generated
        traffic such as prefetches, bounces and async CTT frees).
    is_prefetch / is_bounce / is_async_copy:
        Provenance flags used for statistics and scheduling priorities.
    poisoned:
        Set when the payload derives from a detected-uncorrectable memory
        error (SEC-DED double-bit).  Poison travels with the data — fills,
        writebacks, parked BPQ writes — so corruption is *contained* and
        never silently re-laundered as clean bytes (see ``repro.faults``).
    """

    __slots__ = (
        "ptype", "addr", "size", "src_addr", "on_complete",
        "requestor", "is_prefetch", "is_bounce", "is_async_copy",
        "copy_mode", "issued_at", "completed_at", "data", "poisoned",
    )

    def __init__(
        self,
        ptype: PacketType,
        addr: int,
        size: int = 64,
        src_addr: Optional[int] = None,
        on_complete: Optional[Callable[["Packet"], None]] = None,
        requestor: int = -1,
    ):
        # Deliberately no serial id: a process-global counter would be
        # shared mutable state across forked sweep workers (MC2401) and
        # across back-to-back simulations in one process.
        self.ptype = ptype
        self.addr = addr
        self.size = size
        self.src_addr = src_addr
        self.on_complete = on_complete
        self.requestor = requestor
        self.is_prefetch = False
        self.is_bounce = False
        self.is_async_copy = False
        self.copy_mode: Optional[str] = None  # INMEM_COPY: rowclone|mirror
        self.issued_at: Optional[int] = None
        self.completed_at: Optional[int] = None
        self.data: Optional[bytes] = None
        self.poisoned = False

    def complete(self, now: int) -> None:
        """Mark done at cycle ``now`` and fire the continuation once."""
        self.completed_at = now
        callback = self.on_complete
        self.on_complete = None
        if callback is not None:
            callback(self)

    @property
    def is_read(self) -> bool:
        """True for READ packets."""
        return self.ptype is READ

    @property
    def is_write(self) -> bool:
        """True for WRITE packets."""
        return self.ptype is WRITE

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        extra = f", src={self.src_addr:#x}" if self.src_addr is not None else ""
        return (
            f"Packet({self.ptype.value}, addr={self.addr:#x}, "
            f"size={self.size}{extra})"
        )
