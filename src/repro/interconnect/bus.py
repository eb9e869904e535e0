"""Memory interconnect between the LLC and the memory controllers.

A constant-latency, order-preserving link: packets are delivered to the
owning controller (by channel interleave) ``hop_cycles`` after issue, one
per cycle, in *grant* order.  Order preservation models the FIFO write
buffer the paper relies on ("the caches' FIFO write buffer ensures that
the writebacks reach the MC before the MCLAZY packet", §III-B1).

Grant order is decided by a same-cycle arbiter, not by the order in
which components happened to call :meth:`Interconnect.send` within a
cycle: all packets issued in one cycle are collected and granted link
slots in a canonical (packet-type, address, requestor) order, with
writebacks ranked ahead of the control packets they must precede and
reads last.  Callback dispatch order among equal-timestamp events is
explicitly *not* part of the simulator's semantics (it is permuted by
the ``REPRO_TIE_ORDER`` sanitizer, :mod:`repro.analysis.simsan`), and
the interconnect is where independently-scheduled components meet, so
it must not let that order leak.  The arbiter runs in the engine's late
dispatch phase so it observes every same-cycle send under any
tie-break.

Control packets (MCLAZY / MCFREE) are *broadcast*: every controller must
update its CTT replica.  The shared CTT object makes the replicas
trivially consistent; the broadcast is charged as latency and counted in
controller stats.
"""

from __future__ import annotations

from typing import List

from repro.common import params
from repro.common.units import CACHELINE_SIZE
from repro.memctrl.controller import MemoryController
from repro.sim.engine import Simulator
from repro.sim.packet import INMEM_COPY, MCFREE, MCLAZY, Packet, PacketType
from repro.sim.stats import StatGroup

# The per-packet tables below are keyed by a packet type's ``_value_``
# string, not by the member: an Enum member hashes through a
# Python-level ``Enum.__hash__`` call, a str through its cached hash.

#: Event labels by packet type, prebuilt: send() runs once per packet and
#: an f-string per delivery showed up in the exhibit profiles.
_DELIVER_LABEL = {pt.value: f"xbar-{pt.value}" for pt in PacketType}
_DUP_LABEL = {pt.value: f"xbar-dup-{pt.value}" for pt in PacketType}

#: Canonical same-cycle grant order.  Writebacks first (they must reach
#: the MC before any control packet issued the same cycle observes the
#: lines), then CTT control traffic, reads last so a read racing a
#: same-cycle writeback to the same line sees the written data — the
#: FIFO-write-buffer semantics, made independent of callback order.
_TYPE_RANK = {
    PacketType.WRITE.value: 0,
    PacketType.MCLAZY.value: 1,
    PacketType.MCFREE.value: 2,
    PacketType.CTT_UPDATE.value: 3,
    PacketType.INMEM_COPY.value: 4,
    PacketType.READ.value: 5,
}


class Interconnect:
    """Routes packets from the cache side to memory controllers."""

    def __init__(self, sim: Simulator, controllers: List[MemoryController],
                 stats: StatGroup,
                 hop_cycles: int = params.INTERCONNECT_HOP_CYCLES):
        self.sim = sim
        self.controllers = controllers
        self.hop_cycles = hop_cycles
        self.stats = stats
        self._packets = stats.counter("packets", "packets transported")
        self._broadcasts = stats.counter("broadcasts", "control broadcasts")
        self._last_delivery = 0
        # Channel -> owning controller, so routing a packet is one
        # index: AddressMap.channel_of (cacheline interleave), inlined.
        self._num_channels = controllers[0].address_map.channels
        self._owners = [controllers[channel % len(controllers)]
                        for channel in range(self._num_channels)]
        # Same-cycle arbitration: packets sent during cycle N accumulate
        # here and are granted link slots by one late-phase event at N.
        self._batch: List[Packet] = []
        self._batch_cycle = -1
        # Optional fault injection (repro.faults.injector): called per
        # packet, returns (extra_delay, duplicate) or None.  Delays model
        # CRC retransmission on a lossy link — the link protocol retries
        # *in order*, so the perturbed delivery still advances the FIFO
        # horizon and ordering is preserved.
        self.fault_hook = None

    def send(self, pkt: Packet) -> None:
        """Queue ``pkt`` for this cycle's arbitration round.

        Deliveries never reorder and never share a cycle: each packet is
        granted a link slot strictly after the previous grant, in the
        canonical order :func:`_grant_key` defines — not in the order
        same-cycle senders happened to run.
        """
        self._packets.value += 1
        now = self.sim.now
        if self._batch_cycle != now or not self._batch:
            self._batch_cycle = now
            self._batch = [pkt]
            # Rendezvous phase: fires after every same-cycle send —
            # including sends from phase-1 component arbiters like the
            # core's issue pump — whatever tie-break is installed (see
            # repro.sim.engine).
            self.sim.schedule(0, self._arbitrate, label="xbar-arb", phase=2)
        else:
            self._batch.append(pkt)

    @staticmethod
    def _grant_key(pkt: Packet):
        return (_TYPE_RANK[pkt.ptype._value_], pkt.addr, pkt.requestor,
                pkt.is_bounce, pkt.is_prefetch)

    def _arbitrate(self) -> None:
        """Grant link slots to every packet issued this cycle."""
        batch, self._batch = self._batch, []
        if len(batch) > 1:
            # Stable sort: same-key packets (e.g. two writes of the same
            # line from one burst) keep their issue order.
            batch.sort(key=self._grant_key)
        for pkt in batch:
            self._deliver(pkt)

    def _deliver(self, pkt: Packet) -> None:
        sim = self.sim
        when = sim.now + self.hop_cycles
        if when <= self._last_delivery:
            when = self._last_delivery + 1
        duplicate = False
        if self.fault_hook is not None:
            fault = self.fault_hook(pkt)
            if fault is not None:
                extra_delay, duplicate = fault
                when += extra_delay

        ptype = pkt.ptype
        if ptype is INMEM_COPY:
            # In-DRAM copies fan out like control broadcasts, but each
            # controller executes a *share* of the work (the destination
            # lines its channel owns), so delivery is a scatter-join:
            # one child packet per controller, one link slot each, and
            # the parent completes when the last child does.  No
            # link-replay duplication — children are created here, and
            # a replayed copy would only re-apply identical bytes.
            self._deliver_inmem(pkt, when)
            return
        if ptype is MCLAZY or ptype is MCFREE:
            # Broadcast: all CTT replicas observe it; the controller that
            # owns the (first line of the) destination performs the shared
            # mutation and acks the packet.  The broadcast latency is part
            # of the FIFO horizon: a read issued just after an MCLAZY must
            # observe the CTT update, or it would return the destination
            # line's stale pre-copy contents and cache them past the
            # hierarchy's invalidation epoch.
            self._broadcasts.value += 1
            when += params.BROADCAST_CYCLES
        self._last_delivery = when

        # Route by channel interleave (AddressMap.channel_of), inlined.
        owner = self._owners[pkt.addr // CACHELINE_SIZE % self._num_channels]
        sim.schedule_at(when, lambda: owner.receive(pkt),
                        label=_DELIVER_LABEL[ptype._value_])
        if duplicate:
            # Link replay: the same packet arrives a second time, still in
            # order (the horizon advances past it).  READ/WRITE handling
            # is idempotent, so the replica only costs bandwidth.
            self._last_delivery = when + 1
            sim.schedule_at(when + 1, lambda: owner.receive(pkt),
                            label=_DUP_LABEL[ptype._value_])

    def _deliver_inmem(self, pkt: Packet, when: int) -> None:
        self._broadcasts.inc()
        when += params.BROADCAST_CYCLES
        self._last_delivery = when + len(self.controllers) - 1
        state = {"left": len(self.controllers)}

        def _child_done(_child: Packet) -> None:
            state["left"] -= 1
            if state["left"] == 0:
                pkt.complete(self.sim.now)

        label = _DELIVER_LABEL[pkt.ptype._value_]
        for slot, mc in enumerate(self.controllers):
            child = Packet(PacketType.INMEM_COPY, pkt.addr, pkt.size,
                           src_addr=pkt.src_addr, on_complete=_child_done,
                           requestor=pkt.requestor)
            child.copy_mode = pkt.copy_mode
            self.sim.schedule_at(when + slot,
                                 lambda mc=mc, child=child: mc.receive(child),
                                 label=label)
