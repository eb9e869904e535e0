"""Unit tests for the baseline memory controller."""

import pytest

from repro.common import params
from repro.dram.address_map import AddressMap
from repro.mem.backing_store import BackingStore
from repro.memctrl.controller import MemoryController
from repro.sim.engine import Simulator
from repro.sim.packet import Packet, PacketType
from repro.sim.stats import StatGroup

CL = 64


@pytest.fixture
def rig():
    sim = Simulator()
    amap = AddressMap(channels=1, banks_per_channel=16, row_bytes=8192)
    backing = BackingStore(1 << 22)
    mc = MemoryController(sim, 0, amap, backing, StatGroup("mc"),
                          wpq_entries=4)
    return sim, mc, backing


class TestReads:
    def test_read_returns_backing_data(self, rig):
        sim, mc, backing = rig
        backing.write_line(0, b"\x42" * CL)
        got = {}
        pkt = Packet(PacketType.READ, 0, CL,
                     on_complete=lambda p: got.setdefault("data", p.data))
        mc.receive(pkt)
        sim.run()
        assert got["data"] == b"\x42" * CL

    def test_read_latency_includes_device_time(self, rig):
        sim, mc, backing = rig
        done = {}
        pkt = Packet(PacketType.READ, 0, CL,
                     on_complete=lambda p: done.setdefault("t", sim.now))
        mc.receive(pkt)
        sim.run()
        assert done["t"] >= (2 * params.MC_STATIC_LATENCY_CYCLES
                             + params.DRAM_ROW_MISS_CYCLES)


class TestWrites:
    def test_write_applies_functionally_at_arrival(self, rig):
        sim, mc, backing = rig
        pkt = Packet(PacketType.WRITE, 0, CL)
        pkt.data = b"\x77" * CL
        mc.receive(pkt)
        assert backing.read_line(0) == b"\x77" * CL  # before any drain

    def test_posted_write_acks_quickly(self, rig):
        sim, mc, backing = rig
        acked = {}
        pkt = Packet(PacketType.WRITE, 0, CL,
                     on_complete=lambda p: acked.setdefault("t", sim.now))
        pkt.data = b"\x01" * CL
        mc.receive(pkt)
        sim.run()
        assert acked["t"] <= params.MC_STATIC_LATENCY_CYCLES + 2

    def test_read_after_write_forwards_new_data(self, rig):
        sim, mc, backing = rig
        w = Packet(PacketType.WRITE, 0, CL)
        w.data = b"\x88" * CL
        mc.receive(w)
        got = {}
        r = Packet(PacketType.READ, 0, CL,
                   on_complete=lambda p: got.setdefault("data", p.data))
        mc.receive(r)
        sim.run()
        assert got["data"] == b"\x88" * CL

    def test_wpq_capacity_back_pressures(self, rig):
        sim, mc, backing = rig
        acks = []
        for i in range(8):  # capacity is 4
            pkt = Packet(PacketType.WRITE, i * CL, CL,
                         on_complete=lambda p: acks.append(sim.now))
            pkt.data = bytes([i]) * CL
            mc.receive(pkt)
        assert len(acks) == 0
        assert mc.stats.counters["wpq_rejects"].value == 4
        sim.run()
        assert len(acks) == 8  # all eventually acked after drains

    def test_wpq_fullness_property(self, rig):
        sim, mc, backing = rig
        assert mc.wpq_fullness == 0.0
        pkt = Packet(PacketType.WRITE, 0, CL)
        pkt.data = bytes(CL)
        mc.receive(pkt)
        assert mc.wpq_fullness == 0.25


class TestOwnership:
    def test_owns_by_channel(self):
        sim = Simulator()
        amap = AddressMap(channels=2, banks_per_channel=16, row_bytes=8192)
        backing = BackingStore(1 << 22)
        mc0 = MemoryController(sim, 0, amap, backing, StatGroup("m0"))
        mc1 = MemoryController(sim, 1, amap, backing, StatGroup("m1"))
        assert mc0.owns(0)
        assert not mc0.owns(64)
        assert mc1.owns(64)
