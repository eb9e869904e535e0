"""Unit tests for the packet layer."""

from repro.sim.packet import Packet, PacketType


class TestPacket:
    def test_packets_carry_no_process_global_state(self):
        # Packets deliberately have no serial id: a module-level counter
        # would be shared mutable state across forked sweep workers.
        assert not hasattr(Packet(PacketType.READ, 0), "id")

    def test_complete_fires_once(self):
        fired = []
        pkt = Packet(PacketType.READ, 0,
                     on_complete=lambda p: fired.append(p))
        pkt.complete(10)
        pkt.complete(20)  # second call is a no-op
        assert fired == [pkt]
        assert pkt.completed_at == 20  # timestamp still records last call

    def test_complete_without_callback(self):
        Packet(PacketType.WRITE, 0).complete(5)  # must not raise

    def test_mclazy_carries_descriptor(self):
        pkt = Packet(PacketType.MCLAZY, 0x2000, 4096, src_addr=0x1000)
        assert pkt.addr == 0x2000
        assert pkt.src_addr == 0x1000
        assert pkt.size == 4096

    def test_provenance_flags_default_false(self):
        pkt = Packet(PacketType.READ, 0)
        assert not pkt.is_prefetch

    def test_repr_includes_src(self):
        pkt = Packet(PacketType.MCLAZY, 0x40, 64, src_addr=0x80)
        assert "src=0x80" in repr(pkt)
