"""The per-event paths never hash a ``PacketType`` or ``OpKind`` member.

An Enum member hashes through a Python-level ``Enum.__hash__`` call,
which the interconnect's label and grant tables and the core's issue
tables used to pay once per packet or op.  They are keyed by the
member's value string now; these tests count ``__hash__`` calls over
whole runs so an enum-keyed table cannot creep back into a hot path.
"""

import pytest

from repro.common.units import KB
from repro.isa import ops
from repro.isa.ops import OpKind
from repro.sim.packet import PacketType
from repro.workloads.common import build_machine


@pytest.fixture
def hash_calls(monkeypatch):
    """Count ``__hash__`` calls on both enums while the test runs."""
    calls = {PacketType: 0, OpKind: 0}
    for enum_cls in calls:
        original = enum_cls.__hash__

        def counting(self, enum_cls=enum_cls, original=original):
            calls[enum_cls] += 1
            return original(self)

        monkeypatch.setattr(enum_cls, "__hash__", counting)
    return calls


def test_counter_sees_enum_keyed_lookups(hash_calls):
    # One hash to build each table and one to look the member up.
    assert {PacketType.READ: 1}[PacketType.READ] == 1
    assert OpKind.LOAD in {OpKind.LOAD}
    assert hash_calls == {PacketType: 2, OpKind: 2}


def test_sequential_lazy_copy_run_hashes_no_enum(hash_calls):
    system, backend = build_machine("mclazy")
    size = 16 * KB
    src = system.alloc(size + 4096, align=4096) + 16
    dst = system.alloc(size + 4096, align=4096)
    system.backing.write(src, bytes(range(256)) * (size // 256))

    def program():
        yield from backend.copy_ops(dst, src, size)
        for off in range(0, size // 2, 64):
            yield from backend.read_ops(dst + off, 8)
            yield ops.compute(1)

    system.run_program(program())
    system.drain()
    assert system.read_memory(dst, size) == bytes(range(256)) * (size // 256)
    assert hash_calls == {PacketType: 0, OpKind: 0}


def test_kernel_bulk_copy_hashes_no_enum(hash_calls):
    system, backend = build_machine("eager", kernel=True)
    size = 64 * KB
    src = system.alloc(size, align=4096)
    dst = system.alloc(size, align=4096)
    system.backing.fill(src, size, 0x5A)

    system.run_program(backend.copy_ops(dst, src, size))
    system.drain()
    assert system.read_memory(dst, size) == b"\x5a" * size
    assert hash_calls == {PacketType: 0, OpKind: 0}
