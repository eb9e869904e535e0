"""Protobuf serialization workload (Fleetbench-style; Figs. 2-4, 14, 20).

Google's Fleetbench Protobuf benchmark replays serialization /
deserialization / MergeFrom operations with message sizes taken from
production traces.  The trace itself is not redistributable, so this
workload draws memcpy sizes from the paper's published distribution
(Fig. 4: a CDF over 2B..4KB with ~56% of copies exactly 1KB) and
reproduces the access pattern that matters: fields are copied between an
object arena and a serialization buffer, then a fraction of the copied
bytes is read back (parsing / checksum / merge), interleaved with
per-field compute.

The interposer redirects copies >= 1KB to ``memcpy_lazy`` (§V-B).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro import SystemConfig
from repro.common import params
from repro.common.units import CACHELINE_SIZE, KB
from repro.isa import ops
from repro.workloads.common import (RegionTracker, build_machine,
                                    fill_pattern, rng)

#: The paper's Fig. 4 size distribution: (size, cumulative probability).
SIZE_CDF: List[Tuple[int, float]] = [
    (2, 0.02), (4, 0.05), (8, 0.09), (16, 0.14), (32, 0.19),
    (64, 0.25), (128, 0.31), (256, 0.36), (512, 0.40),
    (1024, 0.96), (2048, 0.99), (4096, 1.00),
]


def sample_copy_size(random) -> int:
    """Draw one memcpy size from the Fig. 4 CDF."""
    u = random.random()
    for size, cum in SIZE_CDF:
        if u <= cum:
            return size
    return SIZE_CDF[-1][0]


def generate_messages(num_ops: int, seed: int = 11) -> List[List[int]]:
    """Field-size lists for ``num_ops`` protobuf operations.

    Each operation serializes one message of 1-6 fields whose sizes
    follow the Fig. 4 distribution.
    """
    random = rng(seed)
    messages = []
    for _ in range(num_ops):
        fields = [sample_copy_size(random)
                  for _ in range(random.randint(1, 6))]
        # Wire format packs the compact scalar fields at the head of the
        # message, followed by the large string/bytes payloads.
        fields.sort()
        messages.append(fields)
    return messages


class ProtobufWorkload:
    """One run of the protobuf workload on a given engine."""

    def __init__(self, engine_name: str, num_ops: int = 60,
                 access_fraction: float = 0.1, seed: int = 11,
                 config: Optional[SystemConfig] = None,
                 min_lazy: int = params.INTERPOSER_MIN_LAZY_SIZE):
        # The interposer threshold reaches the backends that have one
        # through SystemConfig.copy_min_lazy.
        config = (config or SystemConfig()).with_overrides(
            copy_min_lazy=min_lazy)
        self.system, self.engine = build_machine(engine_name, config)
        self.config = self.system.config
        self.engine_name = engine_name
        self.messages = generate_messages(num_ops, seed)
        self.access_fraction = access_fraction
        self.regions = RegionTracker()
        self._random = rng(seed + 1)

        total = sum(sum(m) for m in self.messages)
        arena = max(4 * total, 256 * KB)
        self.object_arena = self.system.alloc(arena, align=4096)
        self.wire_buffer = self.system.alloc(arena, align=4096)
        self.scratch = self.system.alloc(arena, align=4096)
        fill_pattern(self.system, self.object_arena, arena)
        # Messages live wherever the allocator put them: scatter each
        # message's object across the arena so the copy sources are not
        # one long prefetchable stream (heap allocation, not an array).
        placer = rng(seed + 2)
        self.placements = []
        for fields in self.messages:
            span = sum(fields)
            start = placer.randrange(max(arena - span, 1))
            self.placements.append(start & ~0x3F)

    # ---------------------------------------------------------- programs
    def program(self) -> Iterator[ops.Op]:
        """The full workload as one op stream.

        Every message serializes a *fresh* object (as the Fleetbench
        trace replays a stream of distinct messages), so sources are not
        conveniently cache-resident — the condition behind the paper's
        Fig. 3 miss rates.
        """
        obj = self.object_arena
        wire = self.wire_buffer
        scratch = self.scratch
        wire_off = 0
        for i, (fields, place) in enumerate(zip(self.messages,
                                                self.placements)):
            # Fleetbench samples independent operations over distinct
            # messages; alternate serialize / deserialize, each moving a
            # *different* message's fields.  Parsing is serial: the next
            # field's location depends on this field's tag/length, so a
            # blocking descriptor read precedes each copy.
            serialize = (i % 2 == 0)
            # Serialize ops write into the outgoing half of the wire
            # arena; deserialize ops parse *cold* received buffers from
            # the incoming half (network RX fixtures), never bytes some
            # earlier op serialized.
            half = len(self.messages) * 4096 // 2
            if serialize:
                src_base = obj + place
                dst_base = wire + (wire_off % half)
            else:
                src_base = wire + half + (wire_off % half)
                dst_base = scratch + place
            src_off = dst_off = 0
            for field_idx, size in enumerate(fields):
                # Field tags/lengths sit in a compact descriptor block at
                # the head of the message, so parsing reads one or two
                # cachelines total - not a cold line per kilobyte field.
                hdr = self.engine.read_ops(src_base + field_idx * 8, 8,
                                           blocking=True)
                for op in hdr:
                    yield op
                yield ops.compute(20)  # tag decode, bounds checks
                yield self.regions.begin("memcpy")
                yield from self.engine.copy_ops(dst_base + dst_off,
                                                src_base + src_off, size)
                yield self.regions.end("memcpy")
                # A fraction of the copied field is touched afterwards
                # (validation / checksum / later merge).
                accessed = int(size * self.access_fraction)
                pos = 0
                while pos < accessed:
                    yield from self.engine.read_ops(
                        dst_base + dst_off + pos, 8)
                    yield ops.compute(4)
                    pos += CACHELINE_SIZE
                src_off += size
                dst_off += size
            wire_off += sum(fields)

    # -------------------------------------------------------------- runs
    def run(self) -> Dict[str, float]:
        """Execute and return runtime plus attribution stats."""
        finish = self.system.run_program(self.program())
        self.system.drain()
        core = self.system.stats.children["core0"].counters
        caches = self.system.stats.children["caches"]
        l1 = caches.children["l1_0"].counters
        result = {
            "engine": self.engine_name,
            "cycles": finish,
            "ms": finish / (self.config.clock_ghz * 1e6),
            "memcpy_cycles": self.regions.cycles("memcpy"),
            "copy_fraction": self.regions.cycles("memcpy") / max(finish, 1),
            "loads": core["loads"].value,
            "l1_misses": l1["misses"].value,
            "l1_hits": l1["hits"].value,
            "mem_miss_cycles": core["mem_miss_cycles"].value,
            "stall_cycles": core["stall_cycles"].value,
        }
        if self.system.ctt is not None:
            ctt = self.system.stats.children["ctt"].counters
            stalls = sum(
                self.system.stats.children[f"mc{ch}"].counters[
                    "ctt_full_stall_cycles"].value
                for ch in range(self.config.dram_channels))
            result["ctt_inserts"] = ctt["inserts"].value
            result["ctt_full_stall_cycles"] = stalls
        return result


def run_protobuf(engine_name: str, num_ops: int = 60,
                 config: Optional[SystemConfig] = None,
                 seed: int = 11) -> Dict[str, float]:
    """Convenience wrapper: build, run, and report one configuration."""
    return ProtobufWorkload(engine_name, num_ops=num_ops, seed=seed,
                            config=config).run()


def size_distribution(num_samples: int = 20000,
                      seed: int = 3) -> List[Tuple[int, float]]:
    """Empirical CDF of sampled copy sizes (regenerates Fig. 4)."""
    random = rng(seed)
    counts: Dict[int, int] = {}
    for _ in range(num_samples):
        size = sample_copy_size(random)
        counts[size] = counts.get(size, 0) + 1
    out: List[Tuple[int, float]] = []
    cum = 0
    for size, _ in SIZE_CDF:
        cum += counts.get(size, 0)
        out.append((size, cum / num_samples))
    return out
