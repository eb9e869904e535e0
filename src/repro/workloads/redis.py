"""Redis-style IO buffer pipeline (the paper's §II-B motivation).

The introduction motivates (MC)² with IO-intensive servers like Redis
that "make use of copied buffers to pass data between independent
subsystems ... one subsystem may log data while another inserts it into
a hash table."  This workload models a SET-command pipeline:

1. the command's value arrives in a network buffer,
2. it is copied into a private buffer for the keyspace (hash insert —
   the value is later *read* when a GET arrives),
3. it is copied again into the append-only-file (AOF) buffer, which a
   background pass streams out to storage,
4. buffers are freed when the pipeline retires them (MCFREE on (MC)²).

Unlike the Protobuf/MongoDB workloads this one exercises the allocator
(:class:`~repro.sw.allocator.FreeListAllocator`) and the MCFREE path on
a steady-state churn of buffers.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from repro import SystemConfig
from repro.common import params
from repro.common.units import CACHELINE_SIZE, KB
from repro.isa import ops
from repro.sw.allocator import FreeListAllocator
from repro.workloads.common import build_machine, fill_pattern, rng


class RedisWorkload:
    """SET/GET mix over a churning buffer pipeline."""

    def __init__(self, engine_name: str, num_commands: int = 40,
                 value_size: int = 4 * KB, get_fraction: float = 0.3,
                 config: Optional[SystemConfig] = None, seed: int = 31):
        self.system, self.engine = build_machine(engine_name, config)
        self.config = self.system.config
        self.engine_name = engine_name
        self.num_commands = num_commands
        self.value_size = value_size
        self.get_fraction = get_fraction
        self.seed = seed

        arena = max(num_commands, 8) * value_size * 4
        self.allocator = FreeListAllocator(self.system, arena)
        self.network_buffer = self.system.alloc(value_size, align=4096)
        fill_pattern(self.system, self.network_buffer, value_size)
        # key -> live keyspace buffer address
        self.keyspace: Dict[int, int] = {}
        self.aof_retired: List[int] = []

    def program(self) -> Iterator[ops.Op]:
        """The command loop."""
        random = rng(self.seed)
        for i in range(self.num_commands):
            key = random.randrange(max(self.num_commands // 2, 1))
            if random.random() < self.get_fraction and key in self.keyspace:
                # GET: read the stored value (accesses copied data).
                yield ops.compute(params.SYSCALL_CYCLES)
                addr = self.keyspace[key]
                pos = 0
                while pos < self.value_size:
                    yield from self.engine.read_ops(addr + pos, 8)
                    yield ops.compute(2)
                    pos += CACHELINE_SIZE
                continue
            # SET: network buffer -> keyspace buffer -> AOF buffer.
            yield ops.compute(params.SYSCALL_CYCLES)  # recv + parse
            value_buf = self.allocator.malloc(self.value_size)
            yield from self.engine.copy_ops(value_buf, self.network_buffer,
                                            self.value_size)
            aof_buf = self.allocator.malloc(self.value_size)
            yield from self.engine.copy_ops(aof_buf, value_buf,
                                            self.value_size)
            yield ops.compute(400)  # dict insert, expiry bookkeeping
            # Retire the previous value for this key.
            old = self.keyspace.pop(key, None)
            if old is not None:
                yield from self.allocator.free_ops(old)
            self.keyspace[key] = value_buf
            # The AOF writer periodically retires flushed buffers without
            # the CPU ever reading them — the redundant-copy case.
            self.aof_retired.append(aof_buf)
            if len(self.aof_retired) >= 4:
                for buf in self.aof_retired:
                    yield from self.allocator.free_ops(buf)
                self.aof_retired.clear()

    def run(self) -> Dict[str, float]:
        """Execute; returns runtime and allocator statistics."""
        finish = self.system.run_program(self.program())
        self.system.drain()
        result = {
            "engine": self.engine_name,
            "cycles": finish,
            "commands": self.num_commands,
            "cycles_per_command": finish / self.num_commands,
            "allocations": self.allocator.allocations,
            "frees": self.allocator.frees,
        }
        if self.system.ctt is not None:
            result["mcfrees"] = sum(
                self.system.stats.children[f"mc{ch}"].counters[
                    "mcfrees"].value
                for ch in range(self.config.dram_channels))
        return result


def run_redis(engine_name: str, num_commands: int = 40,
              value_size: int = 4 * KB,
              config: Optional[SystemConfig] = None) -> Dict[str, float]:
    """Convenience wrapper for one configuration."""
    return RedisWorkload(engine_name, num_commands=num_commands,
                         value_size=value_size, config=config).run()
