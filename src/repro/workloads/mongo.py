"""MongoDB insert workload (YCSB load phase; Fig. 15).

Replicates the zIO paper's experiment as run in §V-B: a client loads
documents of 10 fields × 100KB each; each insert moves the document
through MongoDB's copy pipeline:

1. the network receive buffer is copied into an internal IO buffer,
2. inserted fields are copied again into the in-memory B-tree used for
   indexing (and the key bytes are *read* during tree descent —
   the accesses that make zIO fault),
3. the document is copied into the journal/log, which is then read
   sequentially when the log is flushed.

The measurement is average insert latency.  (MC)² elides the copies and
services the later accesses by bouncing; zIO elides them but pays a
page fault per accessed page, which is why it *slows down* inserts.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional

from repro import SystemConfig
from repro.common import params
from repro.common.units import CACHELINE_SIZE, KB, PAGE_SIZE
from repro.isa import ops
from repro.workloads.common import (LatencyRecorder, build_machine,
                                    fill_pattern, rng)


class MongoInsertWorkload:
    """YCSB-style load phase against the simulated copy pipeline."""

    def __init__(self, engine_name: str, num_inserts: int = 10,
                 fields_per_doc: int = 10, field_size: int = 100 * KB,
                 index_read_fraction: float = 0.3,
                 config: Optional[SystemConfig] = None, seed: int = 23):
        self.system, self.engine = build_machine(engine_name, config)
        self.config = self.system.config
        self.engine_name = engine_name
        self.num_inserts = num_inserts
        self.fields_per_doc = fields_per_doc
        self.field_size = field_size
        self.index_read_fraction = index_read_fraction
        self._random = rng(seed)

        doc_size = fields_per_doc * field_size
        self.recv_buffer = self.system.alloc(doc_size, align=PAGE_SIZE)
        self.io_buffer = self.system.alloc(doc_size, align=PAGE_SIZE)
        self.btree_arena = self.system.alloc(doc_size * 2, align=PAGE_SIZE)
        self.log_buffer = self.system.alloc(doc_size * 2, align=PAGE_SIZE)
        fill_pattern(self.system, self.recv_buffer, doc_size)
        self.latencies = LatencyRecorder()

    def _insert_ops(self, insert_idx: int) -> Iterator[ops.Op]:
        doc_size = self.fields_per_doc * self.field_size
        yield self.latencies.begin()
        yield ops.compute(params.SYSCALL_CYCLES)  # recv() of the document
        # Non-copy insert work: BSON validation, WiredTiger tree
        # maintenance, session/locking and oplog bookkeeping.  The paper's
        # Fig. 15 inserts take ~15 ms for 1MB documents, of which copies
        # are a minority (Fig. 2: ~35%); this charge calibrates the
        # non-copy share to that ratio.
        yield ops.compute(doc_size * 12 + 20_000)

        # 1. network buffer -> IO buffer, field by field
        for f in range(self.fields_per_doc):
            off = f * self.field_size
            yield from self.engine.copy_ops(self.io_buffer + off,
                                            self.recv_buffer + off,
                                            self.field_size)

        # 2. IO buffer -> B-tree node arena; tree descent reads keys
        slot = (insert_idx % 2) * doc_size
        for f in range(self.fields_per_doc):
            off = f * self.field_size
            yield from self.engine.copy_ops(self.btree_arena + slot + off,
                                            self.io_buffer + off,
                                            self.field_size)
            # Key comparisons read a prefix of the copied field.
            read_bytes = int(self.field_size * self.index_read_fraction)
            pos = 0
            while pos < read_bytes:
                yield from self.engine.read_ops(
                    self.btree_arena + slot + off + pos, 8)
                yield ops.compute(4)
                pos += CACHELINE_SIZE * 4

        # 3. IO buffer -> journal, then the journal entry is flushed
        #    (sequential read of everything just written).
        log_slot = (insert_idx % 2) * doc_size
        yield from self.engine.copy_ops(self.log_buffer + log_slot,
                                        self.io_buffer, doc_size)
        pos = 0
        while pos < doc_size:
            yield from self.engine.read_ops(self.log_buffer + log_slot + pos, 8)
            pos += CACHELINE_SIZE * 8
        yield ops.mfence()
        yield self.latencies.end()

    def program(self) -> Iterator[ops.Op]:
        """All inserts, back to back."""
        for i in range(self.num_inserts):
            yield from self._insert_ops(i)

    def run(self) -> Dict[str, float]:
        """Execute; returns average/percentile insert latency."""
        finish = self.system.run_program(self.program())
        self.system.drain()
        lat = self.latencies
        return {
            "engine": self.engine_name,
            "cycles": finish,
            "inserts": self.num_inserts,
            "avg_insert_latency_cycles": sum(lat.samples) / len(lat.samples),
            "avg_insert_latency_ms": (sum(lat.samples) / len(lat.samples))
            / (self.config.clock_ghz * 1e6),
            "p99_insert_latency_cycles": max(lat.samples),
        }


def run_mongo(engine_name: str, num_inserts: int = 10,
              field_size: int = 100 * KB,
              config: Optional[SystemConfig] = None) -> Dict[str, float]:
    """Convenience wrapper for one configuration."""
    return MongoInsertWorkload(engine_name, num_inserts=num_inserts,
                               field_size=field_size, config=config).run()
