"""MVCC database workload (Cicada-style; Figs. 16, 17, 22).

Write transactions in a multi-version concurrency control database copy
the tuple they modify, update their private version, and install it at
commit.  With 8KB rows and updates touching a small fraction of the
tuple, most of the copy is wasted work — the opportunity (MC)² exploits.

The workload runs a 50:50 read/update mix over a table of 8KB rows.
Updates come in three flavours:

* ``rmw``       — read-modify-write: load + store per touched line,
* ``write``     — write-only stores (RFO still reads memory),
* ``write_nt``  — non-temporal stores (no RFO; Fig. 17 variant).

Throughput is reported in kOps/s.  Multi-threaded runs place one
partition per core, as Cicada's shared-nothing-ish execution does.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from repro import SystemConfig
from repro.common.errors import ConfigError
from repro.common.units import CACHELINE_SIZE, KB
from repro.isa import ops
from repro.workloads.common import (build_machine, fill_pattern,
                                    make_engine, rng)


class MvccWorkload:
    """Read/update transaction mix over versioned 8KB tuples."""

    def __init__(self, engine_name: str, num_threads: int = 1,
                 txns_per_thread: int = 30, row_size: int = 8 * KB,
                 rows_per_partition: int = 16,
                 update_fraction_of_row: float = 0.0625,
                 update_kind: str = "rmw",
                 read_fraction: float = 0.5,
                 config: Optional[SystemConfig] = None, seed: int = 5):
        if update_kind not in ("rmw", "write", "write_nt"):
            raise ConfigError(f"bad update kind {update_kind!r}")
        config = config or SystemConfig()
        if num_threads > config.num_cpus:
            raise ConfigError("more threads than simulated CPUs")
        self.system, engine = build_machine(engine_name, config)
        self.config = self.system.config
        self.engine_name = engine_name
        self.num_threads = num_threads
        self.txns_per_thread = txns_per_thread
        self.row_size = row_size
        self.rows = rows_per_partition
        self.update_bytes = int(row_size * update_fraction_of_row)
        self.update_kind = update_kind
        self.read_fraction = read_fraction
        self.seed = seed

        # Per-thread partitions: a table region plus a version arena with
        # two alternating version slots per row.
        self.partitions: List[Dict[str, int]] = []
        for t in range(num_threads):
            table = self.system.alloc(row_size * rows_per_partition,
                                      align=4096)
            versions = self.system.alloc(row_size * rows_per_partition * 2,
                                         align=4096)
            fill_pattern(self.system, table, row_size * rows_per_partition,
                         seed=seed + t)
            self.partitions.append({"table": table, "versions": versions})
        # One engine per thread (zIO tracking is per-process but our
        # workload partitions do not overlap, so this is equivalent).
        self.engines = [engine] + [make_engine(engine_name, self.system)
                                   for _ in range(num_threads - 1)]

    # ----------------------------------------------------------- programs
    def _thread_program(self, thread: int) -> Iterator[ops.Op]:
        part = self.partitions[thread]
        engine = self.engines[thread]
        random = rng(self.seed * 97 + thread)
        for txn in range(self.txns_per_thread):
            row = random.randrange(self.rows)
            row_addr = part["table"] + row * self.row_size
            if random.random() < self.read_fraction:
                # Read transaction: timestamp + version-chain walk, then
                # scan a quarter of the row.
                yield ops.compute(800)
                pos = 0
                while pos < self.row_size // 4:
                    yield from engine.read_ops(row_addr + pos, 8)
                    yield ops.compute(2)
                    pos += CACHELINE_SIZE
                continue
            # Update transaction: copy the tuple into a fresh version...
            slot = (txn % 2) * self.rows * self.row_size
            version_addr = part["versions"] + slot + row * self.row_size
            # Cicada's per-write-txn work beyond the copy: timestamp
            # allocation, version install, read/write-set validation and
            # the WAL record (~1-2 us on real hardware).
            yield ops.compute(4000)
            yield from engine.copy_ops(version_addr, row_addr,
                                       self.row_size)
            # ...modify a fraction of it...
            touched = 0
            pos = int(random.randrange(
                max(1, self.row_size - self.update_bytes))
                // CACHELINE_SIZE) * CACHELINE_SIZE
            while touched < self.update_bytes:
                addr = version_addr + (pos + touched) % self.row_size
                addr -= addr % CACHELINE_SIZE
                if self.update_kind == "rmw":
                    yield from engine.read_ops(addr, 8)
                    yield ops.compute(2)
                    yield from engine.write_ops(addr, 8)
                elif self.update_kind == "write":
                    yield from engine.write_ops(addr, 8)
                else:  # write_nt
                    yield from engine.write_ops(addr, CACHELINE_SIZE,
                                                nontemporal=True)
                touched += CACHELINE_SIZE
            # ...and commit: validation + install the version pointer,
            # retire the old version, write the log record.
            yield ops.compute(4000)
            yield from engine.free_ops(row_addr, self.row_size)

    def run(self) -> Dict[str, float]:
        """Execute on ``num_threads`` cores; returns throughput."""
        programs = {t: self._thread_program(t)
                    for t in range(self.num_threads)}
        finish = self.system.run_programs(programs)
        self.system.drain()
        total_txns = self.num_threads * self.txns_per_thread
        seconds = finish / (self.config.clock_ghz * 1e9)
        return {
            "engine": self.engine_name,
            "threads": self.num_threads,
            "update_kind": self.update_kind,
            "update_bytes": self.update_bytes,
            "cycles": finish,
            "txns": total_txns,
            "kops_per_sec": total_txns / seconds / 1e3,
        }


def run_mvcc(engine_name: str, update_fraction: float,
             num_threads: int = 1, update_kind: str = "rmw",
             txns_per_thread: int = 30,
             config: Optional[SystemConfig] = None) -> Dict[str, float]:
    """One (engine, fraction, threads, kind) cell of Figs. 16/17/22."""
    return MvccWorkload(engine_name, num_threads=num_threads,
                        update_fraction_of_row=update_fraction,
                        update_kind=update_kind,
                        txns_per_thread=txns_per_thread,
                        config=config).run()
