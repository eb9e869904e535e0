"""DDR4 timing specification.

Derives the cycle-level constants in :mod:`repro.common.params` from
JEDEC-style device timings, so different speed grades (or a CXL-attached
latency adder, §I's motivation) can be swapped in.  The derivation is
deliberately first-order: the simulator's channel model needs only three
latency classes (row hit / closed row / row conflict) plus the data-burst
occupancy, which is what dominates the paper's results.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.units import ns_to_cycles


@dataclass(frozen=True)
class DdrTiming:
    """One speed grade's primary timings, in nanoseconds.

    Attributes follow JEDEC naming: tCL (CAS latency), tRCD (activate to
    column), tRP (precharge), tBL (data burst on the bus for one 64B
    line), plus an additive ``extra_ns`` for far-memory configurations
    (e.g. a CXL hop).
    """

    name: str
    tCL: float
    tRCD: float
    tRP: float
    tBL: float
    extra_ns: float = 0.0

    # ------------------------------------------------------- derivations
    @property
    def row_hit_ns(self) -> float:
        """Open-row access: CAS latency only."""
        return self.tCL + self.extra_ns

    @property
    def row_miss_ns(self) -> float:
        """Closed row: activate then CAS."""
        return self.tRCD + self.tCL + self.extra_ns

    @property
    def row_conflict_ns(self) -> float:
        """Wrong row open: precharge, activate, CAS."""
        return self.tRP + self.tRCD + self.tCL + self.extra_ns

    def cycles(self, clock_ghz: float = 4.0) -> dict:
        """All four constants in CPU cycles at ``clock_ghz``."""
        return {
            "row_hit": ns_to_cycles(self.row_hit_ns, clock_ghz),
            "row_miss": ns_to_cycles(self.row_miss_ns, clock_ghz),
            "row_conflict": ns_to_cycles(self.row_conflict_ns, clock_ghz),
            "burst": ns_to_cycles(self.tBL, clock_ghz),
        }


#: The default grade behind ``repro.common.params``.  The "t" values are
#: *effective* latencies as seen at the controller (JEDEC timing plus
#: on-DIMM command overheads), which is why tCL here is larger than the
#: raw 14 ns CAS of a DDR4-2400 part; 64B over a 64-bit bus at 2400 MT/s
#: is 8 beats = 3.33 ns.
DDR4_2400 = DdrTiming(name="DDR4-2400", tCL=26.0, tRCD=26.0, tRP=26.0,
                      tBL=3.33)

#: A faster bin, for sensitivity studies.
DDR4_3200 = DdrTiming(name="DDR4-3200", tCL=21.0, tRCD=21.0, tRP=21.0,
                      tBL=2.50)

#: CXL-attached DRAM: same device, plus a ~70ns controller/link adder —
#: the "memory latencies may worsen" future the paper motivates with.
CXL_DDR4 = DdrTiming(name="CXL-DDR4-2400", tCL=26.0, tRCD=26.0,
                     tRP=26.0, tBL=3.33, extra_ns=70.0)


def apply_timing(timing: DdrTiming, clock_ghz: float = 4.0) -> None:
    """Install a speed grade into :mod:`repro.common.params` globally.

    Affects systems built *after* the call.  Intended for sensitivity
    sweeps; tests must restore the default when done.
    """
    from repro.common import params

    derived = timing.cycles(clock_ghz)
    params.DRAM_ROW_HIT_CYCLES = derived["row_hit"]
    params.DRAM_ROW_MISS_CYCLES = derived["row_miss"]
    params.DRAM_ROW_CONFLICT_CYCLES = derived["row_conflict"]
    params.DRAM_BURST_CYCLES = derived["burst"]
