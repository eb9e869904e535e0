"""Hardware cost model for the (MC)² structures.

The paper sizes the CTT with CACTI 7.0 at 22nm: 2,048 × 16B = 32KB of
SRAM costs 0.14 mm², 0.79 ns access, 33.8 mW bank leakage (§IV).  CACTI
is not importable here, so this module provides a first-order SRAM
scaling model *calibrated to those published numbers* — it exists to
answer "what if the CTT were bigger/smaller?" in sensitivity studies
(Fig. 20 sweeps capacity; this prices each point), not to re-derive
CACTI.

Scaling rules of thumb for small SRAM arrays:
* area grows ~linearly with capacity (cell-dominated above a few KB),
* access time grows ~sqrt(capacity) (wordline/bitline RC),
* leakage grows ~linearly with capacity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.common import params
from repro.common.errors import ConfigError

#: Published CACTI anchor point for the paper's configuration.
ANCHOR_BYTES = params.CTT_ENTRIES * params.CTT_ENTRY_BYTES  # 32 KiB
ANCHOR_AREA_MM2 = params.CTT_AREA_MM2                       # 0.14
ANCHOR_LATENCY_NS = params.CTT_LATENCY_NS                   # 0.79
ANCHOR_LEAKAGE_MW = params.CTT_LEAKAGE_MW                   # 33.8


@dataclass(frozen=True)
class SramEstimate:
    """Estimated cost of one SRAM structure."""

    capacity_bytes: int
    area_mm2: float
    access_ns: float
    leakage_mw: float

    def access_cycles(self, clock_ghz: float = 4.0) -> int:
        """Access latency in CPU cycles (rounded up)."""
        from repro.common.units import ns_to_cycles
        return ns_to_cycles(self.access_ns, clock_ghz)


def estimate_ctt(entries: int,
                 entry_bytes: int = params.CTT_ENTRY_BYTES) -> SramEstimate:
    """Cost of a CTT with ``entries`` entries, scaled from the anchor."""
    if entries <= 0:
        raise ConfigError("entries must be positive")
    capacity = entries * entry_bytes
    ratio = capacity / ANCHOR_BYTES
    return SramEstimate(
        capacity_bytes=capacity,
        area_mm2=ANCHOR_AREA_MM2 * ratio,
        access_ns=ANCHOR_LATENCY_NS * math.sqrt(ratio),
        leakage_mw=ANCHOR_LEAKAGE_MW * ratio,
    )


def estimate_bpq(entries: int = params.BPQ_ENTRIES) -> SramEstimate:
    """Cost of the BPQ: entries hold a full cacheline plus an address."""
    entry_bytes = 64 + 8
    capacity = entries * entry_bytes
    ratio = capacity / ANCHOR_BYTES
    return SramEstimate(
        capacity_bytes=capacity,
        area_mm2=ANCHOR_AREA_MM2 * ratio,
        access_ns=ANCHOR_LATENCY_NS * math.sqrt(max(ratio, 1e-6)),
        leakage_mw=ANCHOR_LEAKAGE_MW * ratio,
    )


def area_overhead_fraction(entries: int = params.CTT_ENTRIES,
                           die_mm2: float = 100.0) -> float:
    """CTT area as a fraction of an IO die (paper: ~0.2% of ~100 mm²)."""
    return estimate_ctt(entries).area_mm2 / die_mm2


def summarize(entries: int = params.CTT_ENTRIES) -> str:
    """Human-readable cost summary for a CTT configuration."""
    e = estimate_ctt(entries)
    return (f"CTT({entries} entries): {e.capacity_bytes // 1024}KB SRAM, "
            f"{e.area_mm2:.3f} mm^2, {e.access_ns:.2f} ns, "
            f"{e.leakage_mw:.1f} mW leakage "
            f"({100 * area_overhead_fraction(entries):.2f}% of a 100 mm^2 "
            f"IO die)")
