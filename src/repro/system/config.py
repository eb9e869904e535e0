"""System configuration (Table I defaults) and variants for sweeps."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.common import params
from repro.common.errors import ConfigError
from repro.common.units import GB, KB, MB


@dataclass(frozen=True)
class SystemConfig:
    """Everything needed to build a :class:`~repro.system.system.System`.

    Defaults reproduce the paper's Table I simulated configuration.
    """

    num_cpus: int = params.NUM_CPUS
    clock_ghz: float = params.CPU_CLOCK_GHZ
    l1_size: int = params.L1_SIZE
    l1_assoc: int = params.L1_ASSOC
    l2_size: int = params.L2_SIZE
    l2_assoc: int = params.L2_ASSOC
    dram_size: int = params.DRAM_SIZE
    dram_channels: int = params.DRAM_CHANNELS
    prefetch_enabled: bool = True

    # (MC)² parameters
    mcsquare_enabled: bool = True
    ctt_entries: int = params.CTT_ENTRIES
    bpq_entries: int = params.BPQ_ENTRIES
    copy_threshold: float = params.CTT_COPY_THRESHOLD
    parallel_frees: int = params.CTT_PARALLEL_FREES
    bounce_writeback: bool = True
    # §VI extension: pair (MC)² with a copy engine that starts resolving
    # entries in the background immediately after insertion, instead of
    # waiting for the fill threshold.
    eager_async_copies: bool = False

    # Copy-engine backend (repro.copyengine).  ``copy_backend`` selects
    # the mechanism System.copy_backend() builds; the remaining fields
    # are per-backend parameters routed by each backend's
    # ``config_kwargs`` (software backends) or the MemoryController
    # constructor (in-DRAM backends).
    copy_backend: str = "mclazy"
    copy_min_lazy: int = 0                # mclazy: interposer threshold
    zio_min_elision: int = params.ZIO_MIN_ELISION_SIZE
    inmem_layout: str = "hash"            # rowclone: "hash" | "ideal"
    inmem_subarray_rows: int = params.ROWCLONE_SUBARRAY_ROWS

    def validate(self) -> None:
        """Raise :class:`ConfigError` on nonsensical settings."""
        if self.num_cpus <= 0:
            raise ConfigError("need at least one CPU")
        if self.dram_channels <= 0:
            raise ConfigError("need at least one DRAM channel")
        if not 0.0 < self.copy_threshold <= 1.0:
            raise ConfigError("copy threshold must be in (0, 1]")
        if self.ctt_entries <= 0 or self.bpq_entries <= 0:
            raise ConfigError("CTT/BPQ sizes must be positive")
        # Import here, not at module top: copyengine imports the sw
        # layer, which would cycle back through configs at import time.
        from repro.copyengine.registry import backend_names, known_backend
        if not known_backend(self.copy_backend):
            raise ConfigError(
                f"unknown copy_backend {self.copy_backend!r}; known "
                f"backends: {', '.join(backend_names())}")
        if self.copy_min_lazy < 0:
            raise ConfigError("copy_min_lazy must be >= 0")
        if self.zio_min_elision < params.ZIO_MIN_ELISION_SIZE:
            raise ConfigError(
                "zio_min_elision below one page is meaningless: zIO can "
                "only remap whole pages")
        if self.inmem_layout not in ("hash", "ideal"):
            raise ConfigError(
                f"inmem_layout must be 'hash' or 'ideal', "
                f"got {self.inmem_layout!r}")
        if self.inmem_subarray_rows <= 0:
            raise ConfigError("inmem_subarray_rows must be positive")

    def with_overrides(self, **kwargs) -> "SystemConfig":
        """A copy of this config with fields replaced."""
        return replace(self, **kwargs)


#: The paper's Table I configuration.
TABLE1 = SystemConfig()

#: Baseline machine without the (MC)² extensions.
BASELINE = SystemConfig(mcsquare_enabled=False)


def small_system(**kwargs) -> SystemConfig:
    """A scaled-down config for fast unit tests (same mechanisms)."""
    defaults = dict(
        num_cpus=2,
        l1_size=16 * KB,
        l2_size=256 * KB,
        dram_size=64 * MB,
        dram_channels=2,
        ctt_entries=64,
        bpq_entries=4,
    )
    defaults.update(kwargs)
    return SystemConfig(**defaults)
