"""Calibrated latency / capacity constants with their provenance.

Every magic number in the simulator lives here so that the calibration is
auditable in one place.  Sources are the paper's Table I, common public
microarchitecture references, and (for OS costs) published measurements the
paper itself cites (zIO, On-demand-fork).

All times are CPU cycles at 4 GHz (0.25 ns / cycle) unless stated otherwise.
"""

from __future__ import annotations

from repro.common.units import KB, MB, GB, ns_to_cycles

# --------------------------------------------------------------- Table I
NUM_CPUS = 8
CPU_CLOCK_GHZ = 4.0
L1_SIZE = 64 * KB            # per CPU, with stride prefetcher
L2_SIZE = 2 * MB             # shared, with stride prefetcher
DRAM_SIZE = 3 * GB
DRAM_CHANNELS = 2
BPQ_ENTRIES = 8
CTT_ENTRIES = 2048
CTT_LATENCY_NS = 0.79        # CACTI 7.0, 22nm (paper §IV)
CTT_LATENCY_CYCLES = ns_to_cycles(CTT_LATENCY_NS)          # -> 4 cycles
CTT_ENTRY_BYTES = 16         # 52b src + 52b dst + 21b size + 1b active + pad
CTT_AREA_MM2 = 0.14          # CACTI, reported for context only
CTT_LEAKAGE_MW = 33.8        # CACTI, reported for context only
CTT_MAX_COPY_SIZE = 2 * MB   # 21-bit size field tracks up to a huge page
CTT_COPY_THRESHOLD = 0.50    # async freeing starts at 50% occupancy
CTT_PARALLEL_FREES = 4       # entries freed in parallel per MC (Fig 22)
CTT_RETRY_CYCLES = 50        # MCLAZY retry interval while it stalls
WPQ_REJECT_THRESHOLD = 0.75  # dest writeback rejected when WPQ >75% full

# ------------------------------------------------------- cache hierarchy
L1_ASSOC = 8
L1_HIT_CYCLES = 4            # typical L1D load-to-use
L2_ASSOC = 16
L2_HIT_CYCLES = 30           # shared LLC round trip
CACHE_WRITEBUFFER_ENTRIES = 16

# stride prefetcher (both levels per Table I)
PREFETCH_DEGREE = 4
PREFETCH_TABLE_ENTRIES = 64
PREFETCH_CONFIDENCE_THRESHOLD = 2
PREFETCH_MAX_INFLIGHT = 8         # prefetch queue depth (bounds how far
                                  # the prefetcher can run ahead, as
                                  # gem5's queued prefetcher does)

# ------------------------------------------------------------------ DRAM
# DDR4-2400-ish timing.  Row-buffer hit ~ tCL + transfer; miss adds
# tRP + tRCD.  The paper quotes the typical DRAM range as 15-90 ns.
DRAM_ROW_HIT_NS = 26.0
DRAM_ROW_MISS_NS = 52.0
DRAM_ROW_CONFLICT_NS = 78.0
DRAM_BURST_NS = 3.33         # 64B burst on a DDR4-2400 x64 channel
DRAM_BANKS_PER_CHANNEL = 32  # 2 ranks x 16 banks
DRAM_ROW_BYTES = 8 * KB
MC_RPQ_ENTRIES = 32
MC_WPQ_ENTRIES = 64
MC_STATIC_LATENCY_NS = 18.0  # controller queues + PHY traversal each way

DRAM_ROW_HIT_CYCLES = ns_to_cycles(DRAM_ROW_HIT_NS)
DRAM_ROW_MISS_CYCLES = ns_to_cycles(DRAM_ROW_MISS_NS)
DRAM_ROW_CONFLICT_CYCLES = ns_to_cycles(DRAM_ROW_CONFLICT_NS)
DRAM_BURST_CYCLES = ns_to_cycles(DRAM_BURST_NS)
MC_STATIC_LATENCY_CYCLES = ns_to_cycles(MC_STATIC_LATENCY_NS)

# ----------------------------------------------------------- interconnect
INTERCONNECT_HOP_CYCLES = 12      # LLC <-> MC traversal, one way
BROADCAST_CYCLES = 16             # CTT update broadcast / snoop

# ----------------------------------------------- robustness / fault model
LINK_RETRY_CYCLES = 200           # CRC-detected link fault: retransmission
                                  # delay (CXL/DDR links retry in-order)
WATCHDOG_CHECK_EVERY_EVENTS = 50_000  # watchdog progress-check granularity
WATCHDOG_STALL_CHECKS = 3         # zero-progress windows before post-mortem

# ------------------------------------------------ supervised sweeps (host)
# Host-side orchestration budgets for repro.resilience: these bound the
# *simulator process*, never simulated behaviour (host time stays outside
# every simulated decision, per MC2001).
SWEEP_POINT_TIMEOUT_QUICK_S = 300.0   # wall-clock deadline per sweep point
SWEEP_POINT_TIMEOUT_FULL_S = 7200.0   # paper-sized REPRO_SCALE=full points
SWEEP_MAX_ATTEMPTS = 3            # attempts before a point is quarantined
SWEEP_BACKOFF_BASE_S = 0.25       # first retry delay (doubles per attempt)
SWEEP_BACKOFF_CAP_S = 8.0         # exponential-backoff ceiling

# ------------------------------------------------------------------- CPU
ROB_ENTRIES = 224                 # Skylake-class reorder buffer
LSQ_ENTRIES = 72                  # combined load/store queue budget
MAX_OUTSTANDING_MISSES = 8        # L1 MSHRs: bounds memory-level parallelism
                                  # (with the prefetch queue depth, this
                                  # calibrates single-stream copy speed to
                                  # the paper's gem5 Fig. 10 memcpy curve)
ISSUE_WIDTH = 4
STORE_BUFFER_ENTRIES = 56
CLWB_ISSUE_CYCLES = 2             # cost of issuing one CLWB µop
CLWB_PROBE_CYCLES = 20            # cache-probe drain for a clean/absent line
CLWB_PARALLELISM = 8              # concurrent CLWB drains (LFB share)
MCLAZY_ISSUE_CYCLES = 6           # build + send the lazy-copy packet
MCLAZY_SETUP_CYCLES = 30          # two address translations + operand setup
MEMCPY_LAZY_CALL_CYCLES = 100     # wrapper entry: ALIGN_REM math, branches
MFENCE_CYCLES = 33                # drain fence
NT_STORE_CYCLES = 2               # non-temporal store issue (no RFO)
LOOP_OVERHEAD_CYCLES = 3          # memcpy test+loop+address-gen per SIMD
                                  # iteration (calibrated to the paper's gem5
                                  # small-copy throughput, ~1.4 GB/s at 1KB)

# ---------------------------------------------------------------- OS costs
# Page fault entry/exit and service cost, excluding the data copy itself.
# zIO (OSDI'22) reports userfaultfd-style fault handling in the ~1.5-4 us
# range; minor COW faults in native kernels are ~1-2 us.
PAGE_FAULT_CYCLES = ns_to_cycles(1500.0)
USERFAULTFD_FAULT_CYCLES = ns_to_cycles(1500.0)
TLB_SHOOTDOWN_CYCLES = ns_to_cycles(4000.0)  # IPI to all cores + flush
TLB_SHOOTDOWN_PER_PAGE_CYCLES = ns_to_cycles(100.0)
SYSCALL_CYCLES = ns_to_cycles(700.0)         # mode switch + dispatch
FORK_BASE_CYCLES = ns_to_cycles(50_000.0)    # fork() excluding page copies
FORK_PER_PTE_CYCLES = ns_to_cycles(5.0)      # copy one PTE
PIPE_WAKEUP_CYCLES = ns_to_cycles(700.0)     # pipe lock + reader wakeup
PIPE_BUFFER_SIZE = 64 * KB

# --------------------------------------------------------------- software
# Eager memcpy moves data through the core: one load + one store per 32B
# SIMD chunk when it hits the cache; misses go to the memory system.
MEMCPY_CHUNK = 32                 # AVX2-style 32B loads/stores
ZIO_MIN_ELISION_SIZE = 4 * KB     # zIO needs at least one whole page
ZIO_SKIPLIST_OP_CYCLES = ns_to_cycles(120.0)
# Fixed cost of eliding one memcpy: syscall + unmap + TLB-shootdown IPIs
# (zIO, OSDI'22 reports elision costs of a few microseconds).
ZIO_ELISION_BASE_CYCLES = ns_to_cycles(4_000.0)
ZIO_UNMAP_PER_PAGE_CYCLES = ns_to_cycles(125.0)
INTERPOSER_MIN_LAZY_SIZE = 1 * KB  # §V-B: redirect memcpys >= 1KB

# ------------------------------------------------- in-DRAM copy backends
# RowClone (Seshadri et al., MICRO'13): FPM copies a row inside one
# subarray with two back-to-back activations (~2 x tRAS), ~90ns and
# 11.6x faster than the DDR3 baseline row copy; PSM moves data one
# cacheline at a time over the internal bus (serial READ+WRITE pairs),
# which for an 8KB row (128 lines) lands at ~1.4us — the paper's
# reported inter-bank latency scaled to our row size.
ROWCLONE_FPM_NS = 90.0
ROWCLONE_PSM_PER_LINE_NS = 10.6
ROWCLONE_FPM_CYCLES = ns_to_cycles(ROWCLONE_FPM_NS)
ROWCLONE_PSM_PER_LINE_CYCLES = ns_to_cycles(ROWCLONE_PSM_PER_LINE_NS)
ROWCLONE_SUBARRAY_ROWS = 512      # rows per subarray (MAT height): FPM
                                  # reaches only same-subarray row pairs
# In-Memory Mirroring: row cloning without the read phase — the sense
# amplifiers drive both rows in one activation window, so a full-row
# clone costs about one activate+precharge and runs per-bank-pair in
# parallel (no internal bus occupancy).
MIRROR_ROW_NS = 45.0
MIRROR_ROW_CYCLES = ns_to_cycles(MIRROR_ROW_NS)
# LazyPIM-style coherence at the CPU boundary: before an offloaded copy
# the host flushes dirty source lines and invalidates destination lines
# (the hierarchy generates the actual writebacks); the bookkeeping —
# signature lookup, permission check, per-line directory probe — is
# charged on the issuing core.
INMEM_COHERENCE_BASE_NS = 120.0
INMEM_COHERENCE_BASE_CYCLES = ns_to_cycles(INMEM_COHERENCE_BASE_NS)
INMEM_COHERENCE_PER_LINE_CYCLES = 1
