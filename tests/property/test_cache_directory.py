"""Property test: the caches' presence directory is exact.

The hierarchy's flush/invalidate boundary, peer snoops and functional
reads trust the shared directory (line address -> bitmask of the caches
holding it) to name every holder, so a stale or missing bit would skip
a dirty line or leave a stale copy behind.  This drives random
load/store/nt_store/clwb/clwb_range/mclazy/bulk_copy programs on
several cores, ``flush_all``, and direct ``Cache.fill`` /
``Cache.invalidate`` / ``Cache.clear`` calls (the way the verification
and hierarchy unit tests poke cache state) through a machine with
one-set caches, so lines are evicted all the time.  After every fired
event and after every step the directory must equal a full scan of
every set.
"""

from hypothesis import given, settings, strategies as st

from repro import System, small_system
from repro.common.units import CACHELINE_SIZE, KB
from repro.isa import ops

CL = CACHELINE_SIZE
#: Lines in each of the two buffers.  The caches are one set each (an
#: 8-line L1, a 16-line L2), so the 32-line pool keeps them evicting.
POOL_LINES = 16
NUM_CPUS = 3


def _scan(hierarchy):
    """The directory a full walk over every cache set implies."""
    expected = {}
    for cache in hierarchy._caches:
        for cset in cache._sets:
            for line_addr in cset:
                expected[line_addr] = expected.get(line_addr, 0) | cache.bit
    return expected


def _check(hierarchy):
    assert hierarchy._directory == _scan(hierarchy)


_line = st.integers(0, 2 * POOL_LINES - 1)
_span = st.integers(1, 4)
_core = st.integers(0, NUM_CPUS - 1)

_op = st.one_of(
    st.tuples(st.just("load"), _line, st.integers(0, CL - 8)),
    # Loads of consecutive lines: fills every cache past its capacity.
    st.tuples(st.just("sweep"), _line, st.integers(1, 2 * POOL_LINES)),
    st.tuples(st.just("store"), _line, st.integers(0, CL - 8)),
    st.tuples(st.just("nt_store"), _line),
    st.tuples(st.just("clwb"), _line),
    st.tuples(st.just("clwb_range"), _line, _span),
    st.tuples(st.just("mclazy"), st.booleans(), _span),
    st.tuples(st.just("bulk_copy"), st.booleans(), _span),
)

_step = st.one_of(
    st.tuples(st.just("programs"),
              st.dictionaries(_core, st.lists(_op, min_size=1, max_size=8),
                              min_size=1, max_size=NUM_CPUS)),
    st.tuples(st.just("flush_all")),
    st.tuples(st.just("fill"), st.integers(0, NUM_CPUS), _line,
              st.booleans()),
    st.tuples(st.just("invalidate"), st.integers(0, NUM_CPUS), _line),
    st.tuples(st.just("clear"), st.integers(0, NUM_CPUS)),
)


def _program(base, spec):
    """One program from ``spec`` over the two-buffer line pool."""
    yield from _build_ops(base, spec)
    yield ops.mfence()


def _build_ops(base, spec):
    """The ops ``spec`` names, as a list."""
    buf_b = base + POOL_LINES * CL
    out = []
    for op in spec:
        kind = op[0]
        if kind in ("mclazy", "bulk_copy"):
            _, a_to_b, lines = op
            src, dst = (base, buf_b) if a_to_b else (buf_b, base)
            size = lines * CL
            make = ops.mclazy if kind == "mclazy" else ops.bulk_copy
            out.append(make(dst, src, size))
            continue
        addr = base + op[1] * CL
        if kind == "load":
            out.append(ops.load(addr + op[2], 8))
        elif kind == "sweep":
            out.extend(ops.load(base + (op[1] + i) % (2 * POOL_LINES) * CL, 8)
                       for i in range(op[2]))
        elif kind == "store":
            out.append(ops.store(addr + op[2], 8,
                                 data=bytes([op[1] + 1]) * 8))
        elif kind == "nt_store":
            out.append(ops.nt_store(addr, CL, data=bytes([op[1]]) * CL))
        elif kind == "clwb":
            out.append(ops.clwb(addr))
        else:
            lines = min(op[2], 2 * POOL_LINES - op[1])
            out.append(ops.clwb_range(addr, lines * CL))
    return out


@settings(max_examples=80, deadline=None)
@given(st.lists(_step, min_size=1, max_size=12))
def test_directory_matches_full_scan(steps):
    system = System(small_system(num_cpus=NUM_CPUS, l1_size=512,
                                 l2_size=1 * KB))
    hierarchy = system.hierarchy
    caches = hierarchy._caches
    assert all(cache.directory is hierarchy._directory for cache in caches)
    assert len({cache.bit for cache in caches}) == len(caches)
    base = system.alloc(2 * POOL_LINES * CL, align=4096)
    system.sim.enable_tracing(lambda _label, _now: _check(hierarchy))

    for step in steps:
        kind = step[0]
        if kind == "programs":
            system.run_programs({core: _program(base, spec)
                                 for core, spec in step[1].items()})
        elif kind == "flush_all":
            hierarchy.flush_all()
            system.drain()
        elif kind == "fill":
            _, index, line, dirty = step
            caches[index].fill(base + line * CL, bytes(CL),
                               now=system.sim.now, dirty=dirty)
        elif kind == "invalidate":
            caches[step[1]].invalidate(base + step[2] * CL)
        else:
            caches[step[1]].clear()
        _check(hierarchy)
