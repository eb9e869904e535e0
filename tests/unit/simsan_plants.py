"""Deliberately planted sweep-purity violations.

This module is the shared fixture for the sanitizer tests in
``test_simsan.py``.  The global-write plant is the two-sided oracle
check: it must be caught *statically* by the analyzer (``MC2401``) and
*dynamically* by the ``REPRO_SIMSAN=1`` runtime sanitizer.  The
cache-key plant has no static rule; the sanitizer's cache-hit audit is
its only check.  The module is excluded from lint sweeps
(``--exclude tests/unit/simsan_plants.py`` in CI and the Makefile)
precisely because its findings are intentional.

Functions are module-level so they pickle into fork workers.
"""

#: Plant 1 — shared mutable global written from a dispatched point.
SHARED_LOG = []


def planted_global_write(x):
    SHARED_LOG.append(x)
    return {"x": x}


#: Plant 2 — module state that influences a cached result but is
#: absent from the cache key (function name + args + scale + stamp).
KNOB = {"value": 1}


def set_knob(value):
    KNOB["value"] = value


def planted_cache_read(x):
    return {"x": x, "knob": KNOB["value"]}


def planted_sweep():
    """Dispatch both plants so the static worker closure includes them."""
    from repro.perf.runner import SimPoint, sim_map

    points = [SimPoint(planted_global_write, (i,)) for i in range(2)]
    points += [SimPoint(planted_cache_read, (i,)) for i in range(2)]
    return sim_map(points, jobs=1, cache=False)
