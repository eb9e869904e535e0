"""Unit tests for the pluggable cache replacement policies."""

import pytest

from repro.cache.cache import Cache
from repro.cache.replacement import (LruPolicy, RandomPolicy, SrripPolicy,
                                     make_policy)
from repro.common.errors import ConfigError
from repro.sim.stats import StatGroup

CL = 64


def build(policy):
    # 1 set x 4 ways.
    return Cache("t", size=4 * CL, assoc=4, stats=StatGroup("t"),
                 policy=policy)


class TestFactory:
    def test_names(self):
        assert isinstance(make_policy("lru"), LruPolicy)
        assert isinstance(make_policy("random"), RandomPolicy)
        assert isinstance(make_policy("srrip"), SrripPolicy)

    def test_unknown_rejected(self):
        with pytest.raises(ConfigError):
            make_policy("mru")


class TestLru:
    def test_evicts_least_recent(self):
        cache = build(LruPolicy())
        for i in range(4):
            cache.fill(i * CL, bytes(CL), now=i)
        cache.lookup(0, now=10)   # refresh line 0
        victim = cache.fill(4 * CL, bytes(CL), now=11)
        assert victim.addr == CL  # line 1 is now the oldest

    @pytest.mark.parametrize("stamps", [
        (5, 5, 5, 5), (3, 1, 1, 2), (2, 0, 7, 0), (9, 4, 4, 4),
        (0, 0, 1, 1), (6, 6, 2, 2)])
    @pytest.mark.parametrize("order", [(0, 1, 2, 3), (3, 1, 0, 2)])
    def test_victim_matches_reference_on_ties(self, stamps, order):
        """Tied ``last_used`` stamps: the first minimum in the set's
        insertion order is evicted, as the reference ``min`` picks."""
        cache = build(LruPolicy())
        for way in order:
            cache.fill(way * CL, bytes(CL), now=0)
        cset = cache._sets[0]
        for way, stamp in enumerate(stamps):
            cset[way * CL].last_used = stamp
        reference = min(cset, key=lambda a: cset[a].last_used)
        assert cache.policy.victim(cset, now=99) == reference


class TestRandom:
    def test_victim_is_member_and_deterministic(self):
        cache = build(RandomPolicy())
        for i in range(4):
            cache.fill(i * CL, bytes(CL), now=i)
        cset = cache._sets[0]
        v1 = cache.policy.victim(cset, now=123)
        v2 = cache.policy.victim(cset, now=123)
        assert v1 == v2
        assert v1 in cset

    def test_different_cycles_vary(self):
        cache = build(RandomPolicy())
        for i in range(4):
            cache.fill(i * CL, bytes(CL), now=i)
        cset = cache._sets[0]
        victims = {cache.policy.victim(cset, now=t) for t in range(50)}
        assert len(victims) > 1


class TestSrrip:
    def test_scan_resistance(self):
        """A hot line survives a stream of single-use fills."""
        cache = build(SrripPolicy())
        hot = 0
        cache.fill(hot, bytes(CL), now=0)
        cache.lookup(hot, now=1)       # promote to near-reuse
        for i in range(1, 12):
            cache.fill(i * 4 * CL, bytes(CL), now=i + 1)  # same set scans
            cache.lookup(hot, now=i + 2)
        assert cache.probe(hot), "hot line was evicted by the scan"

    def test_victim_always_found(self):
        cache = build(SrripPolicy())
        for i in range(4):
            cache.fill(i * CL, bytes(CL), now=i)
            cache.lookup(i * CL, now=i)  # everything promoted
        # Even with all lines "near", aging must produce a victim.
        victim = cache.fill(4 * CL, bytes(CL), now=99)
        assert victim is not None


class TestEndToEnd:
    def test_system_runs_with_alternate_policy(self):
        from repro import System, small_system
        from repro.isa import ops
        system = System(small_system())
        # Swap the shared L2's policy before running.
        system.hierarchy.l2.policy = SrripPolicy()
        addr = system.alloc(8192)

        def prog():
            for off in range(0, 8192, 64):
                yield ops.load(addr + off, 8)

        system.run_program(prog())
        assert system.stats.get("caches.l2.misses") > 0
