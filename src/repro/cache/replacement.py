"""Pluggable cache replacement policies.

The paper's configuration uses plain LRU; these alternatives exist for
sensitivity studies (e.g. how much of Fig. 12's prefetch benefit depends
on scan-resistant replacement).

A policy sees touches and fills for one set at a time and picks victims;
the :class:`~repro.cache.cache.Cache` container owns the line storage.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Dict, Optional

from repro.common.errors import ConfigError

#: A line's recency stamp, read without a Python-level call.
_LAST_USED = attrgetter("last_used")


class ReplacementPolicy:
    """Interface: track per-line state, choose a victim address."""

    name = "abstract"
    #: False lets the cache skip the per-hit on_touch and per-fill
    #: on_fill calls entirely — ``line.last_used`` is always stamped by
    #: the cache itself, so policies that keep no per-line state of
    #: their own (LRU, random) opt out of both callbacks, the per-hit
    #: one being on the hottest path in the repo.
    tracks_touch = True

    def on_touch(self, line) -> None:
        """A hit touched ``line``."""
        raise NotImplementedError

    def on_fill(self, line) -> None:
        """``line`` was just installed."""
        raise NotImplementedError

    def victim(self, cache_set: Dict[int, object], now: int) -> int:
        """Address of the line to evict from a full set."""
        raise NotImplementedError


class LruPolicy(ReplacementPolicy):
    """Least-recently-used (the default; matches the paper's setup)."""

    name = "lru"
    tracks_touch = False

    def on_touch(self, line) -> None:
        pass  # Cache already stamps line.last_used

    def on_fill(self, line) -> None:
        pass

    def victim(self, cache_set, now: int) -> int:
        # min() keeps the first of equal stamps, in the set's insertion
        # order; a line's address is its key.
        return min(cache_set.values(), key=_LAST_USED).addr


class RandomPolicy(ReplacementPolicy):
    """Pseudo-random victim (deterministic: hash of address and time)."""

    name = "random"
    tracks_touch = False

    def on_touch(self, line) -> None:
        pass

    def on_fill(self, line) -> None:
        pass

    def victim(self, cache_set, now: int) -> int:
        addrs = sorted(cache_set)
        mixed = (now * 0x9E3779B1) & 0xFFFFFFFF
        return addrs[mixed % len(addrs)]


class SrripPolicy(ReplacementPolicy):
    """Static RRIP (scan-resistant; Jaleel et al., ISCA 2010), 2-bit.

    Fills insert with a "long" re-reference prediction; hits promote to
    "near".  Victims are lines already predicted "distant"; if none, all
    predictions age until one is.  Streaming scans (like memcpy's
    destination) evict themselves instead of flushing the working set.
    """

    name = "srrip"
    MAX_RRPV = 3

    def __init__(self):
        self._rrpv: Dict[int, int] = {}

    def on_touch(self, line) -> None:
        self._rrpv[id(line)] = 0

    def on_fill(self, line) -> None:
        self._rrpv[id(line)] = self.MAX_RRPV - 1

    def victim(self, cache_set, now: int) -> int:
        lines = list(cache_set.items())
        while True:
            for addr, line in lines:
                if self._rrpv.get(id(line), self.MAX_RRPV) >= self.MAX_RRPV:
                    self._rrpv.pop(id(line), None)
                    return addr
            for _, line in lines:
                key = id(line)
                self._rrpv[key] = min(self._rrpv.get(key, self.MAX_RRPV)
                                      + 1, self.MAX_RRPV)


def make_policy(name: str) -> ReplacementPolicy:
    """Factory: ``lru`` / ``random`` / ``srrip``."""
    policies = {"lru": LruPolicy, "random": RandomPolicy,
                "srrip": SrripPolicy}
    if name not in policies:
        raise ConfigError(f"unknown replacement policy {name!r}; "
                          f"choose from {sorted(policies)}")
    return policies[name]()
