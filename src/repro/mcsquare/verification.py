"""Runtime consistency checking for (MC)² state ("paranoid mode").

A :class:`ConsistencyChecker` inspects the invariants that the design
arguments of §III-E rely on:

* the CTT is sorted with non-overlapping destination ranges, aligned
  destinations, and positive cacheline-multiple sizes;
* every parked BPQ write still has a reason to be parked — unresolved
  dependent copies or a live entry sourcing from its line (otherwise it
  should have drained: a stuck entry means lost writes);
* a cacheline is dirty in at most one private L1 (our write-invalidate
  coherence guarantees a single writer);
* no BPQ line is simultaneously parked on two controllers.

Attach it to a running system to re-verify periodically::

    checker = ConsistencyChecker(system)
    checker.attach(every_cycles=10_000)
    ...
    system.run_program(prog)
    checker.verify()          # raises ConsistencyError on violation

The periodic hook costs simulation time proportional to table sizes, so
it is off by default and intended for debugging and for the test suite.
"""

from __future__ import annotations

from typing import List, Optional

from repro.common.errors import SimulationError
from repro.common.units import CACHELINE_SIZE


class ConsistencyError(SimulationError):
    """An (MC)² structural invariant was violated."""


class ConsistencyChecker:
    """Invariant checks over a live :class:`~repro.system.system.System`."""

    def __init__(self, system):
        self.system = system
        self.checks_run = 0
        self._event = None

    # ------------------------------------------------------------- verify
    def verify(self) -> None:
        """Run every check once; raises :class:`ConsistencyError`.

        Failures carry the simulated cycle and how many checks had
        passed before — enough to bisect when the invariant broke.
        """
        self.checks_run += 1
        try:
            self._check_ctt()
            self._check_bpq()
            self._check_single_writer()
        except ConsistencyError as exc:
            raise ConsistencyError(
                f"{exc} (cycle {self.system.sim.now}, "
                f"check #{self.checks_run})") from exc

    def _check_ctt(self) -> None:
        ctt = self.system.ctt
        if ctt is None:
            return
        try:
            ctt.verify_invariants()
        except ConsistencyError:
            raise
        except SimulationError as exc:
            raise ConsistencyError(f"CTT invariant broken: {exc}") from exc
        if len(ctt) > ctt.capacity:
            raise ConsistencyError(
                f"CTT over capacity: {len(ctt)} > {ctt.capacity}")

    def _check_bpq(self) -> None:
        ctt = self.system.ctt
        if ctt is None:
            return
        seen_lines = set()
        for mc in self.system.controllers:
            bpq = getattr(mc, "bpq", None)
            if bpq is None:
                continue
            for entry in bpq.entries():
                if entry.line in seen_lines:
                    raise ConsistencyError(
                        f"line {entry.line:#x} parked on two controllers")
                seen_lines.add(entry.line)
                if entry.pending_copies < 0:
                    raise ConsistencyError(
                        f"negative pending copies at {entry.line:#x}")
                blocked = (entry.pending_copies > 0
                           or ctt.source_overlaps(entry.line,
                                                  CACHELINE_SIZE))
                if not blocked and self.system.sim.pending == 0:
                    # With the event queue idle nothing can ever drain it.
                    raise ConsistencyError(
                        f"BPQ entry at {entry.line:#x} is stuck: no "
                        f"pending copies and no sourcing entry")

    def _check_single_writer(self) -> None:
        dirty_owner = {}
        for i, l1 in enumerate(self.system.hierarchy.l1s):
            for line in l1.dirty_lines():
                if line.addr in dirty_owner:
                    raise ConsistencyError(
                        f"line {line.addr:#x} dirty in L1 of cores "
                        f"{dirty_owner[line.addr]} and {i}")
                dirty_owner[line.addr] = i

    # ------------------------------------------------------------- attach
    def attach(self, every_cycles: int = 10_000) -> None:
        """Schedule periodic verification on the system's simulator."""
        if every_cycles <= 0:
            raise SimulationError("check period must be positive")

        def _tick() -> None:
            # The armed event has fired: clear it first so a verify()
            # failure leaves the checker cleanly detached instead of
            # holding a stale (already-fired) event that detach() would
            # uselessly cancel.
            self._event = None
            self.verify()
            # Re-arm only while other work exists; otherwise the checker
            # would keep the simulation alive forever.
            if self.system.sim.pending > 0:
                self._event = self.system.sim.schedule(
                    every_cycles, _tick, label="consistency-check")

        self._event = self.system.sim.schedule(every_cycles, _tick,
                                               label="consistency-check")

    def detach(self) -> None:
        """Cancel the periodic check."""
        if self._event is not None:
            self._event.cancel()
            self._event = None
