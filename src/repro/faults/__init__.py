"""Fault injection, poison propagation, and the livelock watchdog.

This package makes the repro *falsifiable under failure*: instead of only
showing that lazy copies are bit-identical to eager ones on a healthy
machine, it perturbs the machine — DRAM bit flips through a SEC-DED ECC
model, in-order link faults, SRAM upsets in the CTT/BPQ — and lets the
differential oracle check the stronger property that detected errors are
*contained* (poison travels with derived data) while silent errors are
exactly the divergences the oracle reports.

Public surface:

* :class:`EccModel` / :func:`classify` / :class:`EccOutcome` — SEC-DED
  outcomes for corrupted lines (``ecc``);
* :class:`FaultInjector` / :func:`parse_fault_spec` / :func:`from_specs`
  — deterministic seedable injection, CLI spec strings (``injector``);
* :class:`Watchdog` — simulator progress monitoring with a post-mortem
  on livelock (``watchdog``).
"""

from repro.faults.ecc import EccModel, EccOutcome, classify
from repro.faults.injector import FaultInjector, from_specs, parse_fault_spec
from repro.faults.watchdog import Watchdog

__all__ = [
    "EccModel",
    "EccOutcome",
    "classify",
    "FaultInjector",
    "from_specs",
    "parse_fault_spec",
    "Watchdog",
]
