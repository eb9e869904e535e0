"""Crash-safe supervised execution for parallel sweeps.

The (MC)² design philosophy — do the lazy, cheap thing, detect when it
cannot complete, and fall back eagerly — applied to the run
infrastructure itself:

* :mod:`repro.resilience.supervisor` — per-point futures under a
  supervisor that survives worker crashes (pool respawn + suspect
  isolation), enforces per-point wall-clock deadlines, retries with
  bounded deterministic backoff, and quarantines poison points;
* :mod:`repro.resilience.deadline` — the wall-clock budget
  (``REPRO_POINT_TIMEOUT``) and the retry/backoff knobs
  (``REPRO_POINT_RETRIES``, ``REPRO_RETRY_BACKOFF``);
* :mod:`repro.resilience.report` — structured failure reports, the
  explicit-:class:`~repro.resilience.report.Hole` results of the
  ``partial`` policy, and the per-sweep completion journal that makes
  checkpoint-resume observable.

See ``docs/RESILIENCE.md`` for the supervision model and resume
semantics; the entry point is :func:`repro.perf.runner.sim_map`, which
routes every parallel sweep through this layer.
"""

from repro.resilience.deadline import (Backoff, backoff_from_env,
                                       max_attempts, point_timeout)
from repro.resilience.report import (ATTEMPT_REASONS, FAILURE_KINDS,
                                     FailureReport, Hole, PointFailure,
                                     SweepJournal, is_hole, load_report)
from repro.resilience.supervisor import (SupervisorConfig, SweepOutcome,
                                         run_supervised)

__all__ = [
    "ATTEMPT_REASONS",
    "Backoff",
    "FAILURE_KINDS",
    "FailureReport",
    "Hole",
    "PointFailure",
    "SupervisorConfig",
    "SweepJournal",
    "SweepOutcome",
    "backoff_from_env",
    "is_hole",
    "load_report",
    "max_attempts",
    "point_timeout",
    "run_supervised",
]
