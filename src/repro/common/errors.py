"""Exception hierarchy for the repro package."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(ReproError, ValueError):
    """An invalid configuration value was supplied.

    Also a :class:`ValueError`: callers validating parameters the
    Pythonic way (``except ValueError``) keep working.
    """


class SimulationError(ReproError, RuntimeError):
    """The simulation reached an inconsistent internal state.

    Also a :class:`RuntimeError`: an escaped simulation invariant is a
    runtime failure to any harness that does not know the repro types.
    """


class LivelockError(SimulationError):
    """The simulation stopped making progress.

    Raised by the engine when the event budget is exhausted or by an
    attached :class:`~repro.faults.watchdog.Watchdog` when simulated time
    stops advancing.  ``post_mortem`` carries a human-readable dump of
    the machine state at the moment of detection (see
    :meth:`~repro.system.system.System.snapshot`).
    """

    def __init__(self, message: str, post_mortem: str = ""):
        super().__init__(message if not post_mortem
                         else f"{message}\n{post_mortem}")
        self.post_mortem = post_mortem


class DeadlineError(LivelockError):
    """The simulation ran past its simulated-cycle deadline.

    Raised by an attached :class:`~repro.faults.watchdog.Watchdog` when
    ``Simulator.now`` exceeds the configured ``cycle_deadline``.  A
    subclass of :class:`LivelockError` because it means the same thing
    to a supervisor — the point will not finish within its budget — but
    distinguishable in failure reports (kind ``sim-deadline``).
    """


class SweepError(ReproError, RuntimeError):
    """A supervised sweep could not complete under the ``strict`` policy.

    Raised by :func:`repro.perf.runner.sim_map` when a point was
    quarantined for a cause that has no original exception to re-raise
    (a worker crash or a wall-clock timeout).  ``report`` carries the
    structured :class:`~repro.resilience.report.FailureReport`.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class SanitizerError(ReproError, RuntimeError):
    """The runtime sanitizer (``REPRO_SIMSAN=1``) detected a violation.

    Raised by :mod:`repro.analysis.simsan` when a sweep point mutates
    shared module state across the fork boundary or a cache hit fails
    its recompute audit.  Also a :class:`RuntimeError` for harnesses
    that do not know the repro types.
    """


class FaultSpecError(ConfigError):
    """A fault-injection spec string could not be parsed."""


class AddressError(ReproError):
    """An access touched an unmapped or out-of-range address."""


class ProtectionFault(ReproError):
    """A virtual-memory access violated page protection bits."""


class AlignmentError(ReproError):
    """An operation violated an alignment requirement (e.g. MCLAZY)."""

