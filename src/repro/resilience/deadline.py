"""Deadline and retry budgets for supervised sweeps.

The **wall-clock deadline** (:func:`point_timeout`) caps host seconds
per attempt.  It is derived from ``REPRO_SCALE`` (a paper-sized
``full`` point legitimately runs orders of magnitude longer than a
``quick`` one) and overridable with ``REPRO_POINT_TIMEOUT``; the
supervisor enforces it from the parent by killing the worker pool.

Retries use deterministic exponential backoff (:class:`Backoff`) — no
jitter, so two identical failing sweeps behave identically (MC2002:
nothing here may consume randomness).

Every host-time read in this package goes through
:func:`repro.perf.hostclock.host_seconds`, the repository's single
sanctioned wall-clock funnel (MC2001): deadlines bound the *simulator
process*, never simulated behaviour.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Optional

from repro.common import params

#: Env values that disable a budget outright.
_OFF_TOKENS = ("0", "off", "none", "no", "false")


def _env_float(name: str) -> Optional[float]:
    """A positive float from the environment, None if unset/disabling.

    A disabling token ("0", "off", "none") returns ``float('inf')`` as
    an internal marker translated by callers to "no budget"; malformed
    values fall back to None (use the derived default) rather than
    aborting a sweep over a typo.
    """
    raw = os.environ.get(name, "").strip().lower()
    if not raw:
        return None
    if raw in _OFF_TOKENS:
        return float("inf")
    try:
        value = float(raw)
    except ValueError:
        return None
    return value if value > 0 else float("inf")


def scale_from_env(scale: Optional[str] = None) -> str:
    """The effective ``REPRO_SCALE`` (explicit argument wins)."""
    return scale or os.environ.get("REPRO_SCALE", "quick")


def point_timeout(scale: Optional[str] = None) -> Optional[float]:
    """Wall-clock seconds allowed per point attempt; None = unbounded.

    ``REPRO_POINT_TIMEOUT=<seconds>`` overrides; ``0``/``off``/``none``
    disables.  Without an override the budget follows the scale:
    ``full`` gets :data:`~repro.common.params.SWEEP_POINT_TIMEOUT_FULL_S`,
    everything else :data:`~repro.common.params.SWEEP_POINT_TIMEOUT_QUICK_S`.
    """
    override = _env_float("REPRO_POINT_TIMEOUT")
    if override is not None:
        return None if math.isinf(override) else override
    if scale_from_env(scale) == "full":
        return params.SWEEP_POINT_TIMEOUT_FULL_S
    return params.SWEEP_POINT_TIMEOUT_QUICK_S


def max_attempts() -> int:
    """Attempts per point before quarantine (``REPRO_POINT_RETRIES``)."""
    try:
        return max(1, int(os.environ.get(
            "REPRO_POINT_RETRIES", str(params.SWEEP_MAX_ATTEMPTS))))
    except ValueError:
        return params.SWEEP_MAX_ATTEMPTS


@dataclass(frozen=True)
class Backoff:
    """Deterministic exponential backoff: base * 2^(attempt-1), capped."""

    base: float = params.SWEEP_BACKOFF_BASE_S
    cap: float = params.SWEEP_BACKOFF_CAP_S

    def delay(self, attempt: int) -> float:
        """Seconds to wait before retry number ``attempt`` (1-based)."""
        if attempt <= 0:
            return 0.0
        return min(self.cap, self.base * (2.0 ** (attempt - 1)))


def backoff_from_env() -> Backoff:
    """A :class:`Backoff` honouring ``REPRO_RETRY_BACKOFF`` (base secs)."""
    base = _env_float("REPRO_RETRY_BACKOFF")
    if base is None:
        return Backoff()
    if math.isinf(base):
        return Backoff(base=0.0, cap=0.0)
    return Backoff(base=base, cap=max(base, params.SWEEP_BACKOFF_CAP_S))
