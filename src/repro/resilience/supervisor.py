"""Supervised per-point execution for parallel sweeps.

:func:`run_supervised` replaces the old ``pool.map`` fan-out in
:func:`repro.perf.runner.sim_map` with per-point futures under a
supervisor loop, mirroring the paper's own lazy-with-eager-fallback
shape: try the cheap path, detect failure, and recover instead of
aborting the world.  The supervisor guarantees:

* **crash survival** — a worker death (``os._exit``, OOM kill, segfault)
  breaks the :class:`~concurrent.futures.ProcessPoolExecutor`; the
  supervisor respawns the pool and retries only the unfinished points.
  Because at most ``jobs`` futures are ever in flight, the suspect set
  for a crash is small; suspects are re-run **one at a time** (isolation
  mode) so the next crash unambiguously convicts a single point, and
  innocent bystanders are retried without consuming attempts.
* **per-point wall-clock deadlines** — an attempt exceeding its budget
  (:func:`repro.resilience.deadline.point_timeout`) gets its pool
  killed; the timed-out point is charged an attempt, collateral
  in-flight points are not.
* **bounded retries with backoff** — attempts per point are capped
  (:func:`~repro.resilience.deadline.max_attempts`), retries wait out a
  deterministic exponential backoff, and persistently failing points
  are quarantined into a :class:`~repro.resilience.report.PointFailure`
  rather than looping forever.  A global pool-break budget guarantees
  termination even under adversarial failure patterns.
* **deterministic failure classification** — an in-worker exception
  deriving from :class:`~repro.common.errors.ReproError` (a livelock, a
  cycle-deadline, a config error, a sanitizer report) will recur on
  every retry, so it quarantines immediately and, under ``strict``,
  carries the *original* exception back to the caller.

The supervisor runs entirely in the parent process and never touches
simulated state; its one clock is
:func:`repro.perf.hostclock.host_seconds`, the sanctioned host-time
funnel.  Results flow out through the ``on_done`` callback *as each
point completes*, which is what makes checkpoint-resume work: the
caller persists every fresh result immediately, so an interrupted sweep
loses at most the points still in flight.
"""

from __future__ import annotations

import multiprocessing
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, wait
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from time import sleep
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.common.errors import DeadlineError, LivelockError, ReproError
from repro.resilience.deadline import Backoff
from repro.resilience.report import PointFailure

#: Span/attempt callback: (index, name, attempt, start_s, end_s,
#: reason, cause) — reason is one of report.ATTEMPT_REASONS.
AttemptHook = Callable[[int, str, int, float, float, str, Optional[str]],
                       None]


@dataclass(frozen=True)
class SupervisorConfig:
    """Budgets and policy for one supervised sweep."""

    jobs: int
    policy: str = "strict"              # "strict" | "partial"
    wall_timeout: Optional[float] = None   # host seconds per attempt
    max_attempts: int = 3
    backoff: Backoff = Backoff()
    tick: float = 0.05                  # supervisor poll interval (s)
    break_budget: Optional[int] = None  # None = derived from task count
    initializer: Optional[Callable[[], None]] = None


@dataclass
class SweepOutcome:
    """What the supervisor has to say after the loop ends."""

    failures: List[PointFailure] = field(default_factory=list)
    completed: int = 0
    pool_breaks: int = 0
    aborted: bool = False               # strict fail-fast stop
    abort_exc: Optional[BaseException] = None  # original exc to re-raise
    budget_exhausted: bool = False


class _PointState:
    """Mutable supervisor-side bookkeeping for one sweep point."""

    __slots__ = ("index", "point", "key", "attempts", "started_at",
                 "eligible_at")

    def __init__(self, index: int, point: Any, key: Optional[str]):
        self.index = index
        self.point = point
        self.key = key
        self.attempts = 0          # attempts charged (crash/timeout/error)
        self.started_at = 0.0      # host_seconds at submission
        self.eligible_at = 0.0     # earliest host_seconds to resubmit


def failure_kind(exc: BaseException) -> str:
    """The :class:`PointFailure` kind of a point that raised ``exc``.

    Shared by the supervised and the serial sweep paths.
    """
    if isinstance(exc, DeadlineError):
        return "sim-deadline"
    if isinstance(exc, LivelockError):
        return "livelock"
    return "error"


def _cause(exc: BaseException) -> str:
    text = str(exc).strip().splitlines()
    head = text[0] if text else ""
    return f"{type(exc).__name__}: {head}" if head else type(exc).__name__


def _kill_pool(pool: Optional[ProcessPoolExecutor]) -> None:
    """Hard-stop a pool: SIGKILL its workers, then detach from it.

    ``shutdown`` alone waits politely for running calls — useless
    against a point that hangs or sleeps past its deadline.  The
    worker-process table is an executor internal, so fall back to a
    plain shutdown if it ever disappears.
    """
    if pool is None:
        return
    for proc in list((getattr(pool, "_processes", None) or {}).values()):
        try:
            proc.kill()
        except (OSError, AttributeError):
            pass
    pool.shutdown(wait=False, cancel_futures=True)


def run_supervised(run_fn: Callable[[Any], Any],
                   tasks: List[Tuple[int, Any, Optional[str]]],
                   config: SupervisorConfig,
                   on_done: Callable[[int, Any], None],
                   on_attempt: Optional[AttemptHook] = None) -> SweepOutcome:
    """Run every task under supervision; results stream via ``on_done``.

    ``tasks`` is ``[(index, point, cache_key_or_None), ...]``;
    ``run_fn(point)`` must be picklable (a module-level function).
    ``on_done(index, value)`` is invoked in the parent as each point
    completes — callers checkpoint there.  Returns a
    :class:`SweepOutcome`; the caller decides how to surface failures
    (raise under ``strict``, holes under ``partial``).
    """
    # Imported here, not at module top: repro.perf imports this module
    # from its runner, so reaching back into repro.perf.hostclock at
    # import time would be circular.  hostclock is the sanctioned
    # wall-clock funnel (MC2001) — supervision is host-time territory.
    from repro.perf.hostclock import host_seconds

    outcome = SweepOutcome()
    if not tasks:
        return outcome
    states = {index: _PointState(index, point, key)
              for index, point, key in tasks}
    pending: deque = deque(sorted(states))  # not-yet-submitted indices
    isolate: deque = deque()                # crash suspects, run solo
    in_flight: Dict[Future, int] = {}
    strict = config.policy == "strict"
    budget = (config.break_budget if config.break_budget is not None
              else len(tasks) * (config.max_attempts + 1) + 8)
    consecutive_breaks = 0
    context = multiprocessing.get_context("fork")

    def span(state: _PointState, end: float, reason: str,
             cause: Optional[str]) -> None:
        if on_attempt is not None:
            on_attempt(state.index, state.point.name,
                       state.attempts, state.started_at, end, reason,
                       cause)

    def quarantine(state: _PointState, kind: str, cause: str,
                   exc: Optional[BaseException]) -> None:
        outcome.failures.append(PointFailure(
            index=state.index, name=state.point.name, kind=kind,
            cause=cause, attempts=max(1, state.attempts), key=state.key))
        if strict:
            outcome.aborted = True
            outcome.abort_exc = exc

    def next_eligible(queue: deque, now: float) -> Optional[int]:
        for _ in range(len(queue)):
            if states[queue[0]].eligible_at <= now:
                return queue.popleft()
            queue.rotate(-1)
        return None

    pool: Optional[ProcessPoolExecutor] = \
        ProcessPoolExecutor(max_workers=config.jobs, mp_context=context,
                            initializer=config.initializer)

    def submit(index: int) -> bool:
        """Dispatch one point; False when the pool is already broken."""
        state = states[index]
        state.started_at = host_seconds()
        try:
            future = pool.submit(run_fn, state.point)
        except (BrokenProcessPool, RuntimeError):
            pending.appendleft(index)
            return False
        in_flight[future] = index
        return True

    def respawn() -> None:
        nonlocal pool, consecutive_breaks
        outcome.pool_breaks += 1
        consecutive_breaks += 1
        _kill_pool(pool)
        pool = None
        delay = config.backoff.delay(consecutive_breaks)
        if delay > 0:
            sleep(delay)
        pool = ProcessPoolExecutor(max_workers=config.jobs,
                                   mp_context=context,
                                   initializer=config.initializer)

    try:
        while (pending or isolate or in_flight) and not outcome.aborted:
            now = host_seconds()
            # ---- submit: isolation mode runs one suspect at a time and
            # starves the normal queue until every suspect is resolved.
            broken = False
            if isolate:
                if not in_flight and states[isolate[0]].eligible_at <= now:
                    broken |= not submit(isolate.popleft())
            else:
                while len(in_flight) < config.jobs and pending:
                    index = next_eligible(pending, now)
                    if index is None:
                        break
                    if not submit(index):
                        broken = True
                        break

            # ---- reap
            if in_flight and not broken:
                done, _ = wait(list(in_flight), timeout=config.tick,
                               return_when=FIRST_COMPLETED)
            else:
                done = set()
                if not in_flight:
                    sleep(config.tick)
            suspects: List[int] = []
            for future in done:
                index = in_flight.pop(future)
                state = states[index]
                exc = future.exception()
                end = host_seconds()
                if exc is None:
                    span(state, end, "ok", None)
                    outcome.completed += 1
                    consecutive_breaks = 0
                    on_done(index, future.result())
                elif isinstance(exc, BrokenProcessPool):
                    broken = True
                    suspects.append(index)
                elif isinstance(exc, ReproError):
                    # Deterministic: identical inputs will fail
                    # identically — retrying burns the budget for
                    # nothing, so quarantine on first sight.
                    state.attempts += 1
                    span(state, end, "quarantined", _cause(exc))
                    quarantine(state, failure_kind(exc), _cause(exc), exc)
                else:
                    state.attempts += 1
                    if state.attempts >= config.max_attempts:
                        span(state, end, "quarantined", _cause(exc))
                        quarantine(state, "error", _cause(exc), exc)
                    else:
                        span(state, end, "retried", _cause(exc))
                        state.eligible_at = now + config.backoff.delay(
                            state.attempts)
                        pending.append(index)
            if outcome.aborted:
                break

            # ---- pool break: everything still in flight is a suspect.
            if broken:
                suspects.extend(in_flight.pop(future)
                                for future in list(in_flight))
                suspects.sort()
                now = host_seconds()
                sole = len(suspects) == 1
                for index in suspects:
                    state = states[index]
                    if sole:
                        # Running alone when the pool died: convicted.
                        state.attempts += 1
                        cause = ("worker process died "
                                 "(killed/os._exit/segfault)")
                        if state.attempts >= config.max_attempts:
                            span(state, now, "quarantined", cause)
                            quarantine(state, "crash", cause, None)
                            continue
                        span(state, now, "crash", cause)
                        state.eligible_at = now + config.backoff.delay(
                            state.attempts)
                    else:
                        # One of several — retried in isolation, not
                        # charged an attempt.
                        span(state, now, "retried", "pool break (suspect)")
                        state.eligible_at = now
                    isolate.append(index)
                if outcome.aborted:
                    break
                if outcome.pool_breaks + 1 > budget:
                    outcome.budget_exhausted = True
                    outcome.aborted = True
                    break
                respawn()
                continue

            # ---- wall-clock deadlines: kill the pool, charge only the
            # overdue points; collateral goes back to the normal queue.
            if config.wall_timeout is None or not in_flight:
                continue
            now = host_seconds()
            overdue = sorted(
                index for index in in_flight.values()
                if now - states[index].started_at > config.wall_timeout)
            if not overdue:
                continue
            collateral = sorted(index for index in in_flight.values()
                                if index not in overdue)
            in_flight.clear()
            for index in overdue:
                state = states[index]
                state.attempts += 1
                cause = (f"exceeded wall-clock deadline "
                         f"({config.wall_timeout:.1f}s)")
                if state.attempts >= config.max_attempts:
                    span(state, now, "quarantined", cause)
                    quarantine(state, "timeout", cause, None)
                else:
                    span(state, now, "timeout", cause)
                    state.eligible_at = now + config.backoff.delay(
                        state.attempts)
                    isolate.append(index)  # retried solo: no collateral
            for index in collateral:
                span(states[index], now, "retried",
                     "pool killed for a timed-out neighbour")
                states[index].eligible_at = now
                pending.appendleft(index)
            if outcome.aborted:
                break
            if outcome.pool_breaks + 1 > budget:
                outcome.budget_exhausted = True
                outcome.aborted = True
                break
            respawn()
    finally:
        # Hard kill on every exit path: a clean sweep has idle workers
        # (nothing to lose), an aborted or interrupted one must not
        # linger waiting for a hung point.
        _kill_pool(pool)
    return outcome
