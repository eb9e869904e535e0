"""Parallel sweep runner: fan independent simulation points out.

Every paper exhibit is a sweep of *independent* simulations — each
point builds its own :class:`~repro.system.system.System`, runs one
workload, and returns a dict of scalars.  :func:`sim_map` executes a
list of such points, optionally across ``REPRO_JOBS`` worker processes,
and returns results **in input order** regardless of completion order,
so a parallel sweep is bit-identical to a serial one.

Points must be picklable: module-level functions with JSON-ish
arguments (configs are frozen dataclasses, which pickle fine).  Workers
are forked with ``REPRO_JOBS=1`` so a sweep nested inside a worker
never forks again.

Results are memoized through :mod:`repro.perf.cache` (disable with
``REPRO_SIMCACHE=off`` or ``cache=False``); the cache is consulted and
populated only in the parent process, keeping workers write-free.

Parallel sweeps run under the :mod:`repro.resilience` supervisor:
per-point futures with wall-clock deadlines (``REPRO_POINT_TIMEOUT``),
pool respawn on worker death, bounded retries with deterministic
backoff (``REPRO_POINT_RETRIES``/``REPRO_RETRY_BACKOFF``), and
quarantine of persistently failing points into a structured failure
report.  Every completed fresh result is checkpointed to the result
cache *as it finishes* and journalled under
``results/.simcache/.sweeps/``, so an interrupted sweep — Ctrl-C, OOM
kill, machine reboot — resumes from where it died and merges to
bit-identical results.  The failure policy (``REPRO_SWEEP_POLICY`` or
the ``policy`` argument) is ``strict`` (fail fast, re-raising the
original exception when there is one) or ``partial`` (return with
explicit :class:`~repro.resilience.report.Hole` slots).

With ``REPRO_SIMSAN=1`` every point runs under the runtime sanitizer
(:mod:`repro.analysis.simsan`): module globals are snapshotted around
each call to catch cross-fork mutation, and a periodic sample of cache
hits is recomputed and compared against the stored value.

With ``REPRO_TRACE=<spec>`` (see :mod:`repro.obs`) every point runs with
the observability tracer attached, and each point's traces are exported
to content-addressed files under ``REPRO_TRACE_DIR`` (default
``results/traces``) as the point completes; the supervisor additionally
exports one span per point attempt (end reason ok/timeout/crash/
retried/quarantined) to ``supervisor.<sweep>.spans.json``.  Traced
sweeps bypass the result cache — a cache hit would skip the simulation,
and there is no trace without a run.

With ``REPRO_TIE_ORDER=<orders>`` (see :mod:`repro.analysis.simsan`)
every point runs under a perturbed equal-cycle event order; a comma
list (or the ``paired`` shorthand) runs each point under *every*
listed order and diffs the results and full StatGroup trees — any
divergence is a confirmed same-cycle race (the MC26xx dynamic oracle).
Tie-order sweeps bypass the result cache for the same reason traced
sweeps do.
"""

from __future__ import annotations

import functools
import hashlib
import multiprocessing
import os
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.common.errors import ConfigError, SweepError
from repro.perf.cache import (MISS, SimCache, Unkeyable, _sanitizer,
                              cache_enabled, point_key)
from repro.perf.hostclock import host_seconds
from repro.resilience.deadline import (backoff_from_env, max_attempts,
                                       point_timeout, scale_from_env)
from repro.resilience.report import (FailureReport, Hole, PointFailure,
                                     SweepJournal)
from repro.resilience.supervisor import (SupervisorConfig, failure_kind,
                                         run_supervised)

#: Set in forked workers so nested sweeps stay serial.
_WORKER_ENV = "REPRO_PERF_WORKER"

#: Valid graceful-degradation policies (see module docstring).
_POLICIES = ("strict", "partial")

#: Seconds between a worker's checks that the sweeping process lives.
_ORPHAN_POLL_S = 0.2


@dataclass(frozen=True)
class SimPoint:
    """One independent simulation: ``fn(*args, **kwargs)``."""

    fn: Callable[..., Any]
    args: Tuple = ()
    kwargs: Dict[str, Any] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return f"{self.fn.__module__}.{self.fn.__qualname__}"


def jobs_from_env() -> int:
    """Worker count from ``REPRO_JOBS`` (default 1 = serial)."""
    if os.environ.get(_WORKER_ENV):
        return 1
    try:
        return max(1, int(os.environ.get("REPRO_JOBS", "1")))
    except ValueError:
        return 1


def policy_from_env() -> str:
    """Sweep failure policy from ``REPRO_SWEEP_POLICY`` (default strict)."""
    raw = os.environ.get("REPRO_SWEEP_POLICY", "").strip().lower()
    return raw if raw in _POLICIES else "strict"


def _tracing_requested() -> bool:
    """True when ``REPRO_TRACE`` asks for the observability tracer."""
    from repro.obs.tracer import OFF_TOKENS
    return os.environ.get("REPRO_TRACE", "").strip().lower() not in OFF_TOKENS


def _tie_orders() -> List[str]:
    """Parsed ``REPRO_TIE_ORDER`` (see :mod:`repro.analysis.simsan`).

    Empty when unset/off; the simsan import is deferred behind the env
    check so normal sweeps never pay for the analysis package.
    """
    raw = os.environ.get("REPRO_TIE_ORDER", "").strip().lower()
    if raw in ("", "0", "off", "none", "false"):
        return []
    from repro.analysis import simsan
    return simsan.tie_order_spec()


def _run_point(point: SimPoint) -> Any:
    fn = point.fn
    if _tracing_requested():
        # Install the inherited REPRO_TRACE spec (idempotent: an explicit
        # runtime.configure wins) and export this point's traces to
        # content-addressed files as it completes — identical paths and
        # bytes whether the sweep ran serial or forked.
        from repro.obs import runtime as obs_runtime
        if obs_runtime.configure_from_spec(
                os.environ.get("REPRO_TRACE", ""),
                out_dir=os.environ.get("REPRO_TRACE_DIR")):
            fn = obs_runtime.traced(fn, point.name)
    san = _sanitizer()
    if san is not None:
        call = (lambda *args, **kwargs:
                san.checked_call(fn, args, kwargs, point.name))
    else:
        call = fn
    orders = _tie_orders()
    if len(orders) >= 2:
        # Paired tie-order mode: run this point under every configured
        # order and diff results + stat trees (simsan is outermost so
        # its engine/stats hooks look identical to checked_call's
        # before/after global snapshots).
        from repro.analysis import simsan
        return simsan.paired_tie_call(call, point.args, point.kwargs,
                                      point.name)
    if orders:
        from repro.analysis import simsan
        return simsan.tie_call(call, point.args, point.kwargs)
    return call(*point.args, **point.kwargs)


def _exit_when_orphaned(parent_pid: int) -> None:
    """Worker watchdog: exit as soon as the sweeping process is gone.

    A SIGKILLed parent never delivers EOF on the call-queue pipe,
    because forked sibling workers inherit its write end (and the
    parent sentinel's), so an idle worker would block forever,
    re-parented to init and still holding the sweep journal's
    descriptor.  Re-parenting is the one signal that cannot be masked
    that way.
    """
    while os.getppid() == parent_pid:
        time.sleep(_ORPHAN_POLL_S)
    os._exit(1)


def _init_worker(parent_pid: int) -> None:
    # Keep nested sim_map calls (a sweep point that itself sweeps)
    # serial inside workers, and mark the process for jobs_from_env().
    os.environ[_WORKER_ENV] = "1"
    os.environ["REPRO_JOBS"] = "1"
    threading.Thread(target=_exit_when_orphaned, args=(parent_pid,),
                     name="repro-orphan-watch", daemon=True).start()


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


def _sweep_id(points: List[SimPoint], keys: List[Optional[str]],
              scale: str) -> str:
    """Stable sweep identity: same points + scale -> same journal."""
    digest = hashlib.sha256()
    digest.update(scale.encode("utf-8"))
    digest.update(b"\0")
    for i, point in enumerate(points):
        ident = keys[i] or f"unkeyed:{i}:{point.name}"
        digest.update(ident.encode("utf-8"))
        digest.update(b"\0")
    return digest.hexdigest()[:16]


def _attempt_hook():
    """Span recorder for the obs runtime, or None when tracing is off."""
    if not _tracing_requested():
        return None
    from repro.obs import runtime as obs_runtime

    def hook(index, name, attempt, start_s, end_s, reason, cause):
        obs_runtime.record_attempt_span(index, name, attempt, start_s,
                                        end_s, reason, cause)
    return hook


def _export_spans(sweep_id: str) -> None:
    """Flush supervisor attempt spans next to the simulation traces."""
    from repro.obs import runtime as obs_runtime
    obs_runtime.configure_from_spec(
        os.environ.get("REPRO_TRACE", ""),
        out_dir=os.environ.get("REPRO_TRACE_DIR"))
    obs_runtime.export_attempt_spans(sweep_id)


class _Journal:
    """OSError-tolerant wrapper: journalling must never fail the sweep."""

    def __init__(self, journal: Optional[SweepJournal]):
        self._journal = journal

    def __getattr__(self, name: str):
        target = getattr(self._journal, name, None)

        def call(*args, **kwargs):
            if self._journal is None or target is None:
                return None
            try:
                return target(*args, **kwargs)
            except OSError:
                return None
        return call


def sim_map(points: Iterable[SimPoint],
            jobs: Optional[int] = None,
            cache: bool = True,
            store: Optional[SimCache] = None,
            scale: Optional[str] = None,
            policy: Optional[str] = None) -> List[Any]:
    """Run every point; results in input order, parallel across ``jobs``.

    ``jobs`` defaults to ``REPRO_JOBS``; ``cache=False`` bypasses the
    persistent result store (``store`` overrides its location, for
    tests).  Cached points never reach the pool, so a warm sweep costs
    a few file reads.  ``policy`` overrides ``REPRO_SWEEP_POLICY``:
    ``strict`` (default) fails fast on a quarantined point, ``partial``
    returns with explicit :class:`~repro.resilience.report.Hole` slots.
    """
    points = list(points)
    if jobs is None:
        jobs = jobs_from_env()
    if policy is None:
        policy = policy_from_env()
    elif policy not in _POLICIES:
        raise ConfigError(f"unknown sweep policy {policy!r}; "
                          f"expected one of {_POLICIES}")
    # A traced sweep must execute every point: serving a result from the
    # cache would produce no trace file for it.  A tie-order sweep must
    # too — a cache hit would skip the perturbed runs the mode exists
    # to compare (and a perturbed-order result must never be stored
    # under the canonical key).
    use_cache = cache and not _tracing_requested() and not _tie_orders() \
        and (store is not None or cache_enabled())
    # Resolved once, before any point runs, so an unknown REPRO_SIMSAN
    # value fails the sweep up front rather than inside a worker.
    san = _sanitizer()
    if use_cache and store is None:
        store = SimCache()

    results: List[Any] = [None] * len(points)
    keys: List[Optional[str]] = [None] * len(points)
    misses: List[int] = []
    scale = scale_from_env(scale)
    if use_cache:
        for i, point in enumerate(points):
            try:
                keys[i] = point_key(point.name, point.args, point.kwargs,
                                    scale)
            except Unkeyable:
                misses.append(i)
                continue
            value = store.get(keys[i])
            if value is MISS:
                misses.append(i)
            else:
                if san is not None and san.should_audit_hit():
                    # Recompute serially in the parent and compare: a
                    # divergence means the key omits an input that
                    # influences the result.
                    san.audit_hit(point.name, keys[i], value,
                                  lambda p=point: p.fn(*p.args, **p.kwargs))
                results[i] = value
    else:
        misses = list(range(len(points)))

    if not misses:
        return results

    sweep_id = _sweep_id(points, keys, scale)
    journal = _Journal(SweepJournal(store.sweeps_dir, sweep_id)
                       if use_cache and store is not None else None)
    prior = journal.load() or {}
    if prior.get("runs") and not prior.get("ended"):
        print(f"repro.perf: resuming interrupted sweep {sweep_id}: "
              f"{len(points) - len(misses)}/{len(points)} points already "
              f"cached", file=sys.stderr)
    journal.start(len(points), len(points) - len(misses), len(misses))

    on_attempt = _attempt_hook()
    done_indices = set()

    def on_done(i: int, value: Any) -> None:
        # The checkpoint path: persist every fresh result the moment it
        # completes, so an interrupted sweep never recomputes it.
        results[i] = value
        done_indices.add(i)
        if use_cache and keys[i] is not None:
            store.put(keys[i], points[i].name, value)
        journal.record_done(i, points[i].name, keys[i])

    report = FailureReport(sweep_id=sweep_id, policy=policy, scale=scale,
                           total=len(points),
                           completed=len(points) - len(misses))
    try:
        # Any jobs>1 sweep goes through the supervised pool, even for a
        # single miss: a resumed sweep whose one remaining point is the
        # poison that killed the last run must crash a *worker*, not
        # the parent.  jobs=1 keeps the historical in-process path.
        if jobs > 1 and _fork_available():
            outcome = _run_parallel(points, misses, keys, jobs, policy,
                                    scale, on_done, on_attempt)
        else:
            outcome = _run_serial(points, misses, keys, policy, on_done,
                                  on_attempt)
    finally:
        if on_attempt is not None:
            _export_spans(sweep_id)

    report.completed += outcome.completed
    report.pool_breaks = outcome.pool_breaks
    for failure in outcome.failures:
        report.add(failure)
        journal.record_quarantine(failure)
    journal.record_end(report.completed, report.quarantined)
    journal.close()

    if report.failures or outcome.budget_exhausted:
        if use_cache and store is not None:
            try:
                report.write(store.sweeps_dir)
            except OSError:
                pass
        print(f"repro.perf: {report.summary()}", file=sys.stderr)

    if outcome.budget_exhausted:
        raise SweepError(
            f"supervisor pool-break budget exhausted after "
            f"{outcome.pool_breaks} breaks\n{report.summary()}",
            report=report)
    if report.failures:
        if policy == "strict":
            if outcome.abort_exc is not None:
                raise outcome.abort_exc
            raise SweepError(
                f"sweep failed under strict policy\n{report.summary()}",
                report=report)
        for failure in report.failures:
            results[failure.index] = Hole(
                index=failure.index, name=failure.name,
                kind=failure.kind, cause=failure.cause,
                attempts=failure.attempts)
        # Under partial, anything neither completed nor quarantined
        # (strict-style early stop cannot happen here) would be a
        # silent hole — make it loud.
        quarantined = {failure.index for failure in report.failures}
        for i in misses:
            if i not in done_indices and i not in quarantined:
                results[i] = Hole(index=i, name=points[i].name,
                                  kind="crash", cause="sweep aborted",
                                  attempts=0)
    return results


def _run_parallel(points, misses, keys, jobs, policy, scale, on_done,
                  on_attempt):
    """Supervised fork-pool execution of the missing points."""
    tasks = [(i, points[i], keys[i]) for i in misses]
    config = SupervisorConfig(
        jobs=min(jobs, len(tasks)),
        policy=policy,
        wall_timeout=point_timeout(scale),
        max_attempts=max_attempts(),
        backoff=backoff_from_env(),
        initializer=functools.partial(_init_worker, os.getpid()),
    )
    return run_supervised(_run_point, tasks, config, on_done,
                          on_attempt=on_attempt)


def _run_serial(points, misses, keys, policy, on_done, on_attempt):
    """In-process execution, one point at a time, checkpointing each.

    Behaviourally preserved from the pre-supervisor runner for
    ``strict``: the first exception surfaces unchanged (no retries, no
    wall deadline — the parent cannot kill itself).  The difference is
    that every already-completed result has been persisted by
    ``on_done``, so partial progress survives.  Under ``partial`` the
    exception becomes a quarantine entry and the sweep continues.
    """
    from repro.resilience.supervisor import SweepOutcome
    outcome = SweepOutcome()
    for i in misses:
        start = host_seconds()
        try:
            value = _run_point(points[i])
        except Exception as exc:  # noqa: BLE001 - classified below
            end = host_seconds()
            cause = f"{type(exc).__name__}: {exc}"
            kind = failure_kind(exc)
            if on_attempt is not None:
                on_attempt(i, points[i].name, 1, start, end,
                           "quarantined", cause)
            outcome.failures.append(PointFailure(
                index=i, name=points[i].name, kind=kind, cause=cause,
                attempts=1, key=keys[i]))
            if policy == "strict":
                # The caller re-raises this original exception after
                # journalling the quarantine and writing the report.
                outcome.aborted = True
                outcome.abort_exc = exc
                break
            continue
        if on_attempt is not None:
            on_attempt(i, points[i].name, 1, start, host_seconds(),
                       "ok", None)
        outcome.completed += 1
        on_done(i, value)
    return outcome
