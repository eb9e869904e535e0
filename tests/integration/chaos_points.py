"""Module-level sim points for the chaos tests (``test_chaos.py``).

They live in their own importable module so that (a) they pickle into
fork workers and (b) the child interpreter spawned by the parent-SIGKILL
test can import them under the *same* qualified name
(``tests.integration.chaos_points``), which is what makes the cache keys
— and therefore checkpoint-resume — line up across processes.

Every input is an explicit argument; nothing here reads ambient
environment state (the fork-safety rules, MC24xx, apply to test points
too).
"""

import os
import pathlib
import time


def well_behaved(i):
    return {"i": i, "sq": i * i}


def crash_once(i, marker_dir, crash_at):
    """``os._exit(11)`` the first time point ``crash_at`` executes.

    The marker file is written *before* dying so the supervisor's retry
    finds it and completes — a worker that dies once, not a poison
    point.  ``os._exit`` bypasses all exception handling and finalizers:
    from the parent's side this is indistinguishable from an OOM kill
    or a segfault.
    """
    if i == crash_at:
        marker = pathlib.Path(marker_dir) / f"crashed.{i}"
        if not marker.exists():
            marker.write_text("about to die", encoding="utf-8")
            os._exit(11)
    return {"i": i, "sq": i * i}


def always_crash(i):
    """A poison point: kills its worker on every attempt."""
    os._exit(7)


def sleepy(i, seconds):
    """Sleeps past any deadline the test sets; returns if allowed to."""
    if seconds:
        time.sleep(seconds)
    return {"i": i, "slept": seconds}


def logged(i, log_dir):
    """Appends one line per *completed* execution: recomputation proof.

    The sleep keeps the sweep slow enough for the parent-SIGKILL test to
    land its kill mid-sweep; the log line is written immediately before
    returning, so a checkpointed (cached) point has exactly one line no
    matter how many times the sweep is resumed.
    """
    time.sleep(0.3)
    log = pathlib.Path(log_dir) / "exec.log"
    # Write-only side channel: the log never feeds the returned value,
    # so the cache key (which omits it) stays sound.
    with open(log, "a", encoding="utf-8") as handle:
        handle.write(f"{i}\n")
    return {"i": i, "cube": i ** 3}
