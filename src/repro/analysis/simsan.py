"""simsan — runtime sanitizer for the parallel sweep runner.

The fork-safety rules (MC24xx) prove sweep purity *statically*, on the
worker-reachability closure of the shared call graph.  simsan is the
matching *dynamic* oracle, and the only check on result-cache
soundness: with ``REPRO_SIMSAN=1`` the sweep runner
(:mod:`repro.perf.runner`) and the result cache (:mod:`repro.perf.cache`)
route through the hooks below, which

* snapshot the module-level globals of every loaded ``repro.*`` module
  around each dispatched point and flag any mutation — the runtime
  analogue of MC2401 (a forked worker mutating its copy-on-write image
  diverges silently from the serial run);
* audit every Nth cache hit (``REPRO_SIMSAN_PERIOD``, default 8) by
  recomputing the point and comparing against the stored value (an
  input influencing the result but missing from the cache key makes
  stale hits indistinguishable from fresh runs);
* harden the cache itself: a structurally corrupt store entry or a
  value failing the JSON round-trip contract (a tuple comes back a
  list; a set never caches) is reported instead of silently degraded
  to a miss.

A fourth hook has its own switch: ``REPRO_TIE_ORDER`` (see the
tie-order section below) perturbs the engine's equal-cycle event
ordering and, in paired mode, runs every sweep point under several
orders and diffs the results and full StatGroup trees — the runtime
analogue of the same-cycle race rules (MC2601).  It works without
``REPRO_SIMSAN`` set; violations still honour ``REPRO_SIMSAN=warn``.

Modes: ``REPRO_SIMSAN=1`` (or ``on``/``strict``/``true``) raises
:class:`~repro.common.errors.SanitizerError`; ``REPRO_SIMSAN=warn``
prints to stderr and continues; unset, empty, ``0``, ``off`` or
``false`` disables every hook.  Any other value is a
:class:`~repro.common.errors.ConfigError`, so a misspelt or retired
mode never runs a sweep unsanitized.  The instrumented call sites check
:func:`enabled` first, so the sanitizer costs nothing when off.

The orchestration layer itself (``repro.perf``) and this package are
excluded from the global snapshot for the same reason the static rules
exempt them (see :data:`repro.analysis.rules.forksafety.INFRA_MODULES`):
their memoization state is process-local by design.
"""

from __future__ import annotations

import json
import os
import sys
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.common.errors import ConfigError, SanitizerError

#: Module-name prefixes excluded from the global-mutation snapshot —
#: must stay in sync with the static exemption in
#: :data:`repro.analysis.rules.forksafety.INFRA_MODULES`.
EXCLUDE_PREFIXES = ("repro.perf", "repro.analysis", "repro.resilience")

#: Fingerprints longer than this are truncated: a mutation almost
#: always changes the head of the repr, and unbounded reprs of large
#: result tables would dominate the sanitizer's cost.
_REPR_CAP = 512

_DEFAULT_PERIOD = 8

#: ``REPRO_SIMSAN`` spellings; anything outside these and ``warn`` is
#: rejected by :func:`mode`.
_STRICT = ("1", "on", "strict", "true")
_OFF = ("", "0", "off", "false")

#: Cache hits observed since process start (drives the audit period).
_hit_count = 0


def mode() -> str:
    """``"strict"``, ``"warn"``, or ``"off"`` from ``REPRO_SIMSAN``."""
    raw = os.environ.get("REPRO_SIMSAN", "").strip().lower()
    if raw in _STRICT:
        return "strict"
    if raw == "warn":
        return "warn"
    if raw in _OFF:
        return "off"
    raise ConfigError(
        f"unknown REPRO_SIMSAN value {raw!r}: expected 1/on/strict/true, "
        f"warn, or 0/off/false")


def enabled() -> bool:
    """Whether any sanitizer hook should run."""
    return mode() != "off"


def period() -> int:
    """Audit every Nth cache hit (``REPRO_SIMSAN_PERIOD``, min 1)."""
    try:
        return max(1, int(os.environ.get("REPRO_SIMSAN_PERIOD",
                                         str(_DEFAULT_PERIOD))))
    except ValueError:
        return _DEFAULT_PERIOD


def report(kind: str, message: str) -> None:
    """Surface one violation according to the active mode."""
    text = f"simsan[{kind}]: {message}"
    if mode() == "warn":
        print(text, file=sys.stderr)
        return
    raise SanitizerError(text)


def _fingerprint(value: Any) -> str:
    try:
        return f"{type(value).__name__}:{repr(value)[:_REPR_CAP]}"
    except Exception:  # a hostile __repr__ must not kill the sweep
        return f"{type(value).__name__}:<unrepresentable>"


def _watched_modules(extra: Tuple[str, ...] = ()) -> List[str]:
    return [name for name in sys.modules
            if (name == "repro" or name.startswith("repro.")
                or name in extra)
            and not any(name == p or name.startswith(p + ".")
                        for p in EXCLUDE_PREFIXES)]


def snapshot(extra: Tuple[str, ...] = ()) -> Dict[str, Dict[str, str]]:
    """Fingerprint the globals of every loaded, watched repro module.

    ``extra`` names additional modules to watch — the dispatched
    point's own module, which is sim code by definition even when it
    lives outside the ``repro`` package (workload fixtures, tests).
    """
    out: Dict[str, Dict[str, str]] = {}
    for name in _watched_modules(extra):
        module = sys.modules.get(name)
        if module is None:
            continue
        out[name] = {attr: _fingerprint(value)
                     for attr, value in vars(module).items()
                     if not attr.startswith("__")}
    return out


def diff_snapshots(before: Dict[str, Dict[str, str]],
                   after: Dict[str, Dict[str, str]]
                   ) -> List[Tuple[str, str, str]]:
    """(module, name, change) triples for globals that changed.

    Only modules present in ``before`` are compared: a module first
    imported *during* the call brings all its globals with it, which is
    an import side effect, not a mutation.  For the same reason a
    *created* attribute whose value is a module is ignored — importing
    ``pkg.sub`` lazily binds ``sub`` on the parent package.  Within a
    pre-existing module, everything else counts.
    """
    changes: List[Tuple[str, str, str]] = []
    for mod_name, old in before.items():
        new = after.get(mod_name)
        if new is None:  # module vanished: del sys.modules[...] — flag
            changes.append((mod_name, "*", "module removed"))
            continue
        for attr in sorted(set(old) | set(new)):
            if attr not in old:
                if new[attr].startswith("module:"):
                    continue  # lazy submodule import, not a mutation
                changes.append((mod_name, attr, "created"))
            elif attr not in new:
                changes.append((mod_name, attr, "deleted"))
            elif old[attr] != new[attr]:
                changes.append((mod_name, attr, "mutated"))
    return changes


def checked_call(fn: Callable[..., Any], args: Tuple, kwargs: Dict[str, Any],
                 name: str) -> Any:
    """Run one sweep point with the global-mutation audit around it."""
    extra = (getattr(fn, "__module__", None) or "",)
    before = snapshot(extra)
    value = fn(*args, **kwargs)
    changes = diff_snapshots(before, snapshot(extra))
    if changes:
        detail = "; ".join(f"{mod}.{attr} {change}"
                           for mod, attr, change in changes[:5])
        more = len(changes) - 5
        if more > 0:
            detail += f"; and {more} more"
        report("global-write",
               f"sim point {name} mutated module-level state ({detail}); "
               f"forked workers mutate a private copy, so parallel and "
               f"serial sweeps diverge (static rule: MC2401)")
    return value


def should_audit_hit() -> bool:
    """True on every Nth cache hit (process-local counter)."""
    global _hit_count
    _hit_count += 1
    return _hit_count % period() == 0


def _json_normal(value: Any) -> Any:
    return json.loads(json.dumps(value, sort_keys=True, allow_nan=False))


def audit_hit(name: str, key: str, cached: Any,
              recompute: Callable[[], Any]) -> None:
    """Recompute a cache hit and compare against the stored value.

    ``cached`` already survived one JSON round trip at ``put`` time, so
    the fresh value is normalized the same way before comparison.
    """
    try:
        fresh = _json_normal(recompute())
    except (TypeError, ValueError) as exc:
        report("cache-audit",
               f"recomputed value for {name} is no longer "
               f"JSON-representable ({exc}) although key {key[:12]}… holds "
               f"a cached result")
        return
    if fresh != cached:
        report("cache-audit",
               f"cache hit for {name} (key {key[:12]}…) differs from a "
               f"fresh recompute; some input that influences the result "
               f"is missing from the cache key")


def check_payload(path: str, payload: Any) -> None:
    """Validate the structure of a deserialized cache entry."""
    if not (isinstance(payload, dict)
            and "fn" in payload and "value" in payload):
        report("cache-entry",
               f"corrupt cache entry {path}: expected an object with "
               f"'fn' and 'value' keys")


def report_unroundtrippable(fn_name: str, reason: str) -> None:
    """A result failed the cache's JSON round-trip contract."""
    report("json-round-trip",
           f"result of {fn_name} violates the JSON round-trip contract "
           f"({reason}); it cannot be cached bit-identically — return "
           f"plain dicts/lists/scalars")


# --------------------------------------------------------------------------
# Tie-order perturbation (the MC26xx dynamic oracle)
#
# The engine's tie-break hook permutes the pop order of equal-cycle
# events (see repro.sim.engine).  No simulation result may depend on
# that order; ``REPRO_TIE_ORDER`` makes the claim testable:
#
#   REPRO_TIE_ORDER=lifo          run everything under one perturbed order
#   REPRO_TIE_ORDER=fifo,lifo     *paired* mode: run every sweep point
#   REPRO_TIE_ORDER=paired        under each listed order (``paired`` is
#   REPRO_TIE_ORDER=fifo,seeded:7 shorthand for ``fifo,lifo``) and diff
#                                 the results and full StatGroup trees
#
# A divergence is a confirmed same-cycle race — the dynamic counterpart
# of the static MC2601 rule.  The comparison names the first divergent
# stat leaf and, from the per-order (cycle, label) event streams, the
# first cycle whose fired-event multiset differs (a pure within-cycle
# permutation is expected and ignored).  Violations route through
# :func:`report` — strict by default, ``REPRO_SIMSAN=warn`` demotes.

#: Tie-order env values meaning "off" (mirrors REPRO_SIMSAN's offs).
_TIE_OFF = ("", "0", "off", "none", "false")

#: Per-run cap on captured (cycle, label) event records.  Beyond it the
#: stream is truncated and divergence localisation degrades gracefully
#: (the stat-tree diff still decides pass/fail).
_TIE_EVENT_CAP = 2_000_000

#: Events listed per side when naming a divergent cycle.
_TIE_DETAIL_CAP = 6


def tie_order_spec() -> List[str]:
    """Parsed ``REPRO_TIE_ORDER``: a list of order names (may be empty).

    One name installs that order globally; two or more trigger paired
    mode.  Malformed names raise :class:`ConfigError` here, at parse
    time, not mid-sweep.
    """
    raw = os.environ.get("REPRO_TIE_ORDER", "").strip().lower()
    if raw in _TIE_OFF:
        return []
    if raw == "paired":
        return ["fifo", "lifo"]
    orders = [token.strip() for token in raw.split(",") if token.strip()]
    for order in orders:
        tie_break_for(order)  # validate every token up front
    return orders


def tie_break_for(order: str) -> Optional[Callable[[int], int]]:
    """The engine tie-break hook for one order name.

    ``fifo`` is ``None`` (the engine's native order), ``lifo`` reverses
    equal-cycle pops, ``seeded:N`` shuffles them by a Weyl/golden-ratio
    hash of the insertion sequence — three cheap, deterministic
    permutations that disagree with each other wherever order can leak.
    Keys stay far below the engine's phase stride (2**40).
    """
    if order == "fifo":
        return None
    if order == "lifo":
        return lambda seq: -seq
    if order.startswith("seeded:"):
        try:
            seed = int(order.split(":", 1)[1])
        except ValueError:
            raise ConfigError(
                f"bad REPRO_TIE_ORDER entry {order!r}: seeded:N needs an "
                f"integer seed")
        return lambda seq, _s=seed: ((seq + _s) * 0x9E3779B1) & 0xFFFFFFFF
    raise ConfigError(
        f"unknown tie order {order!r}: expected fifo, lifo, or seeded:N")


def tie_call(fn: Callable[..., Any], args: Tuple,
             kwargs: Dict[str, Any]) -> Any:
    """Run one call under the single order ``REPRO_TIE_ORDER`` names."""
    from repro.sim import engine as sim_engine
    orders = tie_order_spec()
    previous = sim_engine.default_tie_break()
    sim_engine.set_default_tie_break(tie_break_for(orders[0]))
    try:
        return fn(*args, **kwargs)
    finally:
        sim_engine.set_default_tie_break(previous)


def _tie_run(order: str, fn: Callable[..., Any], args: Tuple,
             kwargs: Dict[str, Any]) -> Dict[str, Any]:
    """One sub-run under ``order``, capturing stats trees and events.

    The StatGroup construction hook and the engine's default trace
    hook are installed *around* the call (and restored afterwards), so
    a sanitized inner call sees identical module state in its before
    and after snapshots — the capture itself must not read as a
    global write.
    """
    from repro.sim import engine as sim_engine
    from repro.sim import stats as sim_stats

    groups: List[Any] = []
    events: List[Tuple[int, str]] = []
    state = {"truncated": False}

    def _on_group(group: Any) -> None:
        groups.append(group)

    def _on_event(label: str, now: int) -> None:
        if len(events) < _TIE_EVENT_CAP:
            events.append((now, label))
        else:
            state["truncated"] = True

    prev_tie = sim_engine.default_tie_break()
    prev_trace = sim_engine.default_trace_hook()
    prev_groups = sim_stats.construction_hook()
    sim_engine.set_default_tie_break(tie_break_for(order))
    sim_engine.set_default_trace_hook(_on_event)
    sim_stats.set_construction_hook(_on_group)
    try:
        result = fn(*args, **kwargs)
    finally:
        sim_engine.set_default_tie_break(prev_tie)
        sim_engine.set_default_trace_hook(prev_trace)
        sim_stats.set_construction_hook(prev_groups)

    # Roots: captured groups that are nobody's child — compared whole,
    # so every counter, distribution, and child group participates.
    child_ids = set()
    for group in groups:
        child_ids.update(id(child) for child in group.children.values())
    roots = [group for group in groups if id(group) not in child_ids]
    trees = [root.to_dict(include_samples=True) for root in roots]
    return {"order": order, "result": result, "trees": trees,
            "events": events, "truncated": state["truncated"]}


def _tie_normal(value: Any) -> Any:
    """JSON-normalize for comparison; fall back to repr for oddballs."""
    try:
        return _json_normal(value)
    except (TypeError, ValueError):
        return repr(value)


def _first_diff(a: Any, b: Any, path: str = "$"):
    """(path, left, right) of the first differing leaf, or None."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a:
                return (f"{path}.{key}", "<absent>", b[key])
            if key not in b:
                return (f"{path}.{key}", a[key], "<absent>")
            found = _first_diff(a[key], b[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(a, list) and isinstance(b, list):
        for i in range(max(len(a), len(b))):
            if i >= len(a):
                return (f"{path}[{i}]", "<absent>", b[i])
            if i >= len(b):
                return (f"{path}[{i}]", a[i], "<absent>")
            found = _first_diff(a[i], b[i], f"{path}[{i}]")
            if found:
                return found
        return None
    return None if a == b else (path, a, b)


def _first_divergence(a: List[Tuple[int, str]], b: List[Tuple[int, str]]):
    """First cycle whose fired-event *multiset* differs between streams.

    Equal-cycle events firing in a different order is exactly what a
    tie-break is allowed to change; the schedules only truly diverge
    once some cycle fires different *work*.  Returns ``(cycle,
    only_in_a, only_in_b)`` label lists, or None when the streams agree
    cycle-for-cycle.
    """
    ia = ib = 0
    len_a, len_b = len(a), len(b)
    while ia < len_a or ib < len_b:
        cycle_a = a[ia][0] if ia < len_a else None
        cycle_b = b[ib][0] if ib < len_b else None
        if cycle_a is None or cycle_b is None or cycle_a != cycle_b:
            if cycle_a is not None and (cycle_b is None
                                        or cycle_a < cycle_b):
                return (cycle_a,
                        [label for _c, label in a[ia:ia + _TIE_DETAIL_CAP]],
                        [])
            return (cycle_b, [],
                    [label for _c, label in b[ib:ib + _TIE_DETAIL_CAP]])
        cycle = cycle_a
        labels_a: Counter = Counter()
        while ia < len_a and a[ia][0] == cycle:
            labels_a[a[ia][1]] += 1
            ia += 1
        labels_b: Counter = Counter()
        while ib < len_b and b[ib][0] == cycle:
            labels_b[b[ib][1]] += 1
            ib += 1
        if labels_a != labels_b:
            only_a = sorted((labels_a - labels_b).elements())
            only_b = sorted((labels_b - labels_a).elements())
            return (cycle, only_a[:_TIE_DETAIL_CAP],
                    only_b[:_TIE_DETAIL_CAP])
    return None


def _export_divergence(name: str, order_a: str, order_b: str,
                       payload: Dict[str, Any]) -> Optional[str]:
    """Drop a divergence report next to the obs traces, when tracing is on.

    Returns the written path (named in the violation message) or None
    when the obs runtime is unconfigured — the sanitizer never *requires*
    tracing, it only enriches its report when tracing is already active.
    """
    try:
        from repro.obs import runtime as obs_runtime
        if not obs_runtime.is_configured():
            return None
        from pathlib import Path
        config = obs_runtime.current_config()
        out_dir = Path((config.out_dir if config is not None else None)
                       or obs_runtime.DEFAULT_TRACE_DIR)
        out_dir.mkdir(parents=True, exist_ok=True)
        safe = name.replace("/", "_")
        path = out_dir / (f"tie-divergence.{safe}."
                          f"{order_a}-vs-{order_b}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True,
                      default=repr)
        return str(path)
    except OSError:
        return None


def _window(events: List[Tuple[int, str]], cycle: int,
            radius: int = 2) -> List[Tuple[int, str]]:
    """The slice of an event stream within ``radius`` cycles of ``cycle``."""
    return [(when, label) for when, label in events
            if cycle - radius <= when <= cycle + radius][:64]


def _compare_tie_runs(name: str, base: Dict[str, Any],
                      other: Dict[str, Any]) -> None:
    """Diff two sub-runs; report a tie-order violation on any mismatch."""
    problems: List[str] = []
    result_a = _tie_normal(base["result"])
    result_b = _tie_normal(other["result"])
    if result_a != result_b:
        where = _first_diff(result_a, result_b) or ("$", result_a, result_b)
        problems.append(
            f"result {where[0]}: {where[1]!r} != {where[2]!r}")
    if len(base["trees"]) != len(other["trees"]):
        problems.append(f"stat tree count {len(base['trees'])} != "
                        f"{len(other['trees'])}")
    else:
        for tree_a, tree_b in zip(base["trees"], other["trees"]):
            where = _first_diff(_tie_normal(tree_a), _tie_normal(tree_b))
            if where:
                problems.append(
                    f"stat {where[0]}: {where[1]!r} != {where[2]!r}")
                break
    if not problems:
        return

    divergence = _first_divergence(base["events"], other["events"])
    if divergence is not None:
        cycle, only_a, only_b = divergence
        locus = (f"first divergent cycle {cycle}: "
                 f"only[{base['order']}]={only_a}, "
                 f"only[{other['order']}]={only_b}")
    elif base["truncated"] or other["truncated"]:
        locus = (f"event streams truncated at {_TIE_EVENT_CAP} records; "
                 f"divergence lies past the capture cap")
    else:
        locus = ("event schedules agree cycle-for-cycle; a same-cycle "
                 "handler pair raced on shared state without changing "
                 "the schedule")
    payload = {
        "point": name,
        "orders": [base["order"], other["order"]],
        "problems": problems,
        "locus": locus,
        "events_truncated": base["truncated"] or other["truncated"],
    }
    if divergence is not None:
        payload["divergent_cycle"] = divergence[0]
        payload["window"] = {
            base["order"]: _window(base["events"], divergence[0]),
            other["order"]: _window(other["events"], divergence[0]),
        }
    artifact = _export_divergence(name, base["order"], other["order"],
                                  payload)
    detail = "; ".join(problems[:3])
    report("tie-order",
           f"sim point {name} is tie-order dependent "
           f"({base['order']} vs {other['order']}): {detail}; {locus}"
           + (f" [details: {artifact}]" if artifact else "")
           + " — equal-cycle dispatch order leaked into results "
             "(static family: MC26xx)")


def paired_tie_call(fn: Callable[..., Any], args: Tuple,
                    kwargs: Dict[str, Any], name: str) -> Any:
    """Run one sweep point under every configured tie order and diff.

    Returns the first order's result (by convention ``fifo``, the
    production order).  Any mismatch in the JSON-normalized result or
    in any captured StatGroup tree is a confirmed same-cycle race and
    is routed through :func:`report`.
    """
    orders = tie_order_spec()
    base: Optional[Dict[str, Any]] = None
    for order in orders:
        run = _tie_run(order, fn, args, kwargs)
        if base is None:
            base = run
        else:
            _compare_tie_runs(name, base, run)
    assert base is not None  # orders is non-empty by contract
    return base["result"]
