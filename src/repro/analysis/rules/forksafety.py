"""Fork-safety and purity rules (MC2401-MC2404).

PR 3 made every paper sweep fan out through
:func:`repro.perf.runner.sim_map`: points run in forked worker
processes and results merge back in input order, under the contract
that a parallel sweep is **observationally identical** to a serial one.
That contract is purely behavioural — nothing stops a sweep function
from mutating a module-level dict (each worker then mutates a private
copy-on-write page the parent never sees), reading ambient process
state, or capturing an unpicklable resource in a point.  These rules
prove the contract statically, on the worker-reachability closure the
shared call graph computes from every ``SimPoint(fn, ...)`` dispatch
site; the ``simsan`` runtime sanitizer (:mod:`repro.analysis.simsan`)
is the matching dynamic oracle.

The dispatch infrastructure itself (``repro.perf.runner``,
``repro.perf.cache``) is exempt: it deliberately reads orchestration
environment in the parent and pins it inside workers
(``REPRO_JOBS=1``), and its memo writes are idempotent content hashes.
simsan audits that layer dynamically instead.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set

from repro.analysis.callgraph import innermost_facts, module_imports
from repro.analysis.core import Finding, Module, Rule, register

#: Package prefixes whose facts are never attributed to worker paths:
#: ``repro.perf`` is the dispatch/caching orchestration layer itself
#: (parent-side env reads, idempotent memo writes), ``repro.resilience``
#: is its supervision layer (parent-side deadline env knobs), and
#: ``repro.analysis`` is host-side tooling (figure assembly and this
#: linter) that builds sweeps but is never dispatched into one.  All
#: stay covered dynamically by the simsan runtime sanitizer.
INFRA_MODULES = ("repro.perf", "repro.analysis", "repro.resilience")

#: Constructors whose instances must not cross a fork/pickle boundary.
_FORK_UNSAFE_FACTORIES = {
    "open", "Lock", "RLock", "Semaphore", "BoundedSemaphore",
    "Condition", "Event", "Barrier", "Thread", "socket", "Popen",
}


def _exempt(qualname_path: str) -> bool:
    return any(qualname_path == mod or qualname_path.startswith(mod + ".")
               for mod in INFRA_MODULES)


class _WorkerPathRule(Rule):
    """Shared driver: flag one fact kind across the worker closure."""

    def facts_of(self, fn):
        raise NotImplementedError

    def message(self, fact) -> str:
        raise NotImplementedError

    def check_project(self, project) -> Iterator[Finding]:
        if not project.workers:
            return
        self._project = project
        reached = [q for q in sorted(project.reached)
                   if not _exempt(project.graph.functions[q].module.package)]
        for fact in innermost_facts(project.graph, reached, self.facts_of):
            yield self.finding(fact.fn.module, fact.node, self.message(fact))

    def _route(self, fact) -> str:
        return self._project.route(fact.fn.qualname)


@register
class SharedGlobalWriteRule(_WorkerPathRule):
    """MC2401: no shared-mutable-global writes on a worker path."""

    code = "MC2401"
    name = "fork-global-write"
    summary = "module-global mutated by a sim_map-dispatched function"
    rationale = ("A forked worker mutates its own copy-on-write image of "
                 "module state: the write is invisible to the parent and "
                 "to sibling points, so a parallel sweep silently diverges "
                 "from the serial run the oracles validated. Thread state "
                 "through parameters and return values instead.")

    def facts_of(self, fn):
        for name, nodes in sorted(fn.global_writes.items()):
            for node in nodes:
                yield node, name

    def message(self, fact) -> str:
        return (f"module-level global '{fact.label}' is written on a "
                f"sim_map worker path ({self._route(fact)}); forked "
                f"workers mutate a private copy, so parallel and serial "
                f"sweeps diverge — pass state via parameters/results")


@register
class AmbientWorkerInputRule(_WorkerPathRule):
    """MC2402: no ambient RNG or environment reads on a worker path."""

    code = "MC2402"
    name = "ambient-worker-input"
    summary = "worker path reads os.environ or the process-global RNG"
    rationale = ("A sim_map point must be a pure function of its "
                 "parameters: an os.environ read or an unseeded RNG draw "
                 "inside a worker makes the result depend on process "
                 "identity, differs between serial and forked execution, "
                 "and is invisible to the result cache's key.")

    def facts_of(self, fn):
        for node in fn.env_reads:
            yield node, "env"
        for node in fn.rng_calls:
            yield node, "rng"

    def message(self, fact) -> str:
        if fact.label == "env":
            return ("os.environ read on a sim_map worker path; pass the "
                    "value through the point's parameters so it reaches "
                    "the workers and the cache key")
        return ("process-global RNG call on a sim_map worker path; "
                "construct random.Random(seed) from an explicit parameter")


@register
class ForkUnsafeCaptureRule(Rule):
    """MC2403: SimPoints must capture only picklable, fork-safe values."""

    code = "MC2403"
    name = "fork-unsafe-capture"
    summary = "SimPoint captures a closure, bound method, or live resource"
    rationale = ("Points cross the fork boundary by pickling: a lambda or "
                 "nested function fails to pickle the moment REPRO_JOBS>1, "
                 "a bound method drags its whole object through the fork, "
                 "and open files/locks/sockets are duplicated descriptors "
                 "whose state desynchronizes between processes. Dispatch "
                 "module-level functions with plain-data arguments.")

    def _flag_target(self, module: Module, project,
                     target: ast.AST) -> Iterator[Finding]:
        imports = module_imports(module.tree)
        if isinstance(target, ast.Lambda):
            yield self.finding(
                module, target,
                "SimPoint dispatches a lambda; lambdas cannot be pickled "
                "across the fork boundary — use a module-level function")
        elif isinstance(target, ast.Name):
            for fn in project.graph.by_name.get(target.id, ()):
                if fn.module.path == module.path and fn.is_nested:
                    yield self.finding(
                        module, target,
                        f"SimPoint dispatches nested function "
                        f"'{target.id}'; closures cannot be pickled "
                        f"across the fork boundary — hoist it to module "
                        f"level")
                    break
        elif isinstance(target, ast.Attribute):
            root = target.value
            while isinstance(root, ast.Attribute):
                root = root.value
            root_name = root.id if isinstance(root, ast.Name) else ""
            if root_name not in imports:
                yield self.finding(
                    module, target,
                    f"SimPoint dispatches bound method "
                    f"'.{target.attr}'; the receiver object is pickled "
                    f"into every worker — dispatch a module-level "
                    f"function taking the object's parameters")

    def check_project(self, project) -> Iterator[Finding]:
        for module in project.modules:
            for node in ast.walk(module.tree):
                if not (isinstance(node, ast.Call) and node.args):
                    continue
                func = node.func
                name = (func.id if isinstance(func, ast.Name)
                        else func.attr if isinstance(func, ast.Attribute)
                        else "")
                if name != "SimPoint":
                    continue
                yield from self._flag_target(module, project, node.args[0])
                # Live resources in the captured arguments.
                for arg in list(node.args[1:]) + [kw.value
                                                  for kw in node.keywords]:
                    for sub in ast.walk(arg):
                        if not isinstance(sub, ast.Call):
                            continue
                        cname = (sub.func.id
                                 if isinstance(sub.func, ast.Name)
                                 else sub.func.attr
                                 if isinstance(sub.func, ast.Attribute)
                                 else "")
                        if cname in _FORK_UNSAFE_FACTORIES:
                            yield self.finding(
                                module, sub,
                                f"SimPoint argument constructs "
                                f"'{cname}(...)', a fork-unsafe live "
                                f"resource; open it inside the point "
                                f"function instead")


@register
class MergeOrderRule(Rule):
    """MC2404: no unordered-set iteration where worker results merge."""

    code = "MC2404"
    name = "merge-order-iteration"
    summary = "set iterated in a sim_map merge function without sorted()"
    rationale = ("The function that fans a sweep out and folds results "
                 "back is the process-merge boundary: iterating a set "
                 "there lets hash order decide row order or aggregation "
                 "order, so two runs of the *same* parallel sweep can "
                 "emit differently-ordered exhibits. Wrap the iterable "
                 "in sorted() with an explicit key. (MC2003 flags set "
                 "expressions anywhere; this rule additionally tracks "
                 "set-typed locals, but only where merges happen.)")

    def _set_locals(self, fn_node: ast.AST) -> Set[str]:
        out: Set[str] = set()
        for node in ast.walk(fn_node):
            if not isinstance(node, ast.Assign):
                continue
            value = node.value
            is_set = isinstance(value, (ast.Set, ast.SetComp))
            if (not is_set and isinstance(value, ast.Call)
                    and isinstance(value.func, ast.Name)):
                is_set = value.func.id in ("set", "frozenset")
            if is_set:
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        out.add(target.id)
        return out

    def check_module(self, module: Module) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            calls_sim_map = any(
                isinstance(sub, ast.Call) and (
                    (isinstance(sub.func, ast.Name)
                     and sub.func.id == "sim_map")
                    or (isinstance(sub.func, ast.Attribute)
                        and sub.func.attr == "sim_map"))
                for sub in ast.walk(node))
            if not calls_sim_map:
                continue
            set_locals = self._set_locals(node)
            if not set_locals:
                continue
            for sub in ast.walk(node):
                iters: List[ast.AST] = []
                if isinstance(sub, (ast.For, ast.AsyncFor)):
                    iters = [sub.iter]
                elif isinstance(sub, (ast.ListComp, ast.SetComp,
                                      ast.DictComp, ast.GeneratorExp)):
                    iters = [gen.iter for gen in sub.generators]
                for it in iters:
                    if isinstance(it, ast.Name) and it.id in set_locals:
                        yield self.finding(
                            module, sub,
                            f"iteration over set-typed local '{it.id}' in "
                            f"a sim_map merge function; hash order leaks "
                            f"into the merged exhibit — wrap in sorted()")
