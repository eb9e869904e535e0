"""Determinism rules (MC2001-MC2003).

A cycle-accurate simulation must produce bit-identical results for a
given seed: the paper's bounce/materialize/BPQ claims are validated by
differential oracles that diff lazy against eager runs, and any hidden
source of run-to-run variation (wall-clock time, the process-global RNG,
unordered container iteration) silently invalidates them.
"""

from __future__ import annotations

import ast
from typing import Iterator, List

from repro.analysis.callgraph import GLOBAL_RANDOM_FNS
from repro.analysis.core import (Finding, Module, Rule, ScopedVisitor,
                                 dotted_name, module_imports, register)

#: Wall-clock reads that leak host time into simulated behaviour.
_WALLCLOCK = {
    "time": {"time", "time_ns", "perf_counter", "perf_counter_ns",
             "monotonic", "monotonic_ns", "process_time", "clock"},
    "datetime": {"now", "utcnow", "today"},
}


@register
class WallClockRule(Rule):
    """MC2001: no wall-clock time in simulation code."""

    code = "MC2001"
    name = "wall-clock-time"
    summary = "simulation code must not read host wall-clock time"
    rationale = ("Simulated behaviour keyed off time.time()/datetime.now() "
                 "varies run to run, breaking the differential oracles; the "
                 "only clock is Simulator.now.")

    def check_module(self, module: Module) -> Iterator[Finding]:
        imports = module_imports(module.tree)
        findings: List[Finding] = []
        rule = self

        qualified = {f"time.{fn}" for fn in _WALLCLOCK["time"]}

        class Visitor(ScopedVisitor):
            def visit_Call(self, node: ast.Call) -> None:
                func = node.func
                if isinstance(func, ast.Attribute):
                    chain = dotted_name(func)
                    root = chain.split(".")[0]
                    origin = imports.get(root)
                    clock_attrs = (
                        _WALLCLOCK["time"] if origin == "time"
                        else _WALLCLOCK["datetime"]
                        if origin in ("datetime", "datetime.datetime")
                        else ())
                    if func.attr in clock_attrs and not self.is_shadowed(root):
                        findings.append(rule.finding(
                            module, node,
                            f"wall-clock read {chain}() in simulation "
                            f"code; use the simulator clock"))
                elif isinstance(func, ast.Name):
                    origin = imports.get(func.id)
                    if origin in qualified and not self.is_shadowed(func.id):
                        findings.append(rule.finding(
                            module, node,
                            f"wall-clock read {func.id}() (from {origin}); "
                            f"use the simulator clock"))
                self.generic_visit(node)

        Visitor().visit(module.tree)
        return iter(findings)


@register
class GlobalRandomRule(Rule):
    """MC2002: no process-global or unseeded randomness."""

    code = "MC2002"
    name = "unseeded-random"
    summary = "use an explicitly seeded random.Random instance"
    rationale = ("The module-level RNG is shared process state: any other "
                 "consumer shifts the stream and changes the simulation. "
                 "Every component takes a seed and owns its generator "
                 "(see repro.workloads.common.rng).")

    def check_module(self, module: Module) -> Iterator[Finding]:
        imports = module_imports(module.tree)
        findings: List[Finding] = []
        rule = self

        class Visitor(ScopedVisitor):
            def visit_Call(self, node: ast.Call) -> None:
                func = node.func
                if isinstance(func, ast.Attribute):
                    root_node = func.value
                    if (isinstance(root_node, ast.Name)
                            and imports.get(root_node.id) == "random"
                            and not self.is_shadowed(root_node.id)):
                        if func.attr in GLOBAL_RANDOM_FNS:
                            findings.append(rule.finding(
                                module, node,
                                f"process-global random.{func.attr}(); "
                                f"construct random.Random(seed) instead"))
                        elif (func.attr in ("Random", "SystemRandom")
                                and not node.args and not node.keywords):
                            findings.append(rule.finding(
                                module, node,
                                f"random.{func.attr}() without a seed is "
                                f"OS-entropy seeded; pass an explicit seed"))
                self.generic_visit(node)

        Visitor().visit(module.tree)
        return iter(findings)


def _is_set_expr(node: ast.AST) -> bool:
    """Syntactically a set: literal, comprehension, or set()/frozenset()."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


@register
class UnorderedIterationRule(Rule):
    """MC2003: no iteration over unordered sets in simulation logic."""

    code = "MC2003"
    name = "unordered-iteration"
    summary = "iterating a set has no defined order; sort it first"
    rationale = ("Arbitration, event scheduling, and victim selection that "
                 "walk a set make decisions in hash order — stable within "
                 "one interpreter but not a *specified* order, and one "
                 "str/object key makes it PYTHONHASHSEED-dependent. "
                 "Wrap the iterable in sorted() with an explicit key.")

    #: Attributes known to hold sets in this codebase.
    KNOWN_SET_ATTRS = {"poisoned_lines"}

    def check_module(self, module: Module) -> Iterator[Finding]:
        findings: List[Finding] = []
        rule = self

        def check_iter(node: ast.AST, iterable: ast.AST) -> None:
            if _is_set_expr(iterable):
                findings.append(rule.finding(
                    module, node,
                    "iteration over an unordered set expression; "
                    "wrap in sorted(...)"))
            elif (isinstance(iterable, ast.Attribute)
                    and iterable.attr in rule.KNOWN_SET_ATTRS):
                findings.append(rule.finding(
                    module, node,
                    f"iteration over set attribute .{iterable.attr}; "
                    f"wrap in sorted(...)"))

        for node in ast.walk(module.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                check_iter(node, node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                for gen in node.generators:
                    check_iter(node, gen.iter)
        return iter(findings)
