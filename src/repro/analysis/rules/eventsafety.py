"""Event-safety rules (MC2102-MC2104).

The discrete-event engine (:mod:`repro.sim.engine`) owns the only clock;
components account state through the shared :class:`StatGroup` tree
and fail loudly through the :mod:`repro.common.errors` hierarchy, so the
watchdog and oracles can tell a modelled fault from a simulator bug.
(The engine itself raises on scheduling into the past.)
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.analysis.core import (Finding, Module, Rule,
                                 module_imports, register)


@register
class AdHocStatRule(Rule):
    """MC2102: stats go through the StatGroup tree, not ad-hoc objects."""

    code = "MC2102"
    name = "adhoc-stat"
    summary = "construct stats via StatGroup.counter()/distribution()"
    rationale = ("The analysis layer, the CLI report, and the differential "
                 "oracles discover statistics by walking the shared "
                 "StatGroup tree; a Counter or Distribution constructed "
                 "directly is invisible to all of them and to reset().")

    #: Module that legitimately constructs the stat primitives.
    HOME = "repro.sim.stats"

    def check_module(self, module: Module) -> Iterator[Finding]:
        if module.package == self.HOME:
            return
        imports = module_imports(module.tree)
        stat_names = {
            local for local, origin in imports.items()
            if origin in (f"{self.HOME}.Counter", f"{self.HOME}.Distribution")}
        if not stat_names:
            return
        for node in ast.walk(module.tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in stat_names):
                yield self.finding(
                    module, node,
                    f"direct {node.func.id}(...) construction bypasses the "
                    f"StatGroup tree; use stats.counter()/distribution()")


#: Builtin exceptions that must not be raised from simulation code.
_FORBIDDEN_RAISES = {
    "Exception", "BaseException", "ValueError", "TypeError", "RuntimeError",
    "KeyError", "IndexError", "ArithmeticError", "ZeroDivisionError",
    "AssertionError", "OSError", "IOError", "LookupError", "AttributeError",
}


@register
class ExceptionHierarchyRule(Rule):
    """MC2103: raised exceptions derive from repro.common.errors."""

    code = "MC2103"
    name = "foreign-exception"
    summary = "raise ReproError subclasses, not bare builtins"
    rationale = ("Harness code distinguishes modelled failures (poison, "
                 "livelock, capacity) from simulator bugs by exception "
                 "type; a bare ValueError escaping an event handler is "
                 "indistinguishable from a crash. NotImplementedError on "
                 "abstract hooks is exempt.")

    def check_module(self, module: Module) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc
            name: Optional[str] = None
            if isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name):
                name = exc.func.id
            elif isinstance(exc, ast.Name):
                name = exc.id
            if name in _FORBIDDEN_RAISES:
                yield self.finding(
                    module, node,
                    f"raise {name} in simulation code; use a "
                    f"repro.common.errors type (e.g. ConfigError, "
                    f"SimulationError)")


@register
class SwallowedExceptionRule(Rule):
    """MC2104: handlers must not silently swallow broad exceptions."""

    code = "MC2104"
    name = "swallowed-exception"
    summary = "bare/broad except with a pass body hides handler failures"
    rationale = ("An exception escaping an event callback is the only "
                 "signal that the machine state diverged; `except: pass` "
                 "converts that into silent corruption the poison oracle "
                 "can no longer attribute.")

    def check_module(self, module: Module) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            broad = node.type is None or (
                isinstance(node.type, ast.Name)
                and node.type.id in ("Exception", "BaseException"))
            body_is_noop = all(
                isinstance(stmt, (ast.Pass, ast.Continue))
                or (isinstance(stmt, ast.Expr)
                    and isinstance(stmt.value, ast.Constant))
                for stmt in node.body)
            if broad and body_is_noop:
                yield self.finding(
                    module, node,
                    "broad except handler swallows the exception; "
                    "narrow the type or re-raise")
