"""Static-analysis core: findings, the rule protocol, and the registry.

The analyzer enforces the simulator-correctness discipline the rest of
the package relies on (determinism, event safety, poison-taint
completeness).  Rules are small classes registered under an ``MC2xxx``
code; the engine (:mod:`repro.analysis.engine`) parses every target file
once and hands each rule the shared AST.

Two rule flavours exist:

* **module rules** implement :meth:`Rule.check_module` and see one file
  at a time (purely syntactic checks);
* **project rules** implement :meth:`Rule.check_project` and see every
  parsed module together through a
  :class:`~repro.analysis.callgraph.ProjectContext` (interprocedural
  passes such as the poison-taint walk, the fork-safety family and
  the same-cycle race rules, which share the context's call graph and
  ``SimPoint`` worker-reachability closure).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.common.errors import ConfigError


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str              # MC2xxx code
    message: str           # human-readable description
    path: str              # file path as given to the engine
    line: int              # 1-based line of the offending node
    col: int               # 0-based column
    snippet: str = ""      # stripped source text of the line
    suppressed: bool = False   # matched a `# noqa` comment
    baselined: bool = False    # matched a baseline fingerprint

    def location(self) -> str:
        """``path:line:col`` string for text reports."""
        return f"{self.path}:{self.line}:{self.col + 1}"


@dataclass
class Module:
    """One parsed source file shared by every rule."""

    path: str                      # path as reported in findings
    source: str                    # raw text
    tree: ast.Module               # parsed AST
    lines: List[str] = field(default_factory=list)   # source split by line
    package: str = ""              # dotted module guess, e.g. "repro.sim.engine"

    def line_text(self, lineno: int) -> str:
        """Stripped text of 1-based ``lineno`` (empty when out of range)."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""


class Rule:
    """Base class for one checker.  Subclasses set the class attributes."""

    code: str = "MC2000"
    name: str = "rule"
    summary: str = ""
    rationale: str = ""

    def finding(self, module: Module, node: ast.AST, message: str) -> Finding:
        """Build a :class:`Finding` anchored at ``node``."""
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(rule=self.code, message=message, path=module.path,
                       line=line, col=col, snippet=module.line_text(line))

    # Flavour hooks -- implement exactly one.
    def check_module(self, module: Module) -> Iterator[Finding]:
        """Yield findings for one file (syntactic rules)."""
        return iter(())

    def check_project(self, project) -> Iterator[Finding]:
        """Yield findings needing the whole project (dataflow rules).

        ``project`` is a :class:`~repro.analysis.callgraph
        .ProjectContext`; its ``modules`` list carries every parsed
        file, and its lazy ``graph``/``workers``/``reached`` properties
        are shared across all project rules in one run.
        """
        return iter(())


_REGISTRY: Dict[str, Rule] = {}


def register(rule_cls: type) -> type:
    """Class decorator: instantiate and index a rule by its code."""
    rule = rule_cls()
    if rule.code in _REGISTRY:
        raise ConfigError(f"duplicate rule code {rule.code}")
    _REGISTRY[rule.code] = rule
    return rule_cls


def all_rules() -> List[Rule]:
    """Every registered rule, ordered by code."""
    # Import for side effects: rule modules self-register on first use.
    from repro.analysis import rules as _rules  # noqa: F401
    return [_REGISTRY[code] for code in sorted(_REGISTRY)]


def get_rule(code: str) -> Optional[Rule]:
    """Look up one rule by code (after ensuring registration)."""
    all_rules()
    return _REGISTRY.get(code)


class ScopedVisitor(ast.NodeVisitor):
    """AST visitor that tracks which names are locally rebound.

    Rules like "no module-level ``random``" must not fire when a
    function parameter or local assignment shadows the module name
    (``def sample(random): random.random()`` is a *seeded* generator
    passed in by the caller).  The visitor maintains a stack of local
    scopes; :meth:`is_shadowed` answers whether ``name`` currently
    resolves to something other than the module-level binding.
    """

    def __init__(self) -> None:
        self._scopes: List[set] = []

    # -- scope maintenance -------------------------------------------------
    def _collect_bindings(self, node: ast.AST) -> set:
        bound = set()
        args = getattr(node, "args", None)
        if isinstance(args, ast.arguments):
            for a in (list(args.posonlyargs) + list(args.args)
                      + list(args.kwonlyargs)):
                bound.add(a.arg)
            if args.vararg:
                bound.add(args.vararg.arg)
            if args.kwarg:
                bound.add(args.kwarg.arg)
        for child in ast.walk(node):
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Store):
                bound.add(child.id)
            elif isinstance(child, (ast.Import, ast.ImportFrom)):
                for alias in child.names:
                    bound.add((alias.asname or alias.name).split(".")[0])
        return bound

    def _visit_scope(self, node: ast.AST) -> None:
        self._scopes.append(self._collect_bindings(node))
        self.generic_visit(node)
        self._scopes.pop()

    visit_FunctionDef = _visit_scope
    visit_AsyncFunctionDef = _visit_scope
    visit_Lambda = _visit_scope

    def is_shadowed(self, name: str) -> bool:
        """True when ``name`` is rebound in an enclosing function scope."""
        return any(name in scope for scope in self._scopes)


def module_imports(tree: ast.Module) -> Dict[str, str]:
    """Top-level import map: local name -> dotted origin.

    ``import time`` yields ``{"time": "time"}``; ``from repro.sim.stats
    import Counter as C`` yields ``{"C": "repro.sim.stats.Counter"}``.
    Relative imports keep their level dots (``from . import plants`` ->
    ``{"plants": ".plants"}``) so they register as imports without ever
    matching an absolute dotted pattern.
    """
    out: Dict[str, str] = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                out[local] = alias.name
        elif isinstance(node, ast.ImportFrom):
            prefix = "." * node.level + (node.module or "")
            if not prefix:
                continue
            sep = "" if prefix.endswith(".") else "."
            for alias in node.names:
                out[alias.asname or alias.name] = f"{prefix}{sep}{alias.name}"
    return out


def dotted_name(node: ast.AST) -> str:
    """Best-effort dotted source text of a Name/Attribute chain."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    elif isinstance(node, ast.Call):
        parts.append(dotted_name(node.func) + "()")
    else:
        parts.append("?")
    return ".".join(reversed(parts))
