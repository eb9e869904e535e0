"""Poison-taint completeness pass (MC2301).

PR 1 introduced line-granular *poison*: a detected-uncorrectable ECC
error marks its cacheline known-bad, and every data-movement path —
bounce reconstruction, materialization, BPQ park/drain, eager lines —
must carry that mark with the bytes so corruption is contained, never
laundered back into clean data.  The containment oracle can only catch a
path that a test exercises; this pass closes the gap *statically* by
flagging any function that moves functional line data without ever
consulting or propagating poison state.

The pass is hosted on the shared call-graph IR
(:mod:`repro.analysis.callgraph`): the graph enumerates every
function/method in the poison-critical packages and records its call
sites; this module contributes only the taint-specific facts —

1. does a function *read* line data (``read``/``read_line``/``.data``
   access), does it *write* line data (``write_line``, a backing/store
   ``write``, or a ``.data`` attribute store), and does it *touch*
   poison state (any reference to the poison vocabulary)?
2. poison-awareness propagates callee->caller through
   :meth:`~repro.analysis.callgraph.CallGraph.propagate_up` — a
   function that delegates movement to a poison-aware helper is itself
   safe;
3. the data primitives themselves (``BackingStore.read*/write*``) do
   **not** confer awareness on their callers: ``write_line`` clears
   poison on overwrite, so a caller moving *derived* bytes must
   re-poison explicitly — exactly the mistake this pass exists to catch.

A function that both reads and writes line data and is not
poison-aware is flagged.  False positives are expected to be rare and
carry a ``# noqa: MC2301`` with a justification.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator

from repro.analysis.callgraph import CallGraph, FunctionNode, walk_body
from repro.analysis.core import Finding, Rule, register

#: Packages whose functions move functional line data.
TARGET_PACKAGES = (
    "repro.mcsquare", "repro.cache", "repro.mem", "repro.memctrl",
    "repro.faults",
)

#: Identifiers that constitute "touching poison state".
POISON_TOKENS = {
    "poison", "poisoned", "clear_poison", "line_poisoned",
    "range_poisoned", "poisoned_lines", "_poisoned", "propagate_poison",
}

#: Method names that read functional line data.
READ_PRIMITIVES = {"read", "read_line"}

#: Method names that write functional line data.
WRITE_PRIMITIVES = {"write", "write_line"}

#: Primitive methods excluded from conferring poison awareness (their
#: poison handling covers *their own* write, not the caller's derivation).
NON_CONFERRING = READ_PRIMITIVES | WRITE_PRIMITIVES | {"fill", "copy"}


def _receiver_text(node: ast.Attribute) -> str:
    try:
        return ast.unparse(node.value)
    except Exception:  # pragma: no cover - unparse of exotic nodes
        return ""


def _is_data_write_call(node: ast.Call) -> bool:
    """``X.write_line(...)`` always; ``X.write(...)`` for memory-ish X."""
    if not isinstance(node.func, ast.Attribute):
        return False
    attr = node.func.attr
    if attr == "write_line":
        return True
    if attr == "write":
        recv = _receiver_text(node.func).lower()
        return any(token in recv for token in ("backing", "store", "mem"))
    return False


def _is_data_read_call(node: ast.Call) -> bool:
    if not isinstance(node.func, ast.Attribute):
        return False
    attr = node.func.attr
    if attr == "read_line":
        return True
    if attr == "read":
        recv = _receiver_text(node.func).lower()
        return any(token in recv for token in ("backing", "store", "mem"))
    return False


class TaintFacts:
    """Flow-insensitive poison facts for one graph function."""

    __slots__ = ("reads_data", "writes_data", "touches_poison")

    def __init__(self) -> None:
        self.reads_data = False
        self.writes_data = False
        self.touches_poison = False


def taint_facts(fn: FunctionNode) -> TaintFacts:
    """Walk ``fn``'s subtree for data movement and poison references."""
    facts = TaintFacts()
    for node in walk_body(fn.node):
        if isinstance(node, ast.Call):
            if _is_data_write_call(node):
                facts.writes_data = True
            if _is_data_read_call(node):
                facts.reads_data = True
        if isinstance(node, ast.Attribute):
            if node.attr in POISON_TOKENS:
                facts.touches_poison = True
            elif node.attr == "data" and isinstance(node.ctx, ast.Load):
                # Reading another component's buffered line bytes (BPQ
                # entries, packets) is a data *source* too.
                facts.reads_data = True
            elif node.attr == "data" and isinstance(node.ctx, ast.Store):
                facts.writes_data = True
        if isinstance(node, ast.Name) and node.id in POISON_TOKENS:
            facts.touches_poison = True
    return facts


@register
class PoisonTaintRule(Rule):
    """MC2301: data movement must propagate (or consciously clear) poison."""

    code = "MC2301"
    name = "poison-taint"
    summary = "function moves line data without consulting poison state"
    rationale = ("Every new data path through mcsquare/cache/mem must keep "
                 "the PR 1 containment invariant: bytes derived from a "
                 "poisoned line stay marked. A mover that never mentions "
                 "poison silently launders corruption past the oracle.")

    def check_project(self, project) -> Iterator[Finding]:
        # The taint walk needs its own *scoped* graph: bare-name
        # awareness propagation is only sound within the
        # poison-critical packages, so the shared full graph is not
        # reused here.
        graph = CallGraph.build(project.modules, packages=TARGET_PACKAGES)
        facts: Dict[str, TaintFacts] = {
            qualname: taint_facts(fn)
            for qualname, fn in graph.functions.items()}
        aware = graph.propagate_up(
            seed=lambda fn: facts[fn.qualname].touches_poison,
            skip=lambda bare: bare in NON_CONFERRING)
        for qualname in sorted(graph.functions):
            fn = graph.functions[qualname]
            fact = facts[qualname]
            if fact.reads_data and fact.writes_data and qualname not in aware:
                yield self.finding(
                    fn.module, fn.node,
                    f"{qualname} moves functional line data but "
                    f"never propagates or checks poison; thread the "
                    f"source's poison state to the destination")
