"""Shared whole-program call-graph IR for interprocedural rules.

The poison-taint pass (MC2301), the fork-safety (MC24xx) family and
the same-cycle race rules (MC26xx) all need a function walker and a
call map, so it lives here once.  The IR is deliberately lightweight
— no types, no dataflow lattice — because the simulator codebase's
uniform method-call style makes conservative name matching precise
enough in practice:

* every function/method in the analyzed modules becomes a
  :class:`FunctionNode` carrying syntactic **facts** (module-global
  writes, ambient environment reads, global-RNG use, instance-state
  accesses, scheduling sites) collected in one AST walk;
* call sites resolve in priority order — same-module functions, names
  imported ``from X import f``, module attributes ``mod.f`` (via the
  import map), class constructors (``Cls()`` edges to
  ``Cls.__init__``) — and fall back to **bare-name matching** for
  method calls, the same sound over-approximation MC2301 shipped with;
* :meth:`CallGraph.reachable` computes the transitive closure from a
  root set (e.g. every ``SimPoint``-dispatched worker function), and
  :meth:`CallGraph.propagate_up` runs the generic callee->caller
  fixed point the taint pass uses for poison awareness.

Over-approximate reachability means the interprocedural rules may
reach more functions than a real execution would; rules compensate by
only flagging *facts* (an actual global write, an actual env read), so
a false edge alone never produces a finding on clean code.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set

from repro.analysis.core import Module, module_imports

#: Call names whose results are freshly-allocated mutable containers
#: (or stateful iterators — ``itertools.count`` burned us in
#: ``sim.packet``); a module-level name bound to one is shared mutable
#: state.
MUTABLE_FACTORIES = {"list", "dict", "set", "bytearray", "deque",
                     "defaultdict", "OrderedDict", "Counter", "count",
                     "cycle", "chain", "iter"}

#: ``random.<fn>`` calls that consume the process-global RNG stream
#: (MC2002 in a module, MC2402 on a worker path).
GLOBAL_RANDOM_FNS = {
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "normalvariate", "betavariate",
    "expovariate", "getrandbits", "seed",
}


@dataclass
class CallSite:
    """One call expression inside a function body."""

    node: ast.Call
    bare: str                  # rightmost name: ``obj.read_line`` -> "read_line"
    dotted: str = ""           # best-effort source text, e.g. "os.environ.get"
    is_method: bool = False    # attribute call (``x.f()``) vs plain name (``f()``)


@dataclass
class ScheduleSite:
    """One ``sim.schedule`` / ``sim.schedule_at`` call.

    The race rules (MC26xx) reason about which callbacks can fire at
    the same cycle and in which engine phase, so the site records the
    statically-recoverable scheduling shape: how far in the future the
    event lands (``delay_kind``), the dispatch ``phase`` (``None`` when
    the phase expression is not a constant), and the *handler* the
    event will invoke, resolved through the common callback idioms —
    ``self._meth`` bound methods, local nested ``def`` names, and
    ``lambda: obj.meth(...)`` trampolines.
    """

    node: ast.Call
    method: str                # "schedule" | "schedule_at"
    delay_kind: str            # "zero" | "const:<n>" | "dynamic"
    phase: Optional[int]       # constant phase, or None when dynamic
    handler: str               # bare handler name ("" when unresolvable)
    handler_kind: str          # "method" | "local" | "lambda-method" | "lambda" | "unknown"
    label: str = ""


#: Attribute-write kinds recorded in ``FunctionNode.attr_writes``.
ATTR_ASSIGN = "assign"         # self.x = ...
ATTR_AUGADD = "augadd"         # self.x += ... (commutative-looking RMW)
ATTR_AUGOTHER = "augother"     # self.x -= / *= / ... (other RMW)
ATTR_MUTATE = "mutate"         # self.x.append(...) etc.
ATTR_SUBSCRIPT = "subscript"   # self.x[k] = ...


@dataclass
class FunctionNode:
    """One function or method plus the syntactic facts rules consume."""

    qualname: str              # "repro.mem.backing_store.BackingStore.copy"
    name: str                  # bare function name
    module: Module
    node: ast.AST              # the FunctionDef / AsyncFunctionDef
    class_name: str = ""       # enclosing class bare name ("" for free fns)
    parent: str = ""           # qualname of the enclosing function ("" at top)
    calls: List[CallSite] = field(default_factory=list)

    # Facts (node lists so rules can anchor findings precisely).
    global_writes: Dict[str, List[ast.AST]] = field(default_factory=dict)
    env_reads: List[ast.AST] = field(default_factory=list)
    rng_calls: List[ast.AST] = field(default_factory=list)

    # Instance-state facts for the same-cycle race rules (MC26xx):
    # accesses through the literal ``self`` receiver, keyed by attribute
    # name.  Writes carry an access kind (ATTR_* above).
    attr_writes: Dict[str, List[tuple]] = field(default_factory=dict)
    attr_reads: Dict[str, List[ast.AST]] = field(default_factory=dict)
    # Event-scheduling sites inside this function.
    schedule_sites: List[ScheduleSite] = field(default_factory=list)
    # ``d[... sim.now ...] = v`` stores (MC2602 order-escape rule).
    now_key_stores: List[ast.AST] = field(default_factory=list)
    # ``<stat>.value`` read-modify-writes outside the stats module
    # (MC2603); each entry is ``(node, dotted_target)``.
    stat_value_rmw: List[tuple] = field(default_factory=list)

    @property
    def is_nested(self) -> bool:
        """Defined inside another function (a closure when dispatched)."""
        return bool(self.parent)


def module_mutable_globals(module: Module) -> Set[str]:
    """Names bound at module level to mutable container expressions.

    These are the globals whose *in-place* mutation from a forked
    worker silently diverges from a serial run: the parent never sees
    the write.  Immutable rebindings are caught separately through the
    ``global`` statement.
    """
    out: Set[str] = set()
    for stmt in module.tree.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        if value is None:
            continue
        mutable = isinstance(value, (ast.List, ast.Dict, ast.Set,
                                     ast.ListComp, ast.DictComp, ast.SetComp))
        if (not mutable and isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)):
            mutable = value.func.id in MUTABLE_FACTORIES
        if (not mutable and isinstance(value, ast.Call)
                and isinstance(value.func, ast.Attribute)):
            mutable = value.func.attr in MUTABLE_FACTORIES
        if mutable:
            for target in targets:
                if isinstance(target, ast.Name):
                    out.add(target.id)
    return out


#: Method names that mutate their receiver in place.
_MUTATOR_METHODS = {
    "append", "extend", "insert", "add", "update", "setdefault", "pop",
    "popitem", "popleft", "remove", "discard", "clear", "sort", "reverse",
    "appendleft", "extendleft",
}


def _is_env_read(node: ast.AST) -> bool:
    """``os.environ[...]`` / ``os.environ.get(...)`` / ``os.getenv(...)``.

    Only the Call and Subscript forms are counted so one read is one
    fact (the inner ``os.environ`` attribute node is not re-counted).
    """
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        return _dotted(node.func) in ("os.environ.get", "os.getenv",
                                      "environ.get", "getenv")
    if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
        return _dotted(node.value) in ("os.environ", "environ")
    return False


def _dotted(node: ast.AST) -> str:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    else:
        parts.append("?")
    return ".".join(reversed(parts))


def _contains_now(node: ast.AST) -> bool:
    """True when the subtree reads a ``.now`` attribute (``sim.now``)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and sub.attr == "now" \
                and isinstance(sub.ctx, ast.Load):
            return True
    return False


def _resolve_handler(arg: ast.AST) -> tuple:
    """``(bare name, kind)`` for a schedule-call callback argument."""
    if isinstance(arg, ast.Attribute):
        return arg.attr, "method"
    if isinstance(arg, ast.Name):
        return arg.id, "local"
    if isinstance(arg, ast.Lambda):
        # The dominant trampoline shape: ``lambda: obj.meth(...)`` —
        # resolve to the innermost called method so the race rules see
        # through the closure.
        for sub in ast.walk(arg.body):
            if isinstance(sub, ast.Call):
                if isinstance(sub.func, ast.Attribute):
                    return sub.func.attr, "lambda-method"
                if isinstance(sub.func, ast.Name):
                    return sub.func.id, "lambda-method"
        return "<lambda>", "lambda"
    return "", "unknown"


def _schedule_site(node: ast.Call, bare: str, dotted: str,
                   ) -> Optional[ScheduleSite]:
    """Build a :class:`ScheduleSite` when ``node`` schedules an event.

    Recognizes ``<recv>.sim.schedule(...)`` / ``sim.schedule(...)`` and
    the ``schedule_at`` variant; other methods that happen to be named
    ``schedule`` (none in this codebase) would need a ``sim`` receiver
    to match, keeping the extraction precise.
    """
    if bare not in ("schedule", "schedule_at"):
        return None
    parts = dotted.split(".")
    if len(parts) < 2 or parts[-2] != "sim":
        return None
    if not node.args:
        return None
    when = node.args[0]
    if bare == "schedule" and isinstance(when, ast.Constant) \
            and isinstance(when.value, int):
        delay_kind = "zero" if when.value == 0 else f"const:{when.value}"
    else:
        # schedule_at targets an arbitrary cycle; without value tracking
        # it may land on the current one, so it is "dynamic" like any
        # computed delay.
        delay_kind = "dynamic"
    handler, handler_kind = ("", "unknown")
    if len(node.args) > 1:
        handler, handler_kind = _resolve_handler(node.args[1])
    # schedule(delay, callback, label, phase): the label and the phase
    # may come by position or by keyword.
    label_arg = node.args[2] if len(node.args) > 2 else None
    phase_arg = node.args[3] if len(node.args) > 3 else None
    for kw in node.keywords:
        if kw.arg == "phase":
            phase_arg = kw.value
        elif kw.arg == "label":
            label_arg = kw.value
    phase: Optional[int] = 0
    if phase_arg is not None:
        phase = (phase_arg.value
                 if isinstance(phase_arg, ast.Constant)
                 and isinstance(phase_arg.value, int) else None)
    label = ""
    if isinstance(label_arg, ast.Constant) \
            and isinstance(label_arg.value, str):
        label = label_arg.value
    return ScheduleSite(node=node, method=bare, delay_kind=delay_kind,
                        phase=phase, handler=handler,
                        handler_kind=handler_kind, label=label)


def _collect_facts(fn: FunctionNode, imports: Dict[str, str],
                   mutable_globals: Set[str]) -> None:
    """One walk over ``fn``'s full subtree (nested defs included).

    Nested functions get their own :class:`FunctionNode`, but their
    facts and call sites are *also* attributed to the enclosing
    function: workload code routinely does its work inside a nested
    ``program()`` generator handed to ``system.run_program``, an
    indirect call no static graph can trace — subtree attribution is
    what keeps such functions on the worker-reachability closure.
    Rules de-duplicate the doubly-attributed fact nodes
    (:func:`innermost_facts`).
    """
    declared_global: Set[str] = set()
    local_names: Set[str] = set()

    # First pass: local bindings, so a local list named like a module
    # global is not mistaken for shared state.
    for node in walk_body(fn.node):
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            local_names.add(node.id)
    args = getattr(fn.node, "args", None)
    if isinstance(args, ast.arguments):
        for a in (list(args.posonlyargs) + list(args.args)
                  + list(args.kwonlyargs)):
            local_names.add(a.arg)
        if args.vararg:
            local_names.add(args.vararg.arg)
        if args.kwarg:
            local_names.add(args.kwarg.arg)
    # A name both declared global and stored is a rebinding write.
    shadowed = (local_names - declared_global)

    def refers_to_global(name: str) -> bool:
        if name in declared_global:
            return True
        return name in mutable_globals and name not in shadowed

    for node in walk_body(fn.node):
        if isinstance(node, ast.Call):
            func = node.func
            bare = ""
            dotted = ""
            is_method = False
            if isinstance(func, ast.Attribute):
                bare = func.attr
                dotted = _dotted(func)
                is_method = True
            elif isinstance(func, ast.Name):
                bare = func.id
                dotted = func.id
            if bare:
                fn.calls.append(CallSite(node=node, bare=bare,
                                         dotted=dotted, is_method=is_method))
                site = _schedule_site(node, bare, dotted)
                if site is not None:
                    fn.schedule_sites.append(site)
            # In-place mutation of instance state: self.x.append(...).
            if (isinstance(func, ast.Attribute)
                    and func.attr in _MUTATOR_METHODS
                    and isinstance(func.value, ast.Attribute)
                    and isinstance(func.value.value, ast.Name)
                    and func.value.value.id == "self"):
                fn.attr_writes.setdefault(func.value.attr, []).append(
                    (node, ATTR_MUTATE))
            # next(counter) advances a module-global iterator in place.
            if (isinstance(func, ast.Name) and func.id == "next"
                    and node.args
                    and isinstance(node.args[0], ast.Name)
                    and refers_to_global(node.args[0].id)):
                fn.global_writes.setdefault(
                    node.args[0].id, []).append(node)
            # Mutating method on a module-level mutable global.
            if (isinstance(func, ast.Attribute)
                    and func.attr in _MUTATOR_METHODS
                    and isinstance(func.value, ast.Name)
                    and refers_to_global(func.value.id)):
                fn.global_writes.setdefault(func.value.id, []).append(node)
            # Process-global RNG stream.
            if (isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and imports.get(func.value.id) == "random"
                    and func.value.id not in shadowed
                    and func.attr in GLOBAL_RANDOM_FNS):
                fn.rng_calls.append(node)
        if _is_env_read(node):
            fn.env_reads.append(node)
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and isinstance(node.ctx, ast.Load)):
            fn.attr_reads.setdefault(node.attr, []).append(node)
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            if isinstance(node, ast.AugAssign):
                aug_kind = (ATTR_AUGADD if isinstance(node.op, ast.Add)
                            else ATTR_AUGOTHER)
            else:
                aug_kind = ATTR_ASSIGN
            for target in targets:
                # Instance-state writes through the literal ``self``.
                if (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    fn.attr_writes.setdefault(target.attr, []).append(
                        (node, aug_kind))
                elif (isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Attribute)
                        and isinstance(target.value.value, ast.Name)
                        and target.value.value.id == "self"):
                    fn.attr_writes.setdefault(
                        target.value.attr, []).append((node, ATTR_SUBSCRIPT))
                # ``<stat>.value`` read-modify-write (MC2603 fact).
                if (isinstance(node, ast.AugAssign)
                        and isinstance(target, ast.Attribute)
                        and target.attr == "value"):
                    fn.stat_value_rmw.append((node, _dotted(target)))
                # ``d[... sim.now ...] = v`` (MC2602 fact).
                if (isinstance(target, ast.Subscript)
                        and _contains_now(target.slice)):
                    fn.now_key_stores.append(node)
            for target in targets:
                # Rebinding a declared-global name.
                if (isinstance(target, ast.Name)
                        and target.id in declared_global):
                    fn.global_writes.setdefault(target.id, []).append(node)
                # Subscript/attribute store into a module-level mutable.
                elif (isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Name)
                        and refers_to_global(target.value.id)):
                    fn.global_writes.setdefault(
                        target.value.id, []).append(node)


def walk_body(fn_node: ast.AST) -> Iterable[ast.AST]:
    """Every node below the def line (the full subtree, decorators too)."""
    for child in ast.iter_child_nodes(fn_node):
        yield from ast.walk(child)


def innermost_facts(graph: "CallGraph", reached: Iterable[str],
                    fact_of: Callable[[FunctionNode],
                                      Iterable[tuple]],
                    ) -> List["AttributedFact"]:
    """De-duplicate subtree-attributed facts across nesting levels.

    ``fact_of`` yields ``(ast node, label)`` pairs.  A fact node inside
    a nested def is attributed both to the nested function and to every
    enclosing one; report it once, against the innermost *reached*
    function (longest qualname wins).
    """
    best: Dict[int, AttributedFact] = {}
    for qualname in reached:
        fn = graph.functions.get(qualname)
        if fn is None:
            continue
        for node, label in fact_of(fn):
            prior = best.get(id(node))
            if prior is None or len(fn.qualname) > len(prior.fn.qualname):
                best[id(node)] = AttributedFact(fn=fn, node=node, label=label)
    ordered = sorted(best.values(),
                     key=lambda f: (f.fn.module.path,
                                    getattr(f.node, "lineno", 0),
                                    getattr(f.node, "col_offset", 0)))
    return ordered


@dataclass
class AttributedFact:
    """One fact node paired with the function it is reported against."""

    fn: FunctionNode
    node: ast.AST
    label: str = ""


class CallGraph:
    """Functions, classes and call edges for a set of parsed modules."""

    def __init__(self) -> None:
        self.functions: Dict[str, FunctionNode] = {}
        self.by_name: Dict[str, List[FunctionNode]] = {}
        #: class qualname -> list of method FunctionNodes
        self.classes: Dict[str, List[FunctionNode]] = {}
        #: class bare name -> class qualnames (for Cls() constructor edges)
        self.class_names: Dict[str, List[str]] = {}
        #: class qualname -> base-class bare names (for role inheritance)
        self.class_bases: Dict[str, List[str]] = {}
        self.imports: Dict[str, Dict[str, str]] = {}   # module path -> import map

    # -- construction ------------------------------------------------------
    @classmethod
    def build(cls, modules: Sequence[Module],
              packages: Optional[Sequence[str]] = None) -> "CallGraph":
        """Build the graph over ``modules``.

        ``packages`` restricts collection to modules whose dotted name
        matches one of the prefixes (the taint pass scopes itself to
        the poison-critical packages this way).
        """
        graph = cls()
        for module in modules:
            if packages is not None and not any(
                    module.package == pkg
                    or module.package.startswith(pkg + ".")
                    for pkg in packages):
                continue
            graph._add_module(module)
        return graph

    def _add_module(self, module: Module) -> None:
        imports = module_imports(module.tree)
        mutable = module_mutable_globals(module)
        self.imports[module.path] = imports

        def walk(body, prefix: str, class_name: str, parent_fn: str) -> None:
            for node in body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = f"{prefix}.{node.name}"
                    fn = FunctionNode(qualname=qualname, name=node.name,
                                      module=module, node=node,
                                      class_name=class_name,
                                      parent=parent_fn)
                    _collect_facts(fn, imports, mutable)
                    self.functions[qualname] = fn
                    self.by_name.setdefault(node.name, []).append(fn)
                    if class_name:
                        self.classes.setdefault(prefix, []).append(fn)
                    walk(node.body, qualname, "", qualname)
                elif isinstance(node, ast.ClassDef):
                    class_qual = f"{prefix}.{node.name}"
                    self.class_names.setdefault(node.name, []).append(
                        class_qual)
                    self.class_bases[class_qual] = [
                        base.id if isinstance(base, ast.Name)
                        else base.attr if isinstance(base, ast.Attribute)
                        else "?"
                        for base in node.bases]
                    walk(node.body, class_qual, node.name, parent_fn)

        walk(module.tree.body, module.package, "", "")

    # -- resolution --------------------------------------------------------
    def resolve_call(self, caller: FunctionNode,
                     site: CallSite) -> List[FunctionNode]:
        """Possible targets of one call site, most precise rule first.

        Returns an empty list for calls into code outside the graph
        (stdlib, builtins) — absent knowledge is treated as "no facts",
        which is safe because rules flag facts, not edges.
        """
        imports = self.imports.get(caller.module.path, {})
        if not site.is_method:
            name = site.bare
            # Constructor: Cls() -> Cls.__init__ (same module or imported).
            for class_qual in self.class_names.get(name, ()):
                init = self.functions.get(f"{class_qual}.__init__")
                if init is not None:
                    return [init]
            # Same-module function.
            same = [fn for fn in self.by_name.get(name, ())
                    if fn.module.path == caller.module.path]
            if same:
                return same
            # from X import name
            origin = imports.get(name)
            if origin is not None:
                target = self.functions.get(origin)
                if target is not None:
                    return [target]
                # Imported class: edge to its __init__.
                init = self.functions.get(f"{origin}.__init__")
                if init is not None:
                    return [init]
            # Fall back: module-level functions with this bare name.
            return [fn for fn in self.by_name.get(name, ())
                    if not fn.class_name]
        # Method-style call: module attribute first (ops.compute -> the
        # repro.isa.ops.compute function), else bare-name matching.
        parts = site.dotted.split(".")
        if len(parts) == 2:
            origin = imports.get(parts[0])
            if origin is not None:
                target = self.functions.get(f"{origin}.{site.bare}")
                if target is not None:
                    return [target]
                init = self.functions.get(f"{origin}.{site.bare}.__init__")
                if init is not None:
                    return [init]
        return list(self.by_name.get(site.bare, ()))

    def resolve_handler(self, scheduler: FunctionNode,
                        site: ScheduleSite) -> List[FunctionNode]:
        """Functions a schedule site's callback may invoke.

        Same-class methods win (``self._meth`` and the overwhelmingly
        common ``lambda: self._meth(...)``); nested local defs resolve
        to their synthetic node under the scheduling function; anything
        else falls back to bare-name matching — the same sound
        over-approximation :meth:`resolve_call` uses.
        """
        if not site.handler or site.handler == "<lambda>":
            return []
        if site.handler_kind == "local":
            # Nested def: its qualname hangs off the enclosing function.
            for owner in (scheduler.qualname, scheduler.parent):
                if not owner:
                    continue
                target = self.functions.get(f"{owner}.{site.handler}")
                if target is not None:
                    return [target]
            return [fn for fn in self.by_name.get(site.handler, ())
                    if not fn.class_name]
        if scheduler.class_name:
            class_qual = scheduler.qualname.rsplit(".", 1)[0]
            target = self.functions.get(f"{class_qual}.{site.handler}")
            if target is not None:
                return [target]
        return list(self.by_name.get(site.handler, ()))

    # -- queries -----------------------------------------------------------
    def reachable(self, roots: Iterable[FunctionNode],
                  skip: Optional[Callable[[str], bool]] = None,
                  ) -> Dict[str, List[str]]:
        """Transitive closure from ``roots`` over resolved call edges.

        Returns ``{reached qualname: [path of qualnames from a root]}``
        so rules can explain *why* a function is on a worker path.
        ``skip(bare_name)`` prunes edges (e.g. the taint pass's
        non-conferring primitives).
        """
        out: Dict[str, List[str]] = {}
        stack: List[FunctionNode] = []
        for root in roots:
            if root.qualname not in out:
                out[root.qualname] = [root.qualname]
                stack.append(root)
        while stack:
            fn = stack.pop()
            for site in fn.calls:
                if skip is not None and skip(site.bare):
                    continue
                for target in self.resolve_call(fn, site):
                    if target.qualname in out:
                        continue
                    out[target.qualname] = (out[fn.qualname]
                                            + [target.qualname])
                    stack.append(target)
        return out

    def propagate_up(self, seed: Callable[[FunctionNode], bool],
                     skip: Optional[Callable[[str], bool]] = None,
                     ) -> Set[str]:
        """Callee->caller fixed point over **bare-name** edges.

        A function holds the property when ``seed`` says so or when any
        bare-name callee (minus ``skip``-ped names) holds it — exactly
        the over-approximation the MC2301 awareness walk uses, hoisted
        here so every interprocedural rule shares one implementation.
        """
        holds: Set[str] = {fn.qualname for fn in self.functions.values()
                           if seed(fn)}
        changed = True
        while changed:
            changed = False
            for fn in self.functions.values():
                if fn.qualname in holds:
                    continue
                for site in fn.calls:
                    if skip is not None and skip(site.bare):
                        continue
                    if any(t.qualname in holds
                           for t in self.by_name.get(site.bare, ())):
                        holds.add(fn.qualname)
                        changed = True
                        break
        return holds


class ProjectContext:
    """Whole-program facts shared by every interprocedural rule.

    The engine builds one context per run and hands it to each project
    rule, so the full call graph and the worker-reachability closure
    are computed once, not once per rule family.  Everything is lazy —
    a run selecting only syntactic rules never builds the graph.
    """

    def __init__(self, modules: Sequence[Module]):
        self.modules = list(modules)
        self._graph: Optional[CallGraph] = None
        self._workers: Optional[Dict[str, List[ast.Call]]] = None
        self._reached: Optional[Dict[str, List[str]]] = None
        self._handlers: Optional[Dict[str, List[tuple]]] = None

    @property
    def graph(self) -> CallGraph:
        """Call graph over every analyzed module."""
        if self._graph is None:
            self._graph = CallGraph.build(self.modules)
        return self._graph

    @property
    def workers(self) -> Dict[str, List[ast.Call]]:
        """``SimPoint``-dispatched functions: qualname -> call sites."""
        if self._workers is None:
            self._workers = worker_roots(self.modules, self.graph)
        return self._workers

    @property
    def reached(self) -> Dict[str, List[str]]:
        """Worker-reachability closure: qualname -> path from a root."""
        if self._reached is None:
            roots = [self.graph.functions[q] for q in sorted(self.workers)
                     if q in self.graph.functions]
            self._reached = self.graph.reachable(roots)
        return self._reached

    @property
    def handlers(self) -> Dict[str, List[tuple]]:
        """Event handlers: handler qualname -> [(scheduler, site)].

        A *handler* is any function some schedule site's callback
        resolves to — the set of code that the engine may dispatch at
        an arbitrary tie-break position.  The MC26xx race rules pair
        handlers of one class against each other through this map.
        """
        if self._handlers is None:
            out: Dict[str, List[tuple]] = {}
            for fn in self.graph.functions.values():
                for site in fn.schedule_sites:
                    for target in self.graph.resolve_handler(fn, site):
                        out.setdefault(target.qualname, []).append(
                            (fn, site))
            self._handlers = out
        return self._handlers

    def route(self, qualname: str) -> str:
        """Human-readable worker path, e.g. ``sweep -> run -> helper``."""
        path = self.reached.get(qualname, [qualname])
        return " -> ".join(q.rsplit(".", 1)[-1] for q in path)


def worker_roots(modules: Sequence[Module],
                 graph: CallGraph) -> Dict[str, List[ast.Call]]:
    """Functions dispatched through ``SimPoint(fn, ...)``.

    Scans every module (not just graph members) for ``SimPoint``
    constructions and resolves the first argument to graph functions.
    Returns ``{qualname: [SimPoint call nodes]}`` — the roots of every
    worker/cached execution path.
    """
    roots: Dict[str, List[ast.Call]] = {}
    for module in modules:
        imports = module_imports(module.tree)
        for node in ast.walk(module.tree):
            if not (isinstance(node, ast.Call) and node.args):
                continue
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute)
                    else "")
            if name != "SimPoint":
                continue
            target = node.args[0]
            if isinstance(target, ast.Name):
                origin = imports.get(target.id)
                candidates = []
                if origin is not None and origin in graph.functions:
                    candidates = [graph.functions[origin]]
                else:
                    candidates = [fn for fn in graph.by_name.get(
                        target.id, ()) if not fn.class_name]
                for fn in candidates:
                    roots.setdefault(fn.qualname, []).append(node)
            elif isinstance(target, ast.Attribute):
                dotted = _dotted(target)
                root_name = dotted.split(".")[0]
                origin = imports.get(root_name)
                qual = (f"{origin}.{target.attr}" if origin is not None
                        else dotted)
                if qual in graph.functions:
                    roots.setdefault(qual, []).append(node)
                else:
                    for fn in graph.by_name.get(target.attr, ()):
                        roots.setdefault(fn.qualname, []).append(node)
    return roots
