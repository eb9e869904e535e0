"""Analyzer driver: collect files, parse once, run every rule.

Splitting policy from mechanism: rules (:mod:`repro.analysis.rules`)
know what to look for, this module knows how to walk a source tree,
share parsed ASTs, apply ``# noqa`` suppressions and the baseline, and
decide the gate verdict.
"""

from __future__ import annotations

import ast
import os
import time
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Sequence

from repro.analysis import baseline as baseline_mod
from repro.analysis import noqa
from repro.analysis.callgraph import ProjectContext
from repro.analysis.core import Finding, Module, all_rules
from repro.common.errors import ConfigError

#: Directory basenames never analyzed.
SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", "build", "dist"}


def _guess_package(path: str) -> str:
    """Dotted module name from a file path (best effort).

    ``src/repro/sim/engine.py`` -> ``repro.sim.engine``; falls back to
    the stem when no ``repro`` component is present.
    """
    parts = os.path.normpath(path).split(os.sep)
    stem = parts[-1][:-3] if parts[-1].endswith(".py") else parts[-1]
    if "repro" in parts[:-1]:
        anchor = parts.index("repro")
        dotted = parts[anchor:-1] + ([] if stem == "__init__" else [stem])
        return ".".join(dotted)
    return stem


def _is_excluded(path: str, exclude: Sequence[str]) -> bool:
    norm = os.path.normpath(path)
    for prefix in exclude:
        pref = os.path.normpath(prefix)
        if norm == pref or norm.startswith(pref + os.sep):
            return True
    return False


def collect_files(paths: Sequence[str],
                  exclude: Sequence[str] = ()) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files.

    ``exclude`` lists file or directory prefixes to drop — e.g. planted
    sanitizer fixtures that *intentionally* violate the rules.
    """
    out: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            out.append(path)
        elif os.path.isdir(path):
            for root, dirs, names in os.walk(path):
                dirs[:] = sorted(d for d in dirs if d not in SKIP_DIRS)
                for name in sorted(names):
                    if name.endswith(".py"):
                        out.append(os.path.join(root, name))
        else:
            raise ConfigError(f"no such file or directory: {path!r}")
    out = [p for p in out if not _is_excluded(p, exclude)]
    return sorted(dict.fromkeys(out))


def parse_modules(files: Iterable[str]) -> List[Module]:
    """Parse every file; syntax errors become MC2000 findings later."""
    modules: List[Module] = []
    for path in files:
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            # Surfaced by the driver as an MC2000 parse failure.
            bad = ast.Module(body=[], type_ignores=[])
            module = Module(path=path, source=source, tree=bad,
                            lines=source.splitlines(),
                            package=_guess_package(path))
            module.parse_error = exc  # type: ignore[attr-defined]
            modules.append(module)
            continue
        modules.append(Module(path=path, source=source, tree=tree,
                              lines=source.splitlines(),
                              package=_guess_package(path)))
    return modules


def _stale_suppressions(modules: List[Module],
                        tables: Dict[str, Dict[int, frozenset]],
                        findings: List[Finding],
                        ran_codes: set,
                        registered: set,
                        full_run: bool) -> List[Finding]:
    """MC2901: ``# noqa`` markers that suppress nothing on their line.

    A coded marker naming an analyzer code that no rule registers
    (``MC2000``, the parse-failure code, aside) can never suppress
    anything and is always flagged.  Otherwise the check is
    select-aware: a coded marker is stale only when every listed
    analyzer code actually ran this pass and none fired on the line;
    codes of other tools (``F401`` …) or un-run codes make the marker
    indeterminate and it is left alone.  A bare marker is stale only on
    a full-rule-set run with no finding of any kind on its line.
    """
    from repro.analysis.rules.hygiene import MC_CODE_RE

    fired: Dict[tuple, set] = {}
    for f in findings:
        fired.setdefault((f.path, f.line), set()).add(f.rule)

    out: List[Finding] = []
    for module in modules:
        for line, codes in sorted(tables.get(module.path, {}).items()):
            hits = fired.get((module.path, line), set())
            text = module.line_text(line)
            col = max(module.lines[line - 1].find("#"), 0) \
                if 1 <= line <= len(module.lines) else 0
            if codes is noqa.ALL or "*" in codes:
                if full_run and not hits:
                    out.append(Finding(
                        rule="MC2901",
                        message="bare '# noqa' suppresses nothing on this "
                                "line; delete it (or list the specific "
                                "codes it should suppress)",
                        path=module.path, line=line, col=col, snippet=text))
                continue
            mc_codes = {c for c in codes if MC_CODE_RE.match(c)}
            unknown = mc_codes - registered - {"MC2000"}
            if unknown:
                out.append(Finding(
                    rule="MC2901",
                    message=f"'# noqa: {', '.join(sorted(unknown))}' names "
                            f"no analyzer rule; delete or correct the code",
                    path=module.path, line=line, col=col, snippet=text))
                mc_codes -= unknown
            if not mc_codes or not mc_codes <= ran_codes:
                continue
            if not mc_codes & hits:
                listed = ", ".join(sorted(mc_codes))
                out.append(Finding(
                    rule="MC2901",
                    message=f"'# noqa: {listed}' suppresses nothing on "
                            f"this line; the finding it silenced is gone "
                            f"— delete the suppression",
                    path=module.path, line=line, col=col, snippet=text))
    return out


@dataclass
class Report:
    """Outcome of one analyzer run."""

    findings: List[Finding] = field(default_factory=list)
    files_analyzed: int = 0
    #: Per-rule cost accounting: code -> {"seconds": float,
    #: "findings": int} (raw counts, before suppression/baselining).
    rule_stats: Dict[str, Dict[str, float]] = field(default_factory=dict)

    @property
    def active(self) -> List[Finding]:
        """Findings that gate (not suppressed, not baselined)."""
        return [f for f in self.findings
                if not f.suppressed and not f.baselined]

    @property
    def suppressed(self) -> List[Finding]:
        return [f for f in self.findings if f.suppressed]

    @property
    def baselined(self) -> List[Finding]:
        return [f for f in self.findings if f.baselined]

    @property
    def ok(self) -> bool:
        """True when no active findings remain — the CI gate."""
        return not self.active


def run(paths: Sequence[str], baseline_path: Optional[str] = None,
        select: Optional[Sequence[str]] = None,
        exclude: Sequence[str] = ()) -> Report:
    """Analyze ``paths`` and return a :class:`Report`.

    ``select`` restricts to the given rule codes (all rules otherwise);
    ``exclude`` drops file/directory prefixes from collection.
    """
    files = collect_files(paths, exclude=exclude)
    modules = parse_modules(files)
    rules = all_rules()
    registered = {r.code for r in rules}
    if select:
        wanted = {code.upper() for code in select}
        unknown = wanted - registered
        if unknown:
            raise ConfigError(
                f"unknown rule code(s): {', '.join(sorted(unknown))}")
        rules = [r for r in rules if r.code in wanted]

    findings: List[Finding] = []
    stats: Dict[str, Dict[str, float]] = {
        rule.code: {"seconds": 0.0, "findings": 0} for rule in rules}

    def _run_rule(rule, produce) -> None:
        # Wall-clock reads here time the *analyzer's* rules for the
        # --stats table; this driver never runs on a simulation path.
        start = time.perf_counter()  # noqa: MC2001
        batch = list(produce)
        entry = stats[rule.code]
        entry["seconds"] += time.perf_counter() - start  # noqa: MC2001
        entry["findings"] += len(batch)
        findings.extend(batch)

    for module in modules:
        error = getattr(module, "parse_error", None)
        if error is not None:
            findings.append(Finding(
                rule="MC2000", message=f"syntax error: {error.msg}",
                path=module.path, line=error.lineno or 1,
                col=(error.offset or 1) - 1))
            entry = stats.setdefault("MC2000",
                                     {"seconds": 0.0, "findings": 0})
            entry["findings"] += 1
            continue
        for rule in rules:
            _run_rule(rule, rule.check_module(module))
    parsed = [m for m in modules if getattr(m, "parse_error", None) is None]
    project = ProjectContext(parsed)
    for rule in rules:
        _run_rule(rule, rule.check_project(project))

    # Per-line suppressions (tokenize-aware: strings containing
    # "# noqa" are data, not markers).
    tables = {m.path: noqa.suppressions(m.lines, source=m.source)
              for m in modules}

    # MC2901 post-pass: needs the raw findings *and* the marker table,
    # so it cannot run as a normal rule hook.
    if any(r.code == "MC2901" for r in rules):
        start = time.perf_counter()  # noqa: MC2001 (analyzer self-timing)
        stale = _stale_suppressions(
            parsed, tables, findings,
            ran_codes={r.code for r in rules} - {"MC2901"},
            registered=registered, full_run=select is None)
        entry = stats["MC2901"]
        entry["seconds"] += time.perf_counter() - start  # noqa: MC2001
        entry["findings"] += len(stale)
        findings.extend(stale)

    findings = [
        replace(f, suppressed=(
            # The marker MC2901 flags must not suppress its own
            # finding; a stale bare "# noqa" would otherwise
            # self-suppress and never gate.
            f.rule != "MC2901"
            and noqa.is_suppressed(f.rule, f.line, tables.get(f.path, {}))))
        for f in findings
    ]

    # Baseline.
    if baseline_path:
        known = baseline_mod.load(baseline_path)
        if known:
            findings = baseline_mod.apply(findings, known)

    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return Report(findings=findings, files_analyzed=len(files),
                  rule_stats=stats)
