"""Command-line driver: ``python -m repro.analysis`` / ``mc2-analyze``.

Exit codes: 0 — clean (no active findings); 1 — active findings; 2 —
usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.analysis import engine
from repro.analysis import baseline as baseline_mod
from repro.analysis.core import all_rules
from repro.common.errors import ConfigError

DEFAULT_BASELINE = "analysis-baseline.json"


def _default_paths() -> List[str]:
    """``src/repro`` relative to cwd, else the installed package dir."""
    candidate = os.path.join("src", "repro")
    if os.path.isdir(candidate):
        return [candidate]
    return [os.path.dirname(os.path.dirname(os.path.abspath(__file__)))]


def _emit(text: str, output: Optional[str]) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _text_report(report: engine.Report, show_suppressed: bool) -> str:
    lines: List[str] = []
    for finding in report.findings:
        if finding.suppressed and not show_suppressed:
            continue
        tag = ""
        if finding.suppressed:
            tag = " [suppressed]"
        elif finding.baselined:
            tag = " [baselined]"
        lines.append(f"{finding.location()}: {finding.rule} "
                     f"{finding.message}{tag}")
        if finding.snippet:
            lines.append(f"    {finding.snippet}")
    active = len(report.active)
    lines.append(
        f"{report.files_analyzed} files analyzed: {active} finding(s)"
        + (f", {len(report.baselined)} baselined" if report.baselined else "")
        + (f", {len(report.suppressed)} suppressed"
           if report.suppressed else ""))
    return "\n".join(lines) + "\n"


def _json_report(report: engine.Report, stats: bool = False) -> str:
    payload = {
        "files_analyzed": report.files_analyzed,
        "ok": report.ok,
        "findings": [
            {
                "rule": f.rule, "message": f.message, "path": f.path,
                "line": f.line, "col": f.col, "snippet": f.snippet,
                "suppressed": f.suppressed, "baselined": f.baselined,
            }
            for f in report.findings
        ],
    }
    if stats:
        payload["stats"] = {
            code: {"seconds": entry["seconds"],
                   "findings": int(entry["findings"])}
            for code, entry in report.rule_stats.items()
        }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _stats_table(report: engine.Report) -> str:
    """Per-rule cost table, slowest rule first."""
    lines = ["per-rule stats (wall time, raw findings):"]
    entries = sorted(report.rule_stats.items(),
                     key=lambda kv: (-kv[1]["seconds"], kv[0]))
    for code, entry in entries:
        lines.append(f"  {code}  {entry['seconds'] * 1000.0:8.2f} ms  "
                     f"{int(entry['findings']):4d} finding(s)")
    total = sum(e["seconds"] for e in report.rule_stats.values())
    lines.append(f"  total rule time: {total * 1000.0:.2f} ms")
    return "\n".join(lines) + "\n"


def _diff_report(report: engine.Report, known, output: Optional[str]) -> int:
    """Print the baseline delta; exit 1 only on *new* findings.

    The delta is the reviewable unit for a pull request: ``+`` lines
    are findings this change introduces, ``-`` lines are baseline
    entries the change paid off (drop them with ``--write-baseline``).
    """
    new, fixed = baseline_mod.diff(report.findings, known)
    lines: List[str] = []
    for finding in new:
        lines.append(f"+ {finding.location()}: {finding.rule} "
                     f"{finding.message}")
        if finding.snippet:
            lines.append(f"      {finding.snippet}")
    for entry in fixed:
        lines.append(f"- {entry.get('path', '?')}: {entry.get('rule', '?')} "
                     f"(baseline entry no longer matches)")
    lines.append(f"baseline diff: {len(new)} new finding(s), "
                 f"{len(fixed)} fixed baseline entr"
                 f"{'y' if len(fixed) == 1 else 'ies'}")
    _emit("\n".join(lines) + "\n", output)
    return 1 if new else 0


def _list_rules() -> str:
    lines = []
    for rule in all_rules():
        lines.append(f"{rule.code}  {rule.name:<22} {rule.summary}")
    return "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mc2-analyze",
        description="Simulator-invariant static analyzer for the (MC)^2 "
                    "reproduction: determinism lint, event-safety rules, "
                    "poison-taint completeness.")
    parser.add_argument(
        "paths", nargs="*", help="files or directories "
        "(default: src/repro)")
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)")
    parser.add_argument(
        "--output", metavar="FILE", default=None,
        help="write the report to FILE instead of stdout")
    parser.add_argument(
        "--baseline", metavar="FILE", default=None,
        help=f"baseline of grandfathered findings "
             f"(default: {DEFAULT_BASELINE} when present)")
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="record current findings into the baseline file and exit 0")
    parser.add_argument(
        "--diff", action="store_true",
        help="compare findings against the baseline and print the delta: "
             "exit 1 only when *new* findings (absent from the baseline) "
             "exist; also lists baseline entries that no longer match")
    parser.add_argument(
        "--exclude", metavar="PATH", action="append", default=[],
        help="file or directory prefix to skip (repeatable); used to "
             "carve planted sanitizer fixtures out of a lint sweep")
    parser.add_argument(
        "--select", metavar="CODES", default=None,
        help="comma-separated rule codes to run (default: all)")
    parser.add_argument(
        "--show-suppressed", action="store_true",
        help="include noqa-suppressed findings in the text report")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit")
    parser.add_argument(
        "--stats", action="store_true",
        help="append per-rule wall time and raw finding counts to the "
             "report (text: a table; json: a 'stats' key)")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Run the analyzer CLI; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        sys.stdout.write(_list_rules())
        return 0

    paths = args.paths or _default_paths()

    baseline_path = args.baseline
    if baseline_path is None and os.path.exists(DEFAULT_BASELINE):
        baseline_path = DEFAULT_BASELINE
    select = (args.select.split(",") if args.select else None)

    try:
        report = engine.run(paths, baseline_path=baseline_path,
                            select=select, exclude=args.exclude)
        if args.diff:
            known = baseline_mod.load(args.baseline or DEFAULT_BASELINE)
            return _diff_report(report, known, args.output)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.write_baseline:
        target = args.baseline or DEFAULT_BASELINE
        count = baseline_mod.save(
            target, [f for f in report.findings if not f.suppressed])
        print(f"wrote {count} fingerprint(s) to {target}")
        return 0

    if args.format == "json":
        _emit(_json_report(report, stats=args.stats), args.output)
    else:
        text = _text_report(report, args.show_suppressed)
        if args.stats:
            text += _stats_table(report)
        _emit(text, args.output)
    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
