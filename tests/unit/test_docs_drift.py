"""docs/ANALYSIS.md must track the live rule registry.

The rule catalogue in the doc is hand-written; this test holds it to
``mc2-analyze --list-rules`` so a rule added, renamed, or reworded in
code cannot silently drift from its documentation.  Every other file
that names analyzer codes (the README, DESIGN.md, the other docs, and
the ``--select`` lists in the Makefile and CI) may name only registered
codes, so a retired rule cannot linger in prose or in a lint step.
"""

import re
from pathlib import Path

from repro.analysis.core import all_rules

ROOT = Path(__file__).resolve().parents[2]
DOC = ROOT / "docs" / "ANALYSIS.md"
#: Files that name analyzer codes in prose or in ``--select`` lists.
CODE_MENTIONS = [ROOT / "README.md", ROOT / "DESIGN.md",
                 *sorted((ROOT / "docs").glob("*.md")),
                 ROOT / "Makefile", ROOT / ".github" / "workflows" / "ci.yml"]
#: The parse-failure code: reported by the engine, not by a rule.
PARSE_FAILURE = "MC2000"

#: | MC2601 | same-cycle-race | two same-phase handlers ... |
_TABLE_ROW = re.compile(r"^\|\s*(MC\d{4})\s*\|\s*([a-z0-9-]+)\s*\|\s*(.+?)\s*\|\s*$")
#: **MC2401 fork-global-write** — ...
_BOLD_ENTRY = re.compile(r"\*\*(MC\d{4})\s+([a-z0-9-]+)\*\*")
_ANY_CODE = re.compile(r"\bMC\d{4}\b")


def _normalize(text: str) -> str:
    # Markdown adds backticks and spacing around code spans; compare
    # the bare characters.
    return "".join(text.replace("`", "").split())


def _doc_entries():
    table, bold = {}, {}
    for line in DOC.read_text().splitlines():
        row = _TABLE_ROW.match(line)
        if row:
            table[row.group(1)] = (row.group(2), _normalize(row.group(3)))
        for code, name in _BOLD_ENTRY.findall(line):
            bold[code] = name
    return table, bold


def test_every_rule_is_documented():
    table, bold = _doc_entries()
    documented = set(table) | set(bold)
    registry = {rule.code for rule in all_rules()}
    missing = registry - documented
    assert not missing, f"rules absent from docs/ANALYSIS.md: {sorted(missing)}"


def test_doc_mentions_no_unknown_rules():
    registry = {rule.code for rule in all_rules()} | {PARSE_FAILURE}
    assert DOC in CODE_MENTIONS
    for path in CODE_MENTIONS:
        # Prose may reference families as MC2xxx; only concrete codes count.
        unknown = set(_ANY_CODE.findall(path.read_text())) - registry
        assert not unknown, (f"{path.relative_to(ROOT)} references "
                             f"unregistered rules: {sorted(unknown)}")


def test_table_rows_match_registry_name_and_summary():
    table, bold = _doc_entries()
    by_code = {rule.code: rule for rule in all_rules()}
    for code, (name, summary) in table.items():
        rule = by_code[code]
        assert name == rule.name, f"{code}: doc name {name!r} != {rule.name!r}"
        assert summary == _normalize(rule.summary), \
            f"{code}: doc summary drifted from registry"
    for code, name in bold.items():
        assert name == by_code[code].name, \
            f"{code}: doc name {name!r} != {by_code[code].name!r}"
