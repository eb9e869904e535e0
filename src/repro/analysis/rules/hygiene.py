"""Suppression-hygiene rules (MC2901).

A ``# noqa`` that suppresses nothing is worse than dead code: it looks
like a reviewed, justified exception while actually masking whatever
finding lands on that line next.  MC2901 keeps suppressions honest —
every one must currently earn its keep.

The check needs the full finding set *before* suppressions are applied,
so it runs as an engine post-pass (:func:`repro.analysis.engine.run`)
rather than through the normal rule hooks; the class below exists so
the code appears in the catalogue and ``--select`` like any other
rule.

Semantics (select-aware, so partial runs never cry wolf):

* a **coded** ``# noqa: MC2xxx[, ...]`` naming a code no rule registers
  (a typo, or a retired rule) is always flagged — it can never suppress
  anything; ``MC2000``, the parse-failure code, is exempt;
* otherwise a coded marker is stale when every listed analyzer code was
  actually run this pass and none of them produced a finding on that
  line; codes belonging to other tools (``F401``, ``E501`` …) are
  ignored entirely;
* a **bare** ``# noqa`` is stale when the full rule set ran and no
  finding of any kind anchored to the line — under ``--select`` a bare
  suppression is indeterminate and left alone.
"""

from __future__ import annotations

import re

from repro.analysis.core import Rule, register

#: Analyzer rule codes (vs. foreign-tool codes like F401/E501).
MC_CODE_RE = re.compile(r"^MC2\d{3}$")


@register
class StaleSuppressionRule(Rule):
    """MC2901: every ``# noqa`` must suppress a real finding."""

    code = "MC2901"
    name = "stale-noqa"
    summary = "# noqa comment suppresses nothing on its line"
    rationale = ("A suppression that no longer matches any finding reads "
                 "as a reviewed exception while silently pre-approving "
                 "the next regression on that line. Delete it, or narrow "
                 "a bare noqa to the specific codes it still needs.")

    # All work happens in the engine post-pass (see module docstring).
