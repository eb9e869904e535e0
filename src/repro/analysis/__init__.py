"""Analysis layer: paper result assembly and static simulator linting.

Two halves share this package:

* **result assembly** — one builder per paper figure/table
  (:mod:`repro.analysis.figures`, :mod:`repro.analysis.plotting`,
  :mod:`repro.analysis.report`);
* **static analysis** — the simulator-invariant analyzer behind
  ``python -m repro.analysis`` (:mod:`repro.analysis.engine`,
  :mod:`repro.analysis.rules`): determinism lint, event-safety rules,
  and the interprocedural passes, with text/JSON output and a CI
  baseline gate.
"""

from repro.analysis.figures import format_rows
from repro.analysis.plotting import bar_chart, cdf_plot, line_plot

__all__ = ["format_rows", "figures", "bar_chart", "line_plot", "cdf_plot",
           "engine", "cli"]
