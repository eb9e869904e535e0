"""Analysis layer: paper result assembly and static simulator linting.

Two halves share this package:

* **result assembly** — one builder per paper figure/table
  (:mod:`repro.analysis.figures`, :mod:`repro.analysis.report`);
* **static analysis** — the simulator-invariant analyzer behind
  ``python -m repro.analysis`` (:mod:`repro.analysis.engine`,
  :mod:`repro.analysis.rules`): determinism and event-safety lint, the
  interprocedural passes, and suppression hygiene, with text/JSON output
  and a CI baseline gate; :mod:`repro.analysis.simsan` checks sweep
  purity, cache soundness and tie-order independence at run time.
"""

from repro.analysis.figures import format_rows

__all__ = ["format_rows", "figures", "engine", "cli"]
