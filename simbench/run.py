"""Benchmark entry point: one measurement run in a fresh, clean interpreter.

    python3 simbench/run.py --workload seq-lazy --seed 1 --seconds 36 --trace 0

Run from the repository root.  The measurement itself (``bench.py``)
runs in a child interpreter with ``PYTHONHASHSEED`` fixed, ``PYTHONPATH``
set to this checkout's ``src`` and every ``REPRO_*`` variable cleared
except ``REPRO_SIMCACHE=off``, so a caller's tracing, tie-order,
sanitizer, worker-count or result-cache settings cannot change what is
timed.  The child's output and exit status are passed through.

Before the child starts, the simulator and the benchmark are compiled to
bytecode in the checkout's ``__pycache__`` directories (once; later runs
find them current).  The child then loads bytecode, so no run pays the
compiler's time, or its transient memory in ``peak_rss_mb``, whatever
``PYTHONDONTWRITEBYTECODE`` says.
"""

from __future__ import annotations

import compileall
import os
import subprocess
import sys
from typing import Dict, Mapping, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: The child is killed after this long; runs are sized to end well
#: before it.
TIMEOUT_S = 175


def child_env(environ: Mapping[str, str]) -> Dict[str, str]:
    """``environ`` without ``REPRO_*`` settings, pinned for timing."""
    env = {key: value for key, value in environ.items()
           if not key.startswith("REPRO_")}
    env["REPRO_SIMCACHE"] = "off"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"simbench: no simulator sources under {ROOT}/src/repro",
              file=sys.stderr)
        return 2
    for path in (os.path.join(ROOT, "src"), HERE):
        compileall.compile_dir(path, quiet=1)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "bench.py"), *argv],
            env=child_env(os.environ), cwd=ROOT, timeout=TIMEOUT_S,
            check=False)
    except subprocess.TimeoutExpired:
        print(f"simbench: run exceeded {TIMEOUT_S} s and was killed",
              file=sys.stderr)
        return 3
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
