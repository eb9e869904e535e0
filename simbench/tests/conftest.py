"""Import paths for the benchmark's tests (run from the repository root):

    python3 -m pytest simbench/tests -q
"""

import os
import sys

_BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (os.path.join(os.path.dirname(_BENCH), "src"), _BENCH):
    if _path not in sys.path:
        sys.path.insert(0, _path)
