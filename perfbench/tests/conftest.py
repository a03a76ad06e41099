"""Make the benchmark's modules and the program importable.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import pathlib
import sys

_HERE = pathlib.Path(__file__).resolve().parent
for path in (_HERE.parent, _HERE.parent.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
