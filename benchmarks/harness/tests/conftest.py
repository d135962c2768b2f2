"""Make the harness modules and the program importable for the harness's own tests.

Run them with ``python -m pytest benchmarks/harness/tests -q``; they are not
part of the repository's tier-1 suite.
"""

import sys
from pathlib import Path

HARNESS = Path(__file__).resolve().parent.parent
for path in (HARNESS, HARNESS.parent.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
