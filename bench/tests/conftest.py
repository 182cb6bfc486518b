"""Run with ``python -m pytest bench/tests -q`` from the repository root
(not part of tier-1: ``testpaths`` is ``tests``)."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for p in (ROOT / "src", ROOT):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))
