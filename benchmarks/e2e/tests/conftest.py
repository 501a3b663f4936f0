"""The benchmark's own tests: make ``repro`` and ``blendbench`` importable
whether or not the caller exported ``PYTHONPATH=src``."""

import sys
from pathlib import Path

E2E = Path(__file__).resolve().parents[1]
for path in (str(E2E.parents[1] / "src"), str(E2E)):
    if path not in sys.path:
        sys.path.insert(0, path)
