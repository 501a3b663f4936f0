"""Root test configuration: puts ``tests/`` on ``sys.path`` so every test
directory can ``import oracles`` -- the scalar reference implementations
the production pipelines are pinned against."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
