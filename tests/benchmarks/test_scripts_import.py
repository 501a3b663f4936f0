"""Import smoke for the scripts under ``benchmarks/``: the paper
reproduction modules (``bench_fig*`` / ``bench_table*`` /
``bench_ablations``) and the cross-version snapshot driver. Nothing else
in the tier-1 suite imports them, so a renamed or deleted ``repro`` name
they use would otherwise surface only when someone runs them."""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCHMARKS_DIR = Path(__file__).resolve().parents[2] / "benchmarks"
SCRIPTS = sorted(BENCHMARKS_DIR.glob("bench_*.py")) + [BENCHMARKS_DIR / "snapshot_compat.py"]


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda path: path.name)
def test_script_imports(monkeypatch, path):
    monkeypatch.setattr(sys, "path", list(sys.path))  # snapshot_compat edits it
    name = f"benchmarks_{path.stem}"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
