"""Run the examples that drive the sharded tier end to end. Each
``main()`` asserts scatter-gather answers equal single-process ones, so a
change to the coordinator or the shard worker that only an example
exercises fails here rather than for the next reader who runs it."""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"


@pytest.mark.parametrize("name", ["sharded_lake", "hybrid_discovery"])
def test_example_main_runs(monkeypatch, capsys, name):
    module_name = f"examples_{name}"
    spec = importlib.util.spec_from_file_location(module_name, EXAMPLES_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, module_name, module)
    spec.loader.exec_module(module)
    module.main()
    assert capsys.readouterr().out
