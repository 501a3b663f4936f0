"""The line tracer (``tests/tools/reach.py``) on a tiny module."""

import importlib.util
import multiprocessing
import sys

import pytest

from tools.reach import Reach, executable_lines, ranges

TINY = '''\
def both(x):
    return x + 1

def tests_only(x):
    if x:
        return 1
    return 2

def in_a_child():
    return 0
'''


def _load(path):
    spec = importlib.util.spec_from_file_location("reach_tiny", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tiny(tmp_path):
    (tmp_path / "pkg").mkdir()
    path = tmp_path / "pkg" / "tiny.py"
    path.write_text(TINY, encoding="utf-8")
    return path


def test_ranges_collapse_runs():
    assert ranges([7, 1, 3, 2, 9, 10]) == "1-3, 7, 9-10"
    assert ranges([]) == ""


def test_lines_split_into_nothing_and_tests_only(tmp_path):
    path = _tiny(tmp_path)
    assert executable_lines(path) == {1, 2, 4, 5, 6, 7, 9, 10}
    reach = Reach(tmp_path, "pkg")
    outer = sys.gettrace()
    module = reach.run("system", _load, path)  # the defs run on import
    assert reach.run("tests", module.both, 1) == 2
    assert reach.run("tests", module.tests_only, True) == 1
    reach.run("system", module.both, 2)
    assert sys.gettrace() is outer
    report = reach.report()
    assert report["files"] == {"pkg/tiny.py": {"nothing": "7, 10", "tests_only": "5-6"}}
    assert (report["executable"], report["nothing"], report["tests_only"]) == (8, 2, 2)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs the fork start method"
)
def test_forked_children_hand_back_their_hits(tmp_path):
    path = _tiny(tmp_path)
    reach = Reach(tmp_path, "pkg")
    module = reach.run("system", _load, path)

    def fork_and_wait():
        child = multiprocessing.get_context("fork").Process(target=module.in_a_child)
        child.start()
        child.join()
        return child.exitcode

    assert reach.run("system", fork_and_wait) == 0
    assert reach.hits["system"]["pkg/tiny.py"] >= {9, 10}
