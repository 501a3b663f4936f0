"""Reach: which lines of ``src/repro`` does anything run?

Traces every line of ``src/repro`` (``sys.settrace`` and
``threading.settrace``) while one process runs, in turn, the system's
own callers (phase ``system``: the six ``benchmarks/e2e`` workloads with
``--smoke``, the paper scripts, ``benchmarks/bench_*.py`` with every
marker, and the examples) and then the tier-1 suite (phase ``tests``).
The system goes first so that the import-time lines (``def``, ``class``,
module constants) of every module it imports count as its own. Executable
lines are the ``co_lines()`` of every code object compiled from each
file. Children forked through ``multiprocessing`` inherit the tracer and
hand their hits back when they exit; processes started any other way
(``subprocess``, the spawn start method) and children killed before they
exit are not traced. Standard library only::

    python tests/tools/reach.py [--out REACH.json] [--check REACH.json]

prints, per file, the lines reached by nothing and the lines reached only
by tests, then the totals. ``--out`` writes them; ``--check`` exits 1 when
either total is above the committed file's (the CI ratchet). The paper
scripts print Fig. 6's known shape failure; the exit status of each phase
is printed, and a failing tier-1 phase exits 2 (its counts are wrong).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import runpy
import sys
import tempfile
import threading
from multiprocessing import util as mp_util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SOURCE = "src/repro"
_UNTRACKED = object()


def executable_lines(path: Path) -> set[int]:
    """Line numbers of every code object compiled from *path*."""
    lines: set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def ranges(lines) -> str:
    """``[1, 2, 3, 7]`` -> ``"1-3, 7"``."""
    out: list[str] = []
    for line in sorted(lines):
        if out and line == end + 1:
            out[-1] = f"{start}-{line}"
        else:
            start = line
            out.append(str(line))
        end = line
    return ", ".join(out)


class Reach:
    """Line hits under *root*/*source*, one set per phase."""

    def __init__(self, root: Path = ROOT, source: str = SOURCE) -> None:
        self.root = Path(root).resolve()
        self.prefix = str(self.root / source) + os.sep
        self.hits: dict[str, dict[str, set[int]]] = {}
        self._phase = ""
        self._codes: dict = {}  # code -> (file, lines, pending, tracer) or _UNTRACKED
        self._spool = ""  # where forked children leave their hits during a run
        mp_util.register_after_fork(self, Reach._after_fork)

    # -- tracing ------------------------------------------------------------

    def _entry(self, code):
        path = os.path.realpath(code.co_filename)
        if not path.startswith(self.prefix):
            return _UNTRACKED
        lines = {line for _, _, line in code.co_lines() if line}
        pending = set(lines)

        def tracer(frame, event, arg):
            pending.discard(frame.f_lineno)
            return tracer

        return os.path.relpath(path, self.root), lines, pending, tracer

    def _global(self, frame, event, arg):
        code = frame.f_code
        entry = self._codes.get(code)
        if entry is None:
            entry = self._codes[code] = self._entry(code)
        if entry is _UNTRACKED or not entry[2]:
            return None  # not ours, or every line already seen this phase
        entry[2].discard(frame.f_lineno)  # a def line has a call event only
        return entry[3]

    def _collect(self, phase: str) -> dict[str, set[int]]:
        hits = self.hits.setdefault(phase, {})
        for entry in self._codes.values():
            if entry is not _UNTRACKED:
                name, lines, pending, _ = entry
                hits.setdefault(name, set()).update(lines - pending)
        return hits

    def _after_fork(self) -> None:
        # multiprocessing runs its finalizers before a child's os._exit.
        mp_util.Finalize(None, self._dump_child, exitpriority=0)

    def _dump_child(self) -> None:
        sys.settrace(None)
        hits = {name: sorted(lines) for name, lines in self._collect(self._phase).items()}
        target = Path(self._spool) / f"{self._phase}-{os.getpid()}.json"
        target.write_text(json.dumps(hits), encoding="utf-8")

    def run(self, phase: str, function, *args):
        """Call ``function(*args)`` with every line under the source traced
        into *phase*; the caller's own trace functions are restored after."""
        outer, outer_threads = sys.gettrace(), threading.gettrace()
        if phase != self._phase:
            self._phase, self._codes = phase, {}
        with tempfile.TemporaryDirectory(prefix="reach-") as self._spool:
            threading.settrace(self._global)
            sys.settrace(self._global)
            try:
                return function(*args)
            finally:
                sys.settrace(outer)
                threading.settrace(outer_threads)
                hits = self._collect(phase)
                for child in Path(self._spool).glob(f"{phase}-*.json"):
                    for name, lines in json.loads(child.read_text(encoding="utf-8")).items():
                        hits.setdefault(name, set()).update(lines)

    # -- report ---------------------------------------------------------------

    def report(self) -> dict:
        """Per file, the lines no phase reached and those only the
        ``tests`` phase reached, with totals over every file."""
        files: dict[str, dict[str, str]] = {}
        totals = {"executable": 0, "nothing": 0, "tests_only": 0}
        for path in sorted(Path(self.prefix).rglob("*.py")):
            name = os.path.relpath(path, self.root)
            lines = executable_lines(path)
            by_tests = self.hits.get("tests", {}).get(name, set()) & lines
            by_system = set().union(
                *(hits.get(name, set()) for phase, hits in self.hits.items() if phase != "tests")
            )
            nothing = lines - by_tests - by_system
            tests_only = by_tests - by_system
            totals["executable"] += len(lines)
            totals["nothing"] += len(nothing)
            totals["tests_only"] += len(tests_only)
            if nothing or tests_only:
                files[name] = {"nothing": ranges(nothing), "tests_only": ranges(tests_only)}
        return {**totals, "files": files}


# -- the callers ----------------------------------------------------------------


def _pytest(*argv: str) -> int:
    import pytest

    return int(pytest.main(["-q", "-p", "no:cacheprovider", *argv]))


def _smoke() -> int:
    sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))
    from blendbench import WORKLOADS, runner

    status = 0
    for name in WORKLOADS:
        with contextlib.redirect_stdout(io.StringIO()):
            report = runner.execute(name, 71, runner.SMOKE_SECONDS, 0, True)
        print(f"smoke {name}: {'correct' if report.correct else 'WRONG'}")
        status |= not report.correct
    return status


def _examples() -> int:
    sys.path.insert(0, str(ROOT / "examples"))  # grammar_dsl imports quickstart
    status = 0
    for path in sorted((ROOT / "examples").glob("*.py")):
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                runpy.run_path(str(path), run_name="__main__")
        except Exception as error:  # report it and run the next example
            print(f"example {path.name}: {type(error).__name__}: {error}")
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write the report to this JSON file")
    parser.add_argument("--check", help="exit 1 if a total rose above this JSON file's")
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]  # as ``PYTHONPATH=src python -m pytest``
    reach = Reach()
    benches = sorted(str(p.relative_to(ROOT)) for p in (ROOT / "benchmarks").glob("bench_*.py"))
    status = {"smoke": reach.run("system", _smoke)}
    status["paper"] = reach.run(
        "system", _pytest, "-m", "", "--benchmark-disable", "--import-mode=importlib", *benches
    )
    status["examples"] = reach.run("system", _examples)
    # A fixed Hypothesis seed, so the property suite reaches the same lines every run.
    status["tests"] = reach.run("tests", _pytest, "--hypothesis-seed=0", "tests")
    report = reach.report()
    for name, lines in report["files"].items():
        print(f"{name}\n  nothing:    {lines['nothing']}\n  tests only: {lines['tests_only']}")
    for phase, code in status.items():
        print(f"phase {phase}: exit {code}")
    print(
        f"executable {report['executable']}  reached by nothing {report['nothing']}"
        f"  reached only by tests {report['tests_only']}"
    )
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    if status["tests"]:
        return 2
    if args.check:
        committed = json.loads(Path(args.check).read_text(encoding="utf-8"))
        risen = [key for key in ("nothing", "tests_only") if report[key] > committed[key]]
        for key in risen:
            print(f"{key} rose: {committed[key]} -> {report[key]}")
        return 1 if risen else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
