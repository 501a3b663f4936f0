"""``BENCHMARK.json`` validation.

:func:`check_manifest` is the static half: the builder contract's field
list, counts, name / unit alphabets and limits, checked field for field
(a manifest that breaks any of them is refused by the driver before a
single run). :func:`validate` adds the dynamic half -- every metric the
manifest declares for a mode is emitted by a ``--smoke`` run of every
workload, and nothing undeclared lands in the result line.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path
from typing import Any, Iterable

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}\Z")
KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
MAX_BYTES = 64 * 1024
MAX_BOUND = 0.25


def _exact_keys(problems: list[str], where: str, item: Any, keys: set[str]) -> bool:
    if not isinstance(item, dict) or set(item) != keys:
        found = sorted(item) if isinstance(item, dict) else type(item).__name__
        problems.append(f"{where}: keys must be exactly {sorted(keys)}, found {found}")
        return False
    return True


def _leaves_repo(path: str) -> bool:
    return path.startswith("/") or ".." in Path(path).parts


def check_manifest(root: Path) -> list[str]:
    """Static problems of ``root/BENCHMARK.json`` (empty when valid)."""
    path = root / "BENCHMARK.json"
    if not path.is_file():
        return ["BENCHMARK.json is missing"]
    raw = path.read_bytes()
    problems: list[str] = []
    if len(raw) > MAX_BYTES:
        problems.append(f"file is {len(raw)} bytes; the limit is {MAX_BYTES}")
    try:
        manifest = json.loads(raw)
    except ValueError as exc:
        return [f"not JSON: {exc}"]
    if not _exact_keys(problems, "manifest", manifest, KEYS):
        return problems

    paths = manifest["paths"]
    if not isinstance(paths, list) or not 1 <= len(paths) <= 16:
        problems.append("paths: 1 to 16 directories")
        paths = []
    for entry in paths:
        if not isinstance(entry, str) or not PATH.match(entry) or _leaves_repo(entry):
            problems.append(f"paths: {entry!r} is not a relative path of allowed characters")
        elif not (root / entry).is_dir():
            problems.append(f"paths: {entry!r} is not a directory")
        else:
            for found in (root / entry).rglob("*"):
                if found.is_symlink():
                    problems.append(f"paths: {found.relative_to(root)} is a link")

    command = manifest["command"]
    if (
        not isinstance(command, list)
        or not 1 <= len(command) <= 32
        or not all(isinstance(part, str) and len(part) <= 200 for part in command)
    ):
        problems.append("command: a list of 1 to 32 strings of at most 200 characters")
    else:
        for part in command:
            if _leaves_repo(part):
                problems.append(f"command: {part!r} leaves the checkout")
            elif (root / part).exists() and "/" in part and not any(
                Path(part).is_relative_to(entry) for entry in paths
            ):
                problems.append(f"command: {part!r} names a file outside paths")

    seconds = manifest["run_seconds"]
    if not isinstance(seconds, int) or isinstance(seconds, bool) or not 1 <= seconds <= 60:
        problems.append("run_seconds: a whole number from 1 to 60")

    names: list[str] = []

    def named(where: str, item: dict) -> None:
        name = item.get("name")
        if not isinstance(name, str) or not NAME.match(name):
            problems.append(f"{where}: bad name {name!r}")
        else:
            names.append(name)

    def unit_of(where: str, item: dict) -> None:
        unit = item.get("unit")
        if not isinstance(unit, str) or not UNIT.match(unit):
            problems.append(f"{where}: bad unit {unit!r}")
        if item.get("better") not in ("lower", "higher"):
            problems.append(f"{where}: better must be 'lower' or 'higher'")

    workloads = manifest["workloads"]
    if not isinstance(workloads, list) or not 2 <= len(workloads) <= 8:
        problems.append("workloads: 2 to 8")
        workloads = []
    for index, item in enumerate(workloads):
        where = f"workloads[{index}]"
        if _exact_keys(problems, where, item, {"name", "why"}):
            named(where, item)
            why = item["why"]
            if not isinstance(why, str) or not 0 < len(why) <= 200 or "\n" in why:
                problems.append(f"{where}: why is one line of at most 200 characters")

    end_to_end = manifest["end_to_end"]
    if not isinstance(end_to_end, list) or not 1 <= len(end_to_end) <= 16:
        problems.append("end_to_end: 1 to 16 metrics")
        end_to_end = []
    for index, item in enumerate(end_to_end):
        where = f"end_to_end[{index}]"
        if _exact_keys(problems, where, item, {"name", "unit", "better", "bound"}):
            named(where, item)
            unit_of(where, item)
            bound = item["bound"]
            if (
                not isinstance(bound, (int, float))
                or isinstance(bound, bool)
                or not 0 < bound <= MAX_BOUND
            ):
                problems.append(f"{where}: bound must be in (0, {MAX_BOUND}]")
    setups = [m for m in end_to_end if isinstance(m, dict) and m.get("name") == "setup_s"]
    if not setups or setups[0].get("unit") != "s" or setups[0].get("better") != "lower":
        problems.append("end_to_end: needs setup_s with unit 's' and better 'lower'")

    per_layer = manifest["per_layer"]
    if not isinstance(per_layer, list) or not 1 <= len(per_layer) <= 128:
        problems.append("per_layer: 1 to 128 metrics")
        per_layer = []
    for index, item in enumerate(per_layer):
        where = f"per_layer[{index}]"
        if _exact_keys(problems, where, item, {"name", "unit", "better"}):
            named(where, item)
            unit_of(where, item)

    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        problems.append(f"names used more than once: {repeated}")
    return problems


def check_emitted(manifest: dict, trace: int, emitted: Iterable[str], where: str) -> list[str]:
    """The result line of one run must carry exactly the declared names."""
    declared = {row["name"] for row in manifest["per_layer" if trace else "end_to_end"]}
    emitted = set(emitted)
    return [
        f"{where}: declared but not emitted: {name}" for name in sorted(declared - emitted)
    ] + [f"{where}: emitted but not declared: {name}" for name in sorted(emitted - declared)]


def validate(root: Path, run_smoke: bool = False) -> list[str]:
    """Static checks and, with *run_smoke*, one ``--smoke`` run of every
    workload in both modes (each in a fresh process, through the
    manifest's own command)."""
    problems = check_manifest(root)
    if problems or not run_smoke:
        return problems
    manifest = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    command = [sys.executable if part == "python3" else part for part in manifest["command"]]
    for workload in manifest["workloads"]:
        for trace in (0, 1):
            where = f"{workload['name']} --trace {trace}"
            done = subprocess.run(
                command
                + ["--workload", workload["name"], "--seed", "71", "--trace", str(trace),
                   "--smoke"],
                cwd=root,
                capture_output=True,
                text=True,
                check=False,
            )
            if done.returncode != 0:
                problems.append(f"{where}: exit status {done.returncode}: {done.stderr[-300:]}")
                continue
            summary = json.loads(done.stdout.strip().splitlines()[-1])
            if set(summary) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result line has keys {sorted(summary)}")
                continue
            problems += check_emitted(manifest, trace, summary["metrics"], where)
    return problems
