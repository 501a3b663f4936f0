#!/usr/bin/env python
"""Entry point for the perf-trajectory micro-benchmarks.

Two suites, each emitting one committed JSON artefact at the repo root:

* ``--suite index`` (default): ``bench_index_build`` ->
  ``BENCH_index.json`` (schema ``{phase: {"seconds": ...,
  "rows_per_sec": ...}}``);
* ``--suite seeker``: ``bench_seeker`` -> ``BENCH_seeker.json`` (schema
  ``{phase: {"seconds": ..., "queries_per_sec": ...}}``), asserting the
  scalar MC oracle agrees with the batched pipeline before timing;
* ``--suite maintenance``: ``bench_maintenance`` (remove+reindex
  throughput under the table lifecycle) -- its rows merge into
  ``BENCH_index.json`` alongside the build phases;
* ``--suite snapshot``: ``bench_snapshot`` (save / mmap warm-start load
  vs the cold build) -- rows merge into ``BENCH_index.json`` too;
* ``--suite delta``: ``bench_delta`` (streaming ingest: mutation latency
  on a frozen base, incremental vs full save, base ∪ delta query
  overhead vs compacted; parity oracle-checked in-run) -- rows merge
  into ``BENCH_index.json``;
* ``--suite serving``: ``bench_serving`` -> ``BENCH_serving.json``
  (batched admission vs per-request serialization on one worker pool,
  plus hot-swap under sustained load; answers parity-checked in-run);
* ``--suite sharded``: ``bench_sharded`` (scatter-gather over K shard
  workers vs one process, all five modalities, answers checked against
  the single-process oracle in-run) -- rows merge into
  ``BENCH_serving.json``;
* ``--suite all``: all of them.

Artefacts are merged per phase: a suite run updates its own rows in the
output JSON and leaves rows owned by sibling suites untouched.

Usage::

    PYTHONPATH=src python benchmarks/run_bench.py [--suite S] [--seed N]
        [--scale S] [--output PATH] [--repeat R] [--check-only]

``--repeat`` keeps the fastest-of-R result per phase, damping scheduler
noise. ``--output`` overrides the artefact path for single-suite runs.
``--check-only`` runs each suite's oracle-parity assertions on a
reduced-scale lake and writes no artefact -- no timing thresholds, so
the exit code is hardware independent (the CI smoke job runs exactly
this).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench_delta  # noqa: E402
import bench_hybrid  # noqa: E402
import bench_index_build  # noqa: E402
import bench_maintenance  # noqa: E402
import bench_seeker  # noqa: E402
import bench_serving  # noqa: E402
import bench_sharded  # noqa: E402
import bench_snapshot  # noqa: E402

DEFAULT_SEED = bench_index_build.DEFAULT_SEED

_REPO_ROOT = Path(__file__).resolve().parent.parent
SUITES = {
    "index": (bench_index_build, _REPO_ROOT / "BENCH_index.json"),
    "seeker": (bench_seeker, _REPO_ROOT / "BENCH_seeker.json"),
    "hybrid": (bench_hybrid, _REPO_ROOT / "BENCH_seeker.json"),
    "maintenance": (bench_maintenance, _REPO_ROOT / "BENCH_index.json"),
    "snapshot": (bench_snapshot, _REPO_ROOT / "BENCH_index.json"),
    "delta": (bench_delta, _REPO_ROOT / "BENCH_index.json"),
    "serving": (bench_serving, _REPO_ROOT / "BENCH_serving.json"),
    "sharded": (bench_sharded, _REPO_ROOT / "BENCH_serving.json"),
}


def _run_suite(module, output: Path, args) -> None:
    best: dict[str, dict[str, float]] = {}
    for _ in range(max(1, args.repeat)):
        results = module.run_benchmark(seed=args.seed, scale=args.scale)
        for phase, numbers in results.items():
            if phase not in best or numbers["seconds"] < best[phase]["seconds"]:
                best[phase] = numbers

    # Merge per phase: suites sharing one artefact (index + maintenance
    # both land in BENCH_index.json) update their own rows and keep the
    # sibling suite's rows intact.
    merged = best
    if output.exists():
        try:
            merged = json.loads(output.read_text(encoding="utf-8"))
        except json.JSONDecodeError:
            merged = {}
        merged.update(best)
    output.write_text(json.dumps(merged, indent=2) + "\n", encoding="utf-8")
    print(module.format_report(best))
    print(f"[written to {output}]")


def _run_checks(selected: list[str], args) -> int:
    """``--check-only``: reduced-scale oracle-parity assertions, no
    artefacts, no timing. Prints one OK line per suite; an
    AssertionError in any suite fails the run."""
    check_scale = min(args.scale, 0.25)
    for name in selected:
        module, _ = SUITES[name]
        summary = module.run_check(seed=args.seed, scale=check_scale)
        print(f"[{name}] {summary}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--suite", choices=(*SUITES, "all"), default="index")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--scale", type=float, default=1.0, help="lake size multiplier")
    parser.add_argument("--repeat", type=int, default=1, help="keep fastest of N runs")
    parser.add_argument(
        "--check-only",
        action="store_true",
        help="run oracle-parity assertions at reduced scale; no timing, no artefacts",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="artefact path override (single-suite runs only)",
    )
    args = parser.parse_args(argv)

    selected = list(SUITES) if args.suite == "all" else [args.suite]
    if args.check_only:
        return _run_checks(selected, args)
    if args.output is not None and len(selected) > 1:
        parser.error("--output requires a single --suite")
    for name in selected:
        module, default_output = SUITES[name]
        _run_suite(module, args.output or default_output, args)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
