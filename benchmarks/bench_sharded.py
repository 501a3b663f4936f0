"""Micro-benchmark: scatter-gather sharded serving vs one process.

The lake reuses the serving suite's MC-heavy shape, saved as K
per-shard snapshots (:func:`repro.snapshot.save_sharded`) and served by
a :class:`repro.serving.ShardCoordinator`. Every coordinator answer is
compared in-run against the direct single-process ``Seeker.execute``
oracle -- the mergeable-partials redesign makes the two byte-identical
by construction, so a mismatch aborts the phase and the committed
numbers are parity-guaranteed.

==================  ========================================================
sharded_solo        the oracle itself: the full query stream through
                    direct ``Seeker.execute`` on the unsharded blend
sharded_scatter2    coordinator over 2 in-process shard workers (each a
                    deployment manager + batching scheduler of its own)
sharded_scatter4    the same over 4 shards -- the fan-out axis
sharded_partition   one-off cost: partitioning + re-indexing the lake
                    into the 4 per-shard snapshots (tables/sec recorded
                    as ``queries_per_sec`` for schema uniformity)
==================  ========================================================

Rows land in ``BENCH_serving.json`` via ``run_bench.py --suite sharded``.
"""

from __future__ import annotations

import random
import shutil
import tempfile
import time
from pathlib import Path

from repro.core.semantic import SemanticSeeker
from repro.core.seekers import Seekers
from repro.core.system import Blend
from repro.lake.datalake import DataLake
from repro.serving import ShardCoordinator
from repro.snapshot import save_sharded

from bench_serving import _bench_lake, _phase

DEFAULT_SEED = 73
QUERY_COUNT = 256


def _workload(lake: DataLake, seed: int, count: int) -> list:
    """All five modalities, hot-skewed like real discovery traffic: the
    scan modalities dominate, with a steady minority of MC joins,
    correlation probes, and semantic look-ups."""
    rng = random.Random(seed + 5)
    pool = lake._bench_pool  # type: ignore[attr-defined]

    def hot() -> tuple:
        return pool[int(len(pool) * rng.random() ** 2.5)]

    queries = []
    for i in range(count):
        roll = rng.random()
        if roll < 0.40:
            queries.append(Seekers.SC([hot()[0] for _ in range(12)], k=10))
        elif roll < 0.70:
            queries.append(Seekers.KW([hot()[c % 2] for c in range(12)], k=10))
        elif roll < 0.85:
            tuples = [hot() for _ in range(5)] + [(f"ghost{i}", "nowhere")]
            queries.append(Seekers.MC(tuples, k=10))
        elif roll < 0.95:
            keys = [hot()[0] for _ in range(20)]
            targets = [str(j * 3 % 7) for j in range(20)]
            queries.append(Seekers.C(keys, targets, k=8, min_support=1))
        else:
            # exact=True: deterministic column search, so scatter-gather
            # parity holds at any lake scale (the HNSW beam is only
            # exhaustive on small indexes).
            queries.append(SemanticSeeker([hot()[0], hot()[1]], k=8, exact=True))
    return queries


def _sharded_blend(seed: int, scale: float) -> Blend:
    blend = Blend(_bench_lake(seed, scale), backend="column")
    blend.build_index()
    blend.enable_semantic()
    return blend


def _drive_coordinator(coordinator: ShardCoordinator, queries, oracle) -> tuple:
    latencies = []
    start = time.perf_counter()
    for i, query in enumerate(queries):
        began = time.perf_counter()
        result = coordinator.execute(query)
        latencies.append(time.perf_counter() - began)
        if result != oracle[i]:
            raise AssertionError(
                f"q{i} ({query.kind}) diverged from the single-process oracle "
                f"on {coordinator.num_shards} shards"
            )
    return time.perf_counter() - start, latencies


def run_benchmark(seed: int = DEFAULT_SEED, scale: float = 1.0) -> dict:
    blend = _sharded_blend(seed, scale)
    queries = _workload(blend.lake, seed, max(16, int(QUERY_COUNT * scale)))
    context = blend.context()

    results: dict[str, dict[str, float]] = {}

    latencies = []
    start = time.perf_counter()
    oracle = []
    for query in queries:
        began = time.perf_counter()
        oracle.append(query.execute(context))
        latencies.append(time.perf_counter() - began)
    seconds = time.perf_counter() - start
    results["sharded_solo"] = _phase(seconds, len(queries), latencies)

    root = Path(tempfile.mkdtemp(prefix="bench_sharded_"))
    try:
        num_tables = len(blend.lake.table_ids())
        partition_started = time.perf_counter()
        save_sharded(blend, root / "shards4", num_shards=4)
        partition_seconds = time.perf_counter() - partition_started
        results["sharded_partition"] = {
            "seconds": round(partition_seconds, 6),
            "queries_per_sec": round(num_tables / partition_seconds, 1),
        }
        save_sharded(blend, root / "shards2", num_shards=2)

        for phase, shards in (("sharded_scatter2", 2), ("sharded_scatter4", 4)):
            with ShardCoordinator.load(root / f"shards{shards}") as coordinator:
                seconds, latencies = _drive_coordinator(coordinator, queries, oracle)
            results[phase] = _phase(seconds, len(queries), latencies)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return results


def run_check(seed: int = DEFAULT_SEED, scale: float = 0.25) -> str:
    """Hardware-independent scatter-gather parity smoke
    (``run_bench.py --check-only``): on both storage backends and K in
    {1, 3}, the coordinator's answer for every modality must equal the
    direct single-process oracle -- including across a lifecycle
    mutation routed through the coordinator, with the generation stamp
    rejecting the stale view. No timing thresholds."""
    from repro.errors import StaleContextError
    from repro.lake.table import Table

    checked = 0
    for backend in ("column", "row"):
        blend = Blend(_bench_lake(seed, scale), backend=backend)
        blend.build_index()
        blend.enable_semantic()
        queries = _workload(blend.lake, seed, 24)
        root = Path(tempfile.mkdtemp(prefix="check_sharded_"))
        try:
            for shards in (1, 3):
                save_sharded(blend, root / f"s{shards}", num_shards=shards)
                with ShardCoordinator.load(root / f"s{shards}") as coordinator:
                    oracle = [q.execute(blend.context()) for q in queries]
                    _drive_coordinator(coordinator, queries, oracle)
                    if shards == 3 and backend == "column":
                        stamped = coordinator.generation
                        extra = Table(
                            "check_extra",
                            ["city", "country", "noise", "metric", "count"],
                            [("checkville", "checkland", "tok0", 1.0, 1)] * 4,
                        )
                        if coordinator.add_table(extra) != blend.add_table(extra):
                            raise AssertionError("sharded table id diverged from solo")
                        try:
                            coordinator.execute(queries[0], generation=stamped)
                            raise AssertionError("stale generation accepted")
                        except StaleContextError:
                            pass
                        oracle = [q.execute(blend.context()) for q in queries]
                        _drive_coordinator(coordinator, queries, oracle)
                    checked += len(queries)
        finally:
            shutil.rmtree(root, ignore_errors=True)
    return (
        f"scatter-gather parity OK: {checked} coordinator answers == "
        f"single-process oracle across backends x shard counts, lifecycle "
        f"routing id-stable, stale generations rejected (scale={scale})"
    )


def format_report(results: dict) -> str:
    lines = [
        f"{'phase':<20} {'seconds':>10} {'queries/s':>12} {'p50 ms':>9} {'p99 ms':>9}"
    ]
    for phase, numbers in results.items():
        lines.append(
            f"{phase:<20} {numbers['seconds']:>10.4f}"
            f" {numbers['queries_per_sec']:>12,.1f}"
            f" {numbers.get('p50_ms', 0.0):>9.2f}"
            f" {numbers.get('p99_ms', 0.0):>9.2f}"
        )
    solo = results.get("sharded_solo", {}).get("queries_per_sec")
    scatter = results.get("sharded_scatter4", {}).get("queries_per_sec")
    if solo and scatter:
        lines.append(
            f"scatter-gather over 4 shards vs one process: {scatter / solo:.2f}x "
            f"(answers byte-identical by merge construction)"
        )
    return "\n".join(lines)


PHASES = (
    "sharded_solo",
    "sharded_scatter2",
    "sharded_scatter4",
    "sharded_partition",
)
