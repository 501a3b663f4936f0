"""Micro-benchmark: the serving tier -- batched concurrent scheduling
vs one-query-per-pass serialization, and hot-swap under sustained load.

The lake reuses the MC-heavy shape of the seeker suite (shared
(city, country) pool sampled into every table, ~30 % re-paired), served
through :class:`repro.serving.BatchScheduler` over a
:class:`repro.serving.DeploymentManager`. Both timed phases run the SAME
worker pool (2 workers) and the SAME concurrent client threads; the only
difference is ``max_batch`` -- whether a worker may take the backlog
behind a request along with it:

==================  ========================================================
serving_serial      ``max_batch=1``: every request is one full pass
                    through the kernels (the pre-serving baseline shape)
serving_batched     ``max_batch=64``: same-modality requests that queued
                    while the workers were busy coalesce into single
                    stacked passes (one scan per SC/KW batch, one
                    phase-2/3 pass per MC batch)
serving_swap        sustained mixed load while the deployment hot-swaps
                    between two lake generations every ~80 ms; zero
                    failed requests is an assertion, not a metric
==================  ========================================================

Every request's answer is checked in-run against the direct
``Seeker.execute`` oracle for its generation -- a wrong answer aborts the
phase, so the committed numbers are parity-guaranteed. Each phase also
records client-observed ``p50_ms`` / ``p99_ms`` next to the standard
``{"seconds", "queries_per_sec"}`` pair. Results serialise into
``BENCH_serving.json`` via ``benchmarks/run_bench.py --suite serving``.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Any, Callable

from repro.core.seekers import Seekers
from repro.core.system import Blend
from repro.lake.datalake import DataLake
from repro.lake.table import Table
from repro.serving import BatchScheduler, DeploymentManager

DEFAULT_SEED = 71
CLIENT_THREADS = 32
QUERY_COUNT = 512
SWAP_PERIOD = 0.08

SWAP_ROWS = [
    ("swapville", "country0", "tok1", 1.0, 1),
    ("swapburg", "country1", "tok2", 2.0, 2),
] * 8


def _phase(seconds: float, queries: int, latencies: list[float]) -> dict[str, float]:
    ordered = sorted(latencies)

    def pct(q: float) -> float:
        return ordered[min(len(ordered) - 1, int(q * len(ordered)))] * 1e3

    return {
        "seconds": round(seconds, 6),
        "queries_per_sec": round(queries / seconds, 1) if seconds > 0 else float("inf"),
        "p50_ms": round(pct(0.50), 3),
        "p99_ms": round(pct(0.99), 3),
    }


def _bench_lake(seed: int, scale: float = 1.0) -> DataLake:
    """Same regime as the seeker suite: recurring pool pairs so batches
    share scan work, mis-pairings so MC validation stays non-trivial."""
    rng = random.Random(seed)
    pool_size = max(10, int(800 * scale))
    countries = [f"country{i}" for i in range(max(3, pool_size // 6))]
    pool = [(f"city{i}", countries[i % len(countries)]) for i in range(pool_size)]
    num_tables = max(2, int(120 * scale))
    lake = DataLake("bench_serving")
    for table_id in range(num_tables):
        num_rows = rng.randint(max(4, int(100 * scale)), max(8, int(300 * scale)))
        rows = []
        for _ in range(num_rows):
            city, country = pool[rng.randrange(pool_size)]
            if rng.random() < 0.3:
                country = countries[rng.randrange(len(countries))]
            rows.append(
                (
                    city,
                    country,
                    f"tok{rng.randrange(4000)}",
                    round(rng.random() * 100, 3),
                    rng.randrange(1000),
                )
            )
        lake.add(
            Table(
                f"t{table_id:03d}",
                ["city", "country", "noise", "metric", "count"],
                rows,
            )
        )
    lake._bench_pool = pool  # type: ignore[attr-defined]  # query source
    return lake


def _hot(rng: random.Random, n: int) -> int:
    """Zipf-ish draw: concurrent discovery traffic concentrates on hot
    values, which is what makes coalesced scans overlap -- disjoint scans
    would just be additive."""
    return int(n * rng.random() ** 2.5)


def _workload(lake: DataLake, seed: int, count: int) -> list:
    """A mixed stream shaped like a discovery serving load: mostly SC/KW
    column and keyword probes (the scan-dominated modalities batching
    coalesces into shared passes) over a hot-skewed value distribution,
    plus a steady minority of MC joins (the expensive modality batching
    must also carry without regressing). A fifth of the stream re-issues
    one of a handful of canned hot queries -- the dashboard/retry traffic
    every serving tier sees -- which the batched tier answers once per
    batch via key coalescing while the serialized tier runs
    each copy in full."""
    rng = random.Random(seed + 3)
    pool = lake._bench_pool  # type: ignore[attr-defined]

    def fresh(i: int):
        roll = rng.random()
        if roll < 0.5:
            values = [pool[_hot(rng, len(pool))][0] for _ in range(14)]
            return Seekers.SC(values, k=10)
        if roll < 0.85:
            values = [pool[_hot(rng, len(pool))][c % 2] for c in range(14)]
            return Seekers.KW(values, k=10)
        tuples = [pool[_hot(rng, len(pool))] for _ in range(6)]
        tuples.append((f"ghost{i}", "nowhere"))
        return Seekers.MC(tuples, k=10)

    canned = [fresh(-1 - c) for c in range(6)]
    queries = []
    for i in range(count):
        if rng.random() < 0.2:
            queries.append(rng.choice(canned))
        else:
            queries.append(fresh(i))
    return queries


def _query_key(seeker) -> tuple:
    """Semantic identity for scheduler-level coalescing: same modality,
    same query payload, same k => same answer."""
    if seeker.kind == "MC":
        payload = tuple(tuple(t) for t in seeker.tuples)
    else:
        payload = tuple(seeker.tokens)
    return (seeker.kind, payload, seeker.k)


def _drive(
    scheduler: BatchScheduler,
    queries: list,
    expected_of: Callable[[int, Any], Any],
    threads: int = CLIENT_THREADS,
) -> tuple[float, list[float]]:
    """Fire the workload from concurrent client threads; every answer is
    compared in-run to the oracle for its generation. Returns wall time
    and the client-observed per-request latencies."""
    cursor = {"next": 0}
    cursor_lock = threading.Lock()
    latencies: list[list[float]] = [[] for _ in range(threads)]
    failures: list[str] = []

    def client(slot: int) -> None:
        while True:
            with cursor_lock:
                i = cursor["next"]
                if i >= len(queries):
                    return
                cursor["next"] = i + 1
            started = time.perf_counter()
            try:
                outcome = scheduler.execute(queries[i], key=_query_key(queries[i]))
            except Exception as exc:  # noqa: BLE001 -- the assertion target
                failures.append(f"q{i}: {type(exc).__name__}: {exc}")
                continue
            latencies[slot].append(time.perf_counter() - started)
            if outcome.result != expected_of(i, outcome.generation):
                failures.append(f"q{i}: diverged from oracle (gen={outcome.generation})")

    workers = [threading.Thread(target=client, args=(s,)) for s in range(threads)]
    start = time.perf_counter()
    for t in workers:
        t.start()
    for t in workers:
        t.join()
    seconds = time.perf_counter() - start
    if failures:
        raise AssertionError(
            f"{len(failures)} serving failures, first: {failures[0]}"
        )
    return seconds, [lat for per_thread in latencies for lat in per_thread]


def run_benchmark(
    seed: int = DEFAULT_SEED, scale: float = 1.0
) -> dict[str, dict[str, float]]:
    lake = _bench_lake(seed, scale)
    blend = Blend(lake, backend="column")
    blend.build_index()
    queries = _workload(lake, seed, max(16, int(QUERY_COUNT * scale)))
    context = blend.context()
    oracle = [q.execute(context) for q in queries]

    results: dict[str, dict[str, float]] = {}

    def fixed_oracle(i: int, generation: int):
        return oracle[i]

    # serving_serial: same pool, same clients, max_batch=1 -- every
    # request is its own batch however deep the backlog.
    manager = DeploymentManager(blend)
    with BatchScheduler(
        manager, workers=2, max_batch=1
    ) as scheduler:
        seconds, latencies = _drive(scheduler, queries, fixed_oracle)
    results["serving_serial"] = _phase(seconds, len(queries), latencies)

    # serving_batched: only max_batch changes; batches form from backlog.
    manager = DeploymentManager(blend)
    with BatchScheduler(
        manager, workers=2, max_batch=64
    ) as scheduler:
        seconds, latencies = _drive(scheduler, queries, fixed_oracle)
    results["serving_batched"] = _phase(seconds, len(queries), latencies)

    # serving_swap: the batched configuration under generation churn.
    old_generation = blend.lake.generation
    new_blend = _next_generation(seed, scale)
    new_oracle = [q.execute(new_blend.context()) for q in queries]
    per_generation = {
        old_generation: oracle,
        new_blend.lake.generation: new_oracle,
    }

    def swap_oracle(i: int, generation: int):
        return per_generation[generation][i]

    manager = DeploymentManager(blend)
    stop = threading.Event()
    swaps = {"n": 0}

    def churn() -> None:
        flip = [new_blend, blend]
        while not stop.is_set():
            time.sleep(SWAP_PERIOD)
            manager.swap(flip[swaps["n"] % 2], drain_timeout=30.0)
            swaps["n"] += 1

    with BatchScheduler(
        manager, workers=2, max_batch=64
    ) as scheduler:
        swapper = threading.Thread(target=churn)
        swapper.start()
        try:
            seconds, latencies = _drive(scheduler, queries, swap_oracle)
        finally:
            stop.set()
            swapper.join()
    if swaps["n"] == 0:
        raise AssertionError("swap phase finished before any hot-swap happened")
    results["serving_swap"] = _phase(seconds, len(queries), latencies)
    return results


def _next_generation(seed: int, scale: float) -> Blend:
    """The replacement deployment: same seeded lake plus one extra
    table, indexed fresh -- a strictly newer generation."""
    lake = _bench_lake(seed, scale)
    lake.add(
        Table("swap_extra", ["city", "country", "noise", "metric", "count"], list(SWAP_ROWS))
    )
    replacement = Blend(lake, backend="column")
    replacement.build_index()
    return replacement


def run_check(seed: int = DEFAULT_SEED, scale: float = 0.25) -> str:
    """Hardware-independent serving smoke (``run_bench.py --check-only``):
    on both storage backends, a concurrent batched run must match the
    direct-execute oracle answer for answer; then one hot-swap under load
    must complete with zero failed requests and post-swap answers equal
    to a fresh build of the new generation. No timing thresholds."""
    checked = 0
    for backend in ("column", "row"):
        lake = _bench_lake(seed, scale)
        blend = Blend(lake, backend=backend)
        blend.build_index()
        queries = _workload(lake, seed, 48)
        oracle = [q.execute(blend.context()) for q in queries]

        manager = DeploymentManager(blend)
        with BatchScheduler(
            manager, workers=2, max_batch=32
        ) as scheduler:
            _drive(scheduler, queries, lambda i, gen: oracle[i], threads=8)
        checked += 1

    # One hot-swap under load (column backend): zero failures, post-swap
    # parity against the fresh new-generation build.
    lake = _bench_lake(seed, scale)
    blend = Blend(lake, backend="column")
    blend.build_index()
    queries = _workload(lake, seed, 48)
    replacement = _next_generation(seed, scale)
    per_generation = {
        blend.lake.generation: [q.execute(blend.context()) for q in queries],
        replacement.lake.generation: [
            q.execute(replacement.context()) for q in queries
        ],
    }
    manager = DeploymentManager(blend)
    with BatchScheduler(
        manager, workers=2, max_batch=32
    ) as scheduler:
        swapped = {"report": None}

        def swap_midway() -> None:
            time.sleep(0.05)
            swapped["report"] = manager.swap(replacement, drain_timeout=30.0)

        swapper = threading.Thread(target=swap_midway)
        swapper.start()
        _drive(
            scheduler,
            queries * 2,
            lambda i, gen: per_generation[gen][i % len(queries)],
            threads=8,
        )
        swapper.join()
        if swapped["report"] is None or not swapped["report"].drained:
            raise AssertionError("hot-swap did not drain the old generation")
        for i, query in enumerate(queries[:6]):
            outcome = scheduler.execute(query)
            if outcome.generation != replacement.lake.generation:
                raise AssertionError("post-swap request served by old generation")
            if outcome.result != per_generation[outcome.generation][i]:
                raise AssertionError("post-swap answer diverges from fresh build")
    return (
        f"serving parity OK: {checked} backends batched == direct execute, "
        f"hot-swap under load zero failures, post-swap matches fresh build "
        f"(scale={scale})"
    )


def format_report(results: dict[str, dict[str, float]]) -> str:
    lines = [
        f"{'phase':<18} {'seconds':>10} {'queries/s':>12} {'p50 ms':>9} {'p99 ms':>9}"
    ]
    for phase, numbers in results.items():
        lines.append(
            f"{phase:<18} {numbers['seconds']:>10.4f}"
            f" {numbers['queries_per_sec']:>12,.1f}"
            f" {numbers.get('p50_ms', 0.0):>9.2f}"
            f" {numbers.get('p99_ms', 0.0):>9.2f}"
        )
    serial = results.get("serving_serial", {}).get("queries_per_sec")
    batched = results.get("serving_batched", {}).get("queries_per_sec")
    if serial and batched:
        lines.append(
            f"admission batching speedup (same worker pool): {batched / serial:.1f}x"
        )
    return "\n".join(lines)


PHASES = ("serving_serial", "serving_batched", "serving_swap")
