"""Micro-benchmark: online seeker throughput -- the MC seeker against
its scalar reference oracle, plus the SC / KW templates.

The lake is built MC-heavy: a shared pool of (city, country) pairs is
sampled into every table -- mostly row-aligned (validating candidates),
partly re-paired at random (candidates the super-key filter and exact
validation must prune). That reproduces the regime MATE reports, where
filtering + validation dominate end-to-end multi-column search latency.

Phases measured::

==================  ========================================================
mc_scalar           the tuple-at-a-time reference oracle
                    (``tests/oracles/mc_scalar.py``)
mc                  ``MultiColumnSeeker`` (columnar fetch, bitwise filter,
                    per-table factorized validation)
sc_query            SC template throughput (dictionary-coded aggregation)
kw_query            KW template throughput
==================  ========================================================

Before timing, the harness asserts the seeker and the oracle produce
identical validated row sets and identical rankings -- the oracle
guarantee behind the committed speedup. Results serialise as
``{phase: {"seconds": ..., "queries_per_sec": ...}}`` into
``BENCH_seeker.json`` via ``benchmarks/run_bench.py --suite seeker``.
"""

from __future__ import annotations

import random
import sys
import time
from pathlib import Path
from typing import Any, Callable

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from oracles import mc_scalar

from repro.core.seekers import SeekerContext, Seekers
from repro.engine import Database
from repro.index import build_alltables
from repro.index.xash import xash
from repro.lake.datalake import DataLake
from repro.lake.table import Table

DEFAULT_SEED = 71
QUERY_ROUNDS = 12
MC_TUPLES = 48


def _phase(seconds: float, queries: int) -> dict[str, float]:
    return {
        "seconds": round(seconds, 6),
        "queries_per_sec": round(queries / seconds, 1) if seconds > 0 else float("inf"),
    }


def _timed(fn: Callable[[], Any]) -> tuple[float, Any]:
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def _bench_lake(seed: int, scale: float = 1.0) -> DataLake:
    """An MC-heavy lake: pool pairs recur across tables so the SQL join
    fans out, and ~30 % of placements are re-paired so phases 2/3 have
    real pruning to do."""
    rng = random.Random(seed)
    pool_size = max(10, int(400 * scale))
    countries = [f"country{i}" for i in range(max(3, pool_size // 6))]
    pool = [(f"city{i}", countries[i % len(countries)]) for i in range(pool_size)]
    num_tables = max(2, int(40 * scale))
    lake = DataLake("bench_seeker")
    for table_id in range(num_tables):
        num_rows = rng.randint(max(4, int(80 * scale)), max(8, int(240 * scale)))
        rows = []
        for _ in range(num_rows):
            city, country = pool[rng.randrange(pool_size)]
            if rng.random() < 0.3:  # mis-paired: candidate but not joinable
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


def _mc_queries(lake: DataLake, seed: int) -> list:
    rng = random.Random(seed + 1)
    pool = lake._bench_pool  # type: ignore[attr-defined]
    queries = []
    for offset in range(3):
        tuples = [pool[rng.randrange(len(pool))] for _ in range(MC_TUPLES)]
        # A few absent tuples: the filter must prune them everywhere.
        tuples += [(f"ghost{offset}_{i}", "nowhere") for i in range(4)]
        queries.append(Seekers.MC(tuples, k=10))
    return queries


def _value_queries(lake: DataLake, seed: int) -> tuple[list, list]:
    rng = random.Random(seed + 2)
    pool = lake._bench_pool  # type: ignore[attr-defined]
    values = [pool[rng.randrange(len(pool))][0] for _ in range(24)]
    return (
        [Seekers.SC(values, k=10)],
        [Seekers.KW(values, k=10)],
    )


def _assert_oracle_parity(queries: list, context: SeekerContext) -> None:
    """The acceptance bar behind the speedup: identical validated row
    sets AND identical rankings between the scalar oracle and the seeker."""
    for seeker in queries:
        candidates = mc_scalar.fetch_candidates(seeker, context)
        survivors = mc_scalar.superkey_filter(seeker, candidates, context)
        validated = set(mc_scalar.validate(seeker, survivors, context))
        t, r, s = seeker.fetch_candidate_arrays(context)
        ft, fr = seeker.superkey_filter_batch(t, r, s, context)
        vt, vr = seeker.validate_batch(ft, fr, context)
        batched = set(zip(vt.tolist(), vr.tolist()))
        if batched != validated:
            raise AssertionError(
                f"validated-set divergence: {len(batched)} seeker vs "
                f"{len(validated)} oracle rows"
            )
        ranking_oracle = [
            (hit.table_id, hit.score) for hit in mc_scalar.execute(seeker, context)
        ]
        ranking = [(hit.table_id, hit.score) for hit in seeker.execute(context)]
        if ranking != ranking_oracle:
            raise AssertionError(f"ranking divergence: {ranking} vs {ranking_oracle}")


def run_benchmark(seed: int = DEFAULT_SEED, scale: float = 1.0) -> dict[str, dict[str, float]]:
    """Time the seeker phases on a freshly generated MC-heavy lake;
    returns the ``BENCH_seeker.json`` payload."""
    lake = _bench_lake(seed, scale)
    xash.cache_clear()
    db = Database(backend="column")
    build_alltables(lake, db)

    context = SeekerContext(db=db, lake=lake)
    mc_queries = _mc_queries(lake, seed)
    sc_queries, kw_queries = _value_queries(lake, seed)

    _assert_oracle_parity(mc_queries, context)

    results: dict[str, dict[str, float]] = {}

    def run_all(queries: list, execute=lambda seeker: seeker.execute(context)) -> None:
        for _ in range(QUERY_ROUNDS):
            for seeker in queries:
                execute(seeker)

    total_mc = QUERY_ROUNDS * len(mc_queries)
    seconds, _ = _timed(
        lambda: run_all(mc_queries, lambda seeker: mc_scalar.execute(seeker, context))
    )
    results["mc_scalar"] = _phase(seconds, total_mc)
    seconds, _ = _timed(lambda: run_all(mc_queries))
    results["mc"] = _phase(seconds, total_mc)

    total_values = QUERY_ROUNDS * len(sc_queries)
    seconds, _ = _timed(lambda: run_all(sc_queries))
    results["sc_query"] = _phase(seconds, total_values)
    seconds, _ = _timed(lambda: run_all(kw_queries))
    results["kw_query"] = _phase(seconds, total_values)

    return results


def run_check(seed: int = DEFAULT_SEED, scale: float = 0.25) -> str:
    """Hardware-independent parity smoke (``run_bench.py --check-only``):
    assert the scalar MC oracle and the seeker produce identical
    validated row sets and rankings on a reduced-scale lake. No timing --
    raises ``AssertionError`` on divergence."""
    lake = _bench_lake(seed, scale)
    xash.cache_clear()
    db = Database(backend="column")
    build_alltables(lake, db)
    queries = _mc_queries(lake, seed)
    _assert_oracle_parity(queries, SeekerContext(db=db, lake=lake))
    return (
        f"MC seeker oracle parity OK: {len(queries)} queries, scalar oracle and "
        f"seeker agree on validated rows and rankings (scale={scale})"
    )


def format_report(results: dict[str, dict[str, float]]) -> str:
    lines = [f"{'phase':<16} {'seconds':>10} {'queries/s':>12}"]
    for phase, numbers in results.items():
        lines.append(
            f"{phase:<16} {numbers['seconds']:>10.4f} {numbers['queries_per_sec']:>12,.1f}"
        )
    scalar, vector = (
        results.get("mc_scalar", {}).get("seconds"),
        results.get("mc", {}).get("seconds"),
    )
    if scalar and vector:
        lines.append(f"MC end-to-end speedup: {scalar / vector:.1f}x")
    return "\n".join(lines)


PHASES = ("mc_scalar", "mc", "sc_query", "kw_query")
