"""Micro-benchmark: offline AllTables build + bulk ingest + seeker query
hot path.

Phases measured (all on a seeded Table-II-style generated lake):

==================  ========================================================
build_scalar        the cell-at-a-time reference oracle
                    (``tests/oracles/alltables_scalar.py``)
build               ``build_alltables`` (batch XASH + ``insert_columns``)
normalize_scalar    per-cell ``normalize_cell`` loop over the lake's full
                    cell matrix (the old flush-path tokenisation)
normalize           the batched ``normalize_tokens`` kernel on the same
                    cells (byte-identical output, asserted in-run)
ingest_rows         storage-layer ``insert`` of prepared AllTables tuples
ingest_columns      storage-layer typed bulk ``insert_columns`` of the same
query_cold          four seeker templates, plan cache cleared per query
query_cached        same queries against a warm plan cache
==================  ========================================================

Results serialise as ``{phase: {"seconds": ..., "rows_per_sec": ...}}``
(for the query phases ``rows_per_sec`` counts *queries* per second), the
schema future PRs diff via ``BENCH_index.json``. Run through
``benchmarks/run_bench.py`` for the committed artefact, or import
:func:`run_benchmark` directly.

Importable without pytest; ``tests/benchmarks/test_bench_harness.py``
smoke-tests the harness under CI.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path
from typing import Any, Callable

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from oracles.alltables_scalar import build_alltables_scalar

from repro.core.seekers import SeekerContext, Seekers
from repro.engine import Database
from repro.index import build_alltables
from repro.index.alltables import ALLTABLES_SCHEMA
from repro.index.xash import xash
from repro.lake.generators import CorpusConfig, generate_corpus
from repro.lake.table import normalize_cell, normalize_tokens

DEFAULT_SEED = 71
QUERY_ROUNDS = 25


def _phase(seconds: float, rows: int) -> dict[str, float]:
    return {
        "seconds": round(seconds, 6),
        "rows_per_sec": round(rows / seconds, 1) if seconds > 0 else float("inf"),
    }


def _timed(fn: Callable[[], Any]) -> tuple[float, Any]:
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def _bench_lake(seed: int, scale: float = 1.0):
    """A Table-II-style lake (opendata_like shape, scaled up so per-cell
    costs dominate per-table overheads)."""
    config = CorpusConfig(
        name="bench_index",
        num_tables=max(2, int(200 * scale)),
        min_rows=max(2, int(100 * scale)),
        max_rows=max(4, int(400 * scale)),
        seed=seed,
    )
    lake = generate_corpus(config)
    for table in lake:  # warm type inference: both paths consume it
        table.numeric_columns()
    return lake


def run_benchmark(seed: int = DEFAULT_SEED, scale: float = 1.0) -> dict[str, dict[str, float]]:
    """Time every phase on a freshly generated lake; returns the
    ``BENCH_index.json`` payload."""
    lake = _bench_lake(seed, scale)
    results: dict[str, dict[str, float]] = {}

    # -- offline build: scalar reference oracle vs the build pipeline ---------
    xash.cache_clear()  # a fresh process has a cold token cache
    db_scalar = Database(backend="column")
    seconds, report = _timed(lambda: build_alltables_scalar(lake, db_scalar))
    index_rows = report.num_index_rows
    results["build_scalar"] = _phase(seconds, index_rows)

    db_vector = Database(backend="column")
    seconds, _ = _timed(lambda: build_alltables(lake, db_vector))
    results["build"] = _phase(seconds, index_rows)

    # -- flush-path tokenisation: scalar loop vs batched kernel ---------------
    cells = [value for table in lake for row in table.rows for value in row]
    seconds, scalar_tokens = _timed(lambda: [normalize_cell(v) for v in cells])
    results["normalize_scalar"] = _phase(seconds, len(cells))
    seconds, kernel_tokens = _timed(lambda: normalize_tokens(cells))
    if kernel_tokens != scalar_tokens:
        raise AssertionError(
            "normalize_tokens diverged from the scalar normalize_cell oracle"
        )
    results["normalize"] = _phase(seconds, len(cells))

    # -- storage-layer ingest: tuple inserts vs typed bulk append -------------
    rows = db_vector.execute("SELECT * FROM AllTables").rows
    chunks = _rows_to_chunks(rows)

    db_rows = Database(backend="column")
    db_rows.create_table("Ingest", ALLTABLES_SCHEMA)
    seconds, _ = _timed(
        lambda: (db_rows.insert("Ingest", rows), db_rows.storage_bytes("Ingest"))
    )
    results["ingest_rows"] = _phase(seconds, len(rows))

    db_cols = Database(backend="column")
    db_cols.create_table("Ingest", ALLTABLES_SCHEMA)
    seconds, _ = _timed(
        lambda: (db_cols.insert_columns("Ingest", chunks), db_cols.storage_bytes("Ingest"))
    )
    results["ingest_columns"] = _phase(seconds, len(rows))

    # -- online seeker hot path: cold vs cached plans --------------------------
    context = SeekerContext(db=db_vector, lake=lake)
    seekers = _query_mix(lake)

    def run_queries() -> None:
        for seeker in seekers:
            seeker.execute(context)

    run_queries()  # warm storage-side caches so both variants compare plans only
    total_queries = QUERY_ROUNDS * len(seekers)

    def cold() -> None:
        for _ in range(QUERY_ROUNDS):
            db_vector._plan_cache.clear()
            run_queries()

    seconds, _ = _timed(cold)
    results["query_cold"] = _phase(seconds, total_queries)

    def cached() -> None:
        for _ in range(QUERY_ROUNDS):
            run_queries()

    seconds, _ = _timed(cached)
    results["query_cached"] = _phase(seconds, total_queries)

    return results


def _rows_to_chunks(rows: list[tuple]) -> list[tuple]:
    """AllTables tuples as typed (data, null) column chunks."""
    values = np.empty(len(rows), dtype=object)
    values[:] = [row[0] for row in rows]
    table_ids = np.fromiter((row[1] for row in rows), dtype=np.int64, count=len(rows))
    column_ids = np.fromiter((row[2] for row in rows), dtype=np.int64, count=len(rows))
    row_ids = np.fromiter((row[3] for row in rows), dtype=np.int64, count=len(rows))
    super_keys = np.fromiter((row[4] for row in rows), dtype=np.int64, count=len(rows))
    quadrant = np.fromiter(
        (-1 if row[5] is None else int(row[5]) for row in rows),
        dtype=np.int8,
        count=len(rows),
    )
    return [
        (values, None),
        (table_ids, None),
        (column_ids, None),
        (row_ids, None),
        (super_keys, None),
        (quadrant, None),
    ]


def _query_mix(lake) -> list:
    """One instance of each seeker template over lake-derived queries."""
    table = lake.by_id(0)
    text_values = [v for v in table.column_values(table.columns[0]) if v is not None]
    seekers = [
        Seekers.SC(text_values[:12], k=10),
        Seekers.KW(text_values[:12], k=10),
    ]
    if table.num_columns >= 2:
        wide = [r[:2] for r in table.rows if all(v is not None for v in r[:2])]
        if len(wide) >= 2:
            seekers.append(Seekers.MC(wide[:8], k=10))
    flags = table.numeric_columns()
    if any(flags) and not all(flags):
        keys = table.column_values(table.columns[flags.index(False)])
        nums = table.column_values(table.columns[flags.index(True)])
        seekers.append(Seekers.Correlation(keys, nums, k=10, min_support=2))
    return seekers


def format_report(results: dict[str, dict[str, float]]) -> str:
    lines = [f"{'phase':<18} {'seconds':>10} {'rows/s':>14}"]
    for phase, numbers in results.items():
        lines.append(
            f"{phase:<18} {numbers['seconds']:>10.4f} {numbers['rows_per_sec']:>14,.0f}"
        )
    build = results.get("build_scalar", {}).get("seconds")
    fast = results.get("build", {}).get("seconds")
    if build and fast:
        lines.append(f"build speedup: {build / fast:.1f}x")
    norm_scalar, norm_kernel = (
        results.get("normalize_scalar", {}).get("seconds"),
        results.get("normalize", {}).get("seconds"),
    )
    if norm_scalar and norm_kernel:
        lines.append(f"normalize speedup: {norm_scalar / norm_kernel:.1f}x")
    ingest, bulk = (
        results.get("ingest_rows", {}).get("seconds"),
        results.get("ingest_columns", {}).get("seconds"),
    )
    if ingest and bulk:
        lines.append(f"ingest speedup: {ingest / bulk:.1f}x")
    cold, cached = (
        results.get("query_cold", {}).get("seconds"),
        results.get("query_cached", {}).get("seconds"),
    )
    if cold and cached:
        lines.append(f"plan-cache query speedup: {cold / cached:.2f}x")
    return "\n".join(lines)


def run_check(seed: int = DEFAULT_SEED, scale: float = 0.25) -> str:
    """Hardware-independent parity smoke (``run_bench.py --check-only``):
    assert the scalar oracle and ``build_alltables`` produce
    byte-identical ``AllTables`` relations on a reduced-scale lake, and
    that the batched ``normalize_tokens`` kernel matches the per-cell
    ``normalize_cell`` oracle cell-for-cell over the same lake.
    No timing thresholds -- raises ``AssertionError`` on any divergence,
    returns a summary line otherwise.
    """
    lake = _bench_lake(seed, scale)
    cells = [value for table in lake for row in table.rows for value in row]
    if normalize_tokens(cells) != [normalize_cell(v) for v in cells]:
        raise AssertionError(
            "token parity violated: normalize_tokens diverged from the "
            "scalar normalize_cell oracle"
        )
    oracle_db = Database(backend="column")
    build_alltables_scalar(lake, oracle_db)
    reference = oracle_db.execute("SELECT * FROM AllTables").rows
    db = Database(backend="column")
    build_alltables(lake, db)
    produced = db.execute("SELECT * FROM AllTables").rows
    if produced != reference:
        raise AssertionError(
            f"build parity violated: the pipeline produced {len(produced)} rows "
            f"diverging from the scalar oracle ({len(reference)} rows)"
        )
    return (
        f"index build parity OK: oracle and pipeline agree on "
        f"{len(reference)} AllTables rows (scale={scale}); "
        f"normalize kernel matches the scalar oracle on {len(cells)} cells"
    )


PHASES = (
    "build_scalar",
    "build",
    "normalize_scalar",
    "normalize",
    "ingest_rows",
    "ingest_columns",
    "query_cold",
    "query_cached",
)
