"""Micro-benchmark: persistent index snapshots (save / mmap warm start).

The offline/online split made operational: instead of re-running the
vectorised ``AllTables`` build on every process start, serving processes
``Blend.load`` a snapshot saved once. Phases measured (seeded
Table-II-style lake, the same one as the index suite):

=====================  ====================================================
snapshot_cold_build    vectorised ``build_alltables`` (the cost a warm
                       start avoids; re-timed here so the artefact holds
                       an apples-to-apples pair from one run)
snapshot_save          ``Blend.save``: seal + write manifest, ``.npy``
                       payloads, stats, lake pickle
snapshot_load          ``Blend.load(path, lake=lake)``: mmap warm start
                       with the lake already in memory (the N-worker
                       shape; CRC verification on -- the default)
snapshot_load_full     self-contained ``Blend.load(path)``: additionally
                       unpickles the lake cell payload
=====================  ====================================================

Results merge into ``BENCH_index.json`` (run through
``benchmarks/run_bench.py --suite snapshot``); ``rows_per_sec`` counts
index rows per second through each phase. ``run_check`` is the
hardware-independent round-trip smoke the nightly CI job runs via
``run_bench.py --check-only``: save -> load -> assert seeker parity and
byte-identical AllTables content vs the in-memory build, then mutate the
loaded deployment and assert rebuild parity -- on both storage backends.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path
from typing import Callable

from repro.core.seekers import Seekers
from repro.core.system import Blend
from repro.engine import Database
from repro.index import build_alltables
from repro.lake import Table
from repro.lake.generators import CorpusConfig, generate_corpus

DEFAULT_SEED = 71


def _phase(seconds: float, rows: int) -> dict[str, float]:
    return {
        "seconds": round(seconds, 6),
        "rows_per_sec": round(rows / seconds, 1) if seconds > 0 else float("inf"),
    }


def _timed(fn: Callable[[], object]) -> tuple[float, object]:
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def _bench_lake(seed: int, scale: float = 1.0):
    """Same shape as the index suite's lake, so the committed
    ``snapshot_load`` row compares against the same build cost."""
    config = CorpusConfig(
        name="bench_index",
        num_tables=max(2, int(200 * scale)),
        min_rows=max(2, int(100 * scale)),
        max_rows=max(4, int(400 * scale)),
        seed=seed,
    )
    lake = generate_corpus(config)
    for table in lake:
        table.numeric_columns()
    return lake


def run_benchmark(seed: int = DEFAULT_SEED, scale: float = 1.0) -> dict[str, dict[str, float]]:
    lake = _bench_lake(seed, scale)
    results: dict[str, dict[str, float]] = {}

    blend = Blend(lake, backend="column")
    seconds, report = _timed(blend.build_index)
    index_rows = report.num_index_rows
    results["snapshot_cold_build"] = _phase(seconds, index_rows)

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "snapshot"
        seconds, _ = _timed(lambda: blend.save(path))
        results["snapshot_save"] = _phase(seconds, index_rows)

        seconds, warm = _timed(lambda: Blend.load(path, lake=lake))
        results["snapshot_load"] = _phase(seconds, index_rows)

        seconds, full = _timed(lambda: Blend.load(path))
        results["snapshot_load_full"] = _phase(seconds, index_rows)

        # The timed loads must be real: spot-check one seeker result.
        table = lake.by_id(0)
        probe = [v for v in table.column_values(table.columns[0]) if v is not None][:8]
        expected = blend.discover(probe, "keyword").output.table_ids()
        for loaded in (warm, full):
            if loaded.discover(probe, "keyword").output.table_ids() != expected:
                raise AssertionError("loaded snapshot diverges from the built system")

    return results


def format_report(results: dict[str, dict[str, float]]) -> str:
    lines = [f"{'phase':<22} {'seconds':>10} {'rows/s':>14}"]
    for phase, numbers in results.items():
        lines.append(
            f"{phase:<22} {numbers['seconds']:>10.4f} {numbers['rows_per_sec']:>14,.0f}"
        )
    build = results.get("snapshot_cold_build", {}).get("seconds")
    load = results.get("snapshot_load", {}).get("seconds")
    if build and load:
        lines.append(f"warm-start speedup (mmap load vs cold build): {build / load:.1f}x")
    full = results.get("snapshot_load_full", {}).get("seconds")
    if build and full:
        lines.append(f"self-contained load (incl. lake payload): {build / full:.1f}x")
    return "\n".join(lines)


def seeker_results(blend: Blend) -> dict:
    """One ranked result list per seeker template -- the shared parity
    probe of this suite's ``run_check`` and the CI cross-version driver
    (``benchmarks/snapshot_compat.py``), so both compare snapshots the
    same way."""
    table = blend.lake.by_id(blend.lake.table_ids()[0])
    values = [v for v in table.column_values(table.columns[0]) if v is not None]
    seekers = {
        "SC": Seekers.SC(values[:8], k=10),
        "KW": Seekers.KW(values[:8], k=10),
    }
    wide = [r[:2] for r in table.rows if all(v is not None for v in r[:2])]
    if table.num_columns >= 2 and len(wide) >= 2:
        seekers["MC"] = Seekers.MC(wide[:6], k=10)
    context = blend.context()
    return {
        kind: [(hit.table_id, hit.score) for hit in seeker.execute(context)]
        for kind, seeker in seekers.items()
    }


def assert_lifecycle_rebuild_parity(loaded: Blend, backend: str) -> None:
    """Mutate a loaded deployment (add + remove) and assert its index
    equals a from-scratch build of the final lake -- shared by
    ``run_check`` and the cross-version CI driver. Must run while the
    snapshot files are still on disk: the base arrays stay read-only
    mmaps for the life of the deployment (mutations land in the delta
    layer, never promote the base)."""
    sql = "SELECT * FROM AllTables"
    loaded.add_table(
        Table("snap_check_add", ["a", "b"], [(f"v{i}", i) for i in range(6)])
    )
    loaded.remove_table(loaded.lake.table_ids()[0])
    fresh = Database(backend=backend)
    build_alltables(loaded.lake, fresh, loaded.index_config)
    if sorted(loaded.db.execute(sql).rows) != sorted(fresh.execute(sql).rows):
        raise AssertionError(f"[{backend}] post-load lifecycle diverges from rebuild")


def run_check(seed: int = DEFAULT_SEED, scale: float = 0.25) -> str:
    """Hardware-independent snapshot round-trip smoke
    (``run_bench.py --check-only``): on both storage backends, save ->
    load -> assert seeker parity and identical ``AllTables`` content vs
    the in-memory build; then mutate the loaded deployment and assert
    parity with a from-scratch build of the final lake. No timing
    thresholds -- raises ``AssertionError`` on any divergence."""
    checked = 0
    sql = "SELECT * FROM AllTables"
    for backend in ("column", "row"):
        lake = _bench_lake(seed, scale)
        blend = Blend(lake, backend=backend)
        blend.build_index()
        with tempfile.TemporaryDirectory() as tmp:
            path = blend.save(Path(tmp) / "snapshot")
            loaded = Blend.load(path)
            if seeker_results(loaded) != seeker_results(blend):
                raise AssertionError(f"[{backend}] loaded seeker results diverge")
            if loaded.db.execute(sql).rows != blend.db.execute(sql).rows:
                raise AssertionError(f"[{backend}] loaded AllTables rows diverge")
            if loaded.stats != blend.stats:
                raise AssertionError(f"[{backend}] loaded statistics diverge")
            # Lifecycle rebuild parity, while the mmap'd payloads still
            # exist (copy-on-write promotion happens on this mutation).
            assert_lifecycle_rebuild_parity(loaded, backend)
        checked += 1
    return (
        f"snapshot round-trip parity OK: {checked} backends, save -> mmap load -> "
        f"mutate all match the in-memory build (scale={scale})"
    )


PHASES = (
    "snapshot_cold_build",
    "snapshot_save",
    "snapshot_load",
    "snapshot_load_full",
)
