"""Fig. 5 -- single-column join search runtime: BLEND vs JOSIE across
query sizes, on the row store and the column store.

Three lakes play the WDC / Canada-US-UK / GitTables roles, each with
query batches of growing |Q|. Expected shape: BLEND (Column) fastest and
widening with |Q|; JOSIE's tight posting loops competitive with (and
often ahead of) BLEND (Row), whose tuple-at-a-time executor pays Python
interpretation per index row -- the paper's PostgreSQL observation.
"""

from __future__ import annotations

import statistics

import pytest

from repro import Blend
from repro.baselines import JosieIndex
from repro.eval import render_series_chart, timed
from repro.lake.generators import make_join_benchmark

LAKES = {
    "wdc_like": dict(num_tables=150, query_sizes=(10, 100, 1500), max_rows=100, seed=61),
    "canada_like": dict(num_tables=120, query_sizes=(10, 200, 2000), max_rows=200, seed=62),
    "gittables_like": dict(num_tables=200, query_sizes=(10, 100, 1000), max_rows=80, seed=63),
}
QUERIES_PER_SIZE = 3
REPEATS = 5  # timed runs per query behind each point's median
K = 10
SYSTEMS = ("blend_row", "josie", "blend_column")


@pytest.fixture(scope="module", params=list(LAKES))
def setup(request):
    config = dict(LAKES[request.param])
    config["queries_per_size"] = QUERIES_PER_SIZE
    bench = make_join_benchmark(name=f"f5_{request.param}", **config)
    systems = {"josie": JosieIndex(bench.lake)}
    for backend in ("row", "column"):
        blend = Blend(bench.lake, backend=backend)
        blend.build_index()
        systems[f"blend_{backend}"] = blend
    return request.param, bench, systems


def _run(system_name, systems, values):
    if system_name == "josie":
        return systems["josie"].search(values, k=K)
    return systems[system_name].discover(values, "join", k=K).output


def _queries_of_size(bench, size):
    return [q for q in bench.queries if abs(q.size - size) <= size * 0.5][:QUERIES_PER_SIZE]


@pytest.mark.parametrize("system", ["josie", "blend_row", "blend_column"])
def test_join_search_runtime(benchmark, setup, system):
    """Benchmark: the largest query batch on each system."""
    _, bench, systems = setup
    query = max(bench.queries, key=lambda q: q.size)
    benchmark(lambda: _run(system, systems, list(query.values)))


def test_fig05_report(benchmark, setup, report_writer):
    lake_name, bench, systems = setup
    sizes = LAKES[lake_name]["query_sizes"]

    def sweep():
        """Per |Q|: one warm-up run of each query on each system, then
        REPEATS rounds that time the three systems in turn, so a slow
        spell of the machine lands on all of them; each point is the
        median over its system's runs, which one stall cannot move."""
        series = {name: [] for name in SYSTEMS}
        for size in sizes:
            samples = {name: [] for name in SYSTEMS}
            for query in _queries_of_size(bench, size):
                values = list(query.values)
                for name in SYSTEMS:
                    _run(name, systems, values)  # warm
                for _ in range(REPEATS):
                    for name in SYSTEMS:
                        samples[name].append(timed(lambda: _run(name, systems, values))[1])
            for name in SYSTEMS:
                series[name].append(statistics.median(samples[name]))
        return series

    series = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report_writer(
        f"fig05_join_runtime_{lake_name}",
        render_series_chart(
            f"Fig. 5 (reproduction): SC join runtime on {lake_name} (k={K})",
            [f"|Q|<={s}" for s in sizes],
            {
                "BLEND (Row)": series["blend_row"],
                "Josie": series["josie"],
                "BLEND (Column)": series["blend_column"],
            },
            log_note=True,
        )
        + f"\nruntime = median over {REPEATS} timed runs of each of up to "
        f"{QUERIES_PER_SIZE} queries per |Q| (one warm-up each, the three "
        "systems timed in turn)",
    )

    # Shape: BLEND (Column) always beats BLEND (Row), and is at worst
    # within 2x of Josie at the largest |Q| (it wins on the GitTables-like
    # lake; on the frequent-token canada-like lake Josie's output-
    # sensitive pruning keeps it ahead, matching the paper's own
    # row-store panels where Josie leads except at very large queries --
    # see EXPERIMENTS.md).
    largest = -1
    assert series["blend_column"][largest] <= series["josie"][largest] * 2.0
    assert series["blend_column"][largest] <= series["blend_row"][largest]


def test_outputs_identical_to_josie(benchmark, setup):
    """Fig. 6's premise: BLEND SC and Josie produce identical rankings."""
    _, bench, systems = setup

    def verify():
        for query in bench.queries[:4]:
            values = list(query.values)
            expected = systems["josie"].search(values, k=K).table_ids()
            assert systems["blend_column"].discover(values, "join", k=K).output.table_ids() == expected
            assert systems["blend_row"].discover(values, "join", k=K).output.table_ids() == expected
        return True

    assert benchmark.pedantic(verify, rounds=1, iterations=1)
